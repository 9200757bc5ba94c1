"""Tests for the contraction engines.

The generic engine's oracle is a naive loop over all row/column
multi-indices (tests/oracles.py), written with no shared machinery.
Truth-theoretic sentence cases are frozen from hand evaluation of the
defining vectors; the drinking-sentences fidelity/representativeness
values are frozen from an independent spectral computation (scipy
sqrtm/eigh).
"""

import importlib
import math
import sys
import types

import numpy as np
import pytest

from densem.compose import SpaceRegistry, WordMeaning, compose, compose_kronecker
from densem.density import (
    DensityMatrix,
    fidelity,
    mixture,
    pure,
    representativeness,
    supp_leq,
)
from densem.errors import RegistryError, ShapeError
from densem.pregroup import parse_type, reduce
from densem.spectral import eigh
from oracles import brute_contract

# The module itself: ``densem.compose`` as an attribute is the function.
compose_module = importlib.import_module("densem.compose")


def truth_registry(sentence_dim, nouns=("lions", "sloths", "meat", "plants")):
    registry = SpaceRegistry()
    registry.register("n", nouns)
    registry.register("s", ["true", "false"][:sentence_dim])
    return registry


def eat_meaning(registry, pairs):
    """Verb from (subject index, sentence amplitudes, object index) triples."""
    dn, ds = registry.dim("n"), registry.dim("s")
    vec = np.zeros(dn * ds * dn)
    for i, amplitudes, k in pairs:
        for j, amp in enumerate(amplitudes):
            vec[i * ds * dn + j * dn + k] += amp
    return WordMeaning.for_type(registry, "eat", "n^r s n^l", pure(vec))


def noun(registry, name, index):
    vec = np.zeros(registry.dim("n"))
    vec[index] = 1.0
    return WordMeaning.for_type(registry, name, "n", pure(vec))


TRANSITIVE = [parse_type("n"), parse_type("n^r s n^l"), parse_type("n")]


def transitive_diagram():
    return reduce(TRANSITIVE, parse_type("s"))


# Sentence shapes longer than subject-verb-object.
LONG_SHAPES = {
    "adj-svo": ["n n^l", "n", "n^r s n^l", "n"],
    "adj-both": ["n n^l", "n", "n^r s n^l", "n n^l", "n"],
}


def random_sentence(rng, types, dn, ds, target="s"):
    """Random words of ``types`` over n and s spaces of the given dims, and
    their reduction to ``target``."""
    reg = SpaceRegistry()
    reg.register("n", [f"n{i}" for i in range(dn)])
    reg.register("s", [f"s{i}" for i in range(ds)])
    words = []
    for i, t in enumerate(types):
        ptype = parse_type(t)
        dim = math.prod(reg.type_dims(ptype))
        words.append(WordMeaning.for_type(reg, f"w{i}", ptype, random_dm(rng, dim)))
    return reg, words, reduce([w.ptype for w in words], parse_type(target))


def adjective_chain(rng, dn):
    """14 random ``n n^l`` adjectives before a random noun, over an n space of
    dim ``dn``, and their reduction to n."""
    reg = SpaceRegistry().register("n", [f"n{i}" for i in range(dn)])
    types = ["n n^l"] * 14 + ["n"]
    words = [
        WordMeaning.for_type(reg, f"w{i}", t, random_dm(rng, dn ** len(parse_type(t))))
        for i, t in enumerate(types)
    ]
    return reg, words, reduce([w.ptype for w in words], parse_type("n"))


class TestRegistry:
    def test_register_and_query(self):
        reg = SpaceRegistry().register("n", ["a", "b"])
        assert reg.dim("n") == 2
        assert reg.labels("n") == ("a", "b")
        assert reg.index("n", "b") == 1

    def test_rejects_duplicates_and_unknowns(self):
        reg = SpaceRegistry()
        with pytest.raises(RegistryError):
            reg.register("n", ["a", "a"])
        with pytest.raises(RegistryError):
            reg.dim("n")
        reg.register("n", ["a"])
        with pytest.raises(RegistryError):
            reg.index("n", "zzz")

    def test_vector_from_mapping(self):
        reg = SpaceRegistry().register("n", ["a", "b", "c"])
        np.testing.assert_allclose(reg.vector("n", {"c": 2.0, "a": 1.0}), [1.0, 0.0, 2.0])

    def test_reregistering_differently_fails(self):
        reg = SpaceRegistry().register("n", ["a"])
        reg.register("n", ["a"])
        with pytest.raises(RegistryError):
            reg.register("n", ["b"])


class TestWordMeaning:
    def test_wire_dims_from_registry(self):
        reg = truth_registry(2)
        verb = eat_meaning(reg, [(0, [1.0, 0.0], 2)])
        assert verb.wire_dims == (4, 2, 4)
        assert verb.dm.dim == 32

    def test_dimension_mismatch_rejected(self):
        reg = truth_registry(1)
        with pytest.raises(ShapeError):
            WordMeaning.for_type(reg, "bad", "n", pure([1.0, 0.0]))


class TestTruthTheoretic1D:
    def setup_method(self):
        self.reg = truth_registry(1)
        self.eat = eat_meaning(self.reg, [(1, [1.0], 3), (0, [1.0], 2)])
        self.lions = noun(self.reg, "lions", 0)
        self.sloths = noun(self.reg, "sloths", 1)
        self.meat = noun(self.reg, "meat", 2)
        self.mammals = WordMeaning.for_type(
            self.reg, "mammals", "n",
            mixture([0.5, 0.5], [self.lions.dm, self.sloths.dm]),
        )
        self.diagram = transitive_diagram()

    def compose_scalar(self, subject):
        out = compose([subject, self.eat, self.meat], self.diagram, self.reg)
        assert out.dm.dim == 1
        return out.dm.matrix[0, 0]

    def test_lions_eat_meat_true(self):
        assert abs(self.compose_scalar(self.lions) - 1.0) <= 1e-12

    def test_sloths_eat_meat_false(self):
        assert abs(self.compose_scalar(self.sloths)) <= 1e-12

    def test_mammals_eat_meat_half(self):
        assert abs(self.compose_scalar(self.mammals) - 0.5) <= 1e-12

    def test_verb_matrix_layout(self):
        # On a 1-D sentence wire the verb operator collapses to the 4x4
        # relation on subject x object pairs.
        picked = self.eat.dm.matrix[np.ix_([2, 3, 6, 7], [2, 3, 6, 7])]
        expected = np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=float
        )
        np.testing.assert_allclose(picked, expected)


class TestTruthTheoretic2D:
    def setup_method(self):
        self.reg = truth_registry(2)
        self.eat = eat_meaning(
            self.reg,
            [(0, [1.0, 0.0], 2), (0, [0.0, 1.0], 3), (1, [0.0, 1.0], 2), (1, [1.0, 0.0], 3)],
        )
        self.lions = noun(self.reg, "lions", 0)
        self.sloths = noun(self.reg, "sloths", 1)
        self.meat = noun(self.reg, "meat", 2)
        self.mammals = WordMeaning.for_type(
            self.reg, "mammals", "n",
            mixture([0.5, 0.5], [self.lions.dm, self.sloths.dm]),
        )
        self.diagram = transitive_diagram()

    def sentence(self, subject):
        return compose([subject, self.eat, self.meat], self.diagram, self.reg)

    def test_lions_eat_meat_is_true_state(self):
        np.testing.assert_allclose(
            self.sentence(self.lions).dm.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12
        )

    def test_sloths_eat_meat_is_false_state(self):
        np.testing.assert_allclose(
            self.sentence(self.sloths).dm.matrix, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12
        )

    def test_mammals_eat_meat_maximally_mixed(self):
        np.testing.assert_allclose(
            self.sentence(self.mammals).dm.matrix, np.diag([0.5, 0.5]), atol=1e-12
        )

    def test_sentence_level_entailment(self):
        lions_sent = self.sentence(self.lions).dm
        mammals_sent = self.sentence(self.mammals).dm
        assert abs(representativeness(lions_sent, mammals_sent) - 0.5) <= 1e-12
        assert representativeness(mammals_sent, lions_sent) == 0.0

    def test_output_type_is_sentence(self):
        out = self.sentence(self.lions)
        assert str(out.ptype) == "s"
        assert out.wire_dims == (2,)
        assert out.word == "lions eat meat"


class TestDogsSentences:
    def setup_method(self):
        self.reg = truth_registry(2, nouns=("lions", "dogs", "meat", "plants"))
        self.lions = noun(self.reg, "lions", 0)
        self.dogs = noun(self.reg, "dogs", 1)
        self.meat = noun(self.reg, "meat", 2)
        self.mammals = WordMeaning.for_type(
            self.reg, "mammals", "n",
            mixture([0.5, 0.5], [self.lions.dm, self.dogs.dm]),
        )

    def eat_with_amplitude(self, half_true):
        return eat_meaning(
            self.reg,
            [
                (0, [1.0, 0.0], 2),
                (0, [0.0, 1.0], 3),
                (1, half_true, 2),
                (1, half_true, 3),
            ],
        )

    def test_dogs_eat_meat_half_amplitudes(self):
        # The defining vector weights both truth values by 1/2, so the
        # resulting pure sentence state carries trace 1/2, not 1.
        eat = self.eat_with_amplitude([0.5, 0.5])
        out = compose([self.dogs, eat, self.meat], transitive_diagram(), self.reg)
        np.testing.assert_allclose(out.dm.matrix, np.full((2, 2), 0.25), atol=1e-12)
        assert abs(out.dm.trace - 0.5) <= 1e-12
        assert eigh(out.dm.matrix).values[1] <= 1e-12  # rank one

    def test_mammals_with_unit_amplitudes(self):
        # With the half-true vector at unit norm the lions/dogs mixture
        # lands on the 3/4-1/4 operator.
        amp = 1.0 / math.sqrt(2.0)
        eat = self.eat_with_amplitude([amp, amp])
        out = compose([self.mammals, eat, self.meat], transitive_diagram(), self.reg)
        np.testing.assert_allclose(
            out.dm.matrix, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12
        )

    def test_identity_like_verb_copies_subject(self):
        reg = SpaceRegistry().register("n", ["a", "b"]).register("s", ["x", "y"])
        dn = 2
        # verb vector sum_i |i> |i> |0> over a 1-D object space
        obj_reg = SpaceRegistry().register("n", ["a", "b"]).register("m", ["only"]).register("s", ["x", "y"])
        vec = np.zeros(dn * dn * 1)
        for i in range(dn):
            vec[i * dn * 1 + i * 1] = 1.0
        verb = WordMeaning.for_type(obj_reg, "copy", "n^r s m^l", pure(vec))
        subj = WordMeaning.for_type(obj_reg, "subj", "n", pure([3.0, 4.0]))
        obj = WordMeaning.for_type(obj_reg, "obj", "m", pure([1.0]))
        words = [subj, verb, obj]
        diagram = reduce([w.ptype for w in words], parse_type("s"))
        out = compose(words, diagram, obj_reg)
        np.testing.assert_allclose(out.dm.matrix, subj.dm.matrix, atol=1e-12)


class TestGenericEngine:
    def test_matches_transitive_specialization(self):
        rng = np.random.default_rng(211)
        diagram = transitive_diagram()
        for _ in range(50):
            dn = int(rng.integers(1, 4))
            ds = int(rng.integers(1, 4))
            reg = SpaceRegistry()
            reg.register("n", [f"n{i}" for i in range(dn)])
            reg.register("s", [f"s{i}" for i in range(ds)])
            subj = WordMeaning.for_type(reg, "a", "n", random_dm(rng, dn))
            verb = WordMeaning.for_type(reg, "v", "n^r s n^l", random_dm(rng, dn * ds * dn))
            obj = WordMeaning.for_type(reg, "b", "n", random_dm(rng, dn))
            generic = compose([subj, verb, obj], diagram, reg)
            expected = brute_contract([subj, verb, obj], diagram)
            np.testing.assert_allclose(generic.dm.matrix, expected, atol=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(223)
        diagram = transitive_diagram()
        for _ in range(10):
            dn, ds = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            reg = SpaceRegistry()
            reg.register("n", [f"n{i}" for i in range(dn)])
            reg.register("s", [f"s{i}" for i in range(ds)])
            words = [
                WordMeaning.for_type(reg, "a", "n", random_dm(rng, dn)),
                WordMeaning.for_type(reg, "v", "n^r s n^l", random_dm(rng, dn * ds * dn)),
                WordMeaning.for_type(reg, "b", "n", random_dm(rng, dn)),
            ]
            got = compose(words, diagram, reg)
            expected = brute_contract(words, diagram)
            np.testing.assert_allclose(got.dm.matrix, expected, atol=1e-10)

    def test_snake_identity_both_orientations(self):
        rng = np.random.default_rng(227)
        for dim in (1, 2, 3, 4):
            reg = SpaceRegistry().register("n", [f"n{i}" for i in range(dim)])
            rho = random_dm(rng, dim)
            cap = pure(np.eye(dim).reshape(-1))
            word = WordMeaning.for_type(reg, "w", "n", rho)

            eta_right = WordMeaning.for_type(reg, "eta", "n^r n", cap)
            diagram = reduce([word.ptype, eta_right.ptype], parse_type("n"))
            out = compose([word, eta_right], diagram, reg)
            np.testing.assert_allclose(out.dm.matrix, rho.matrix, atol=1e-10)

            eta_left = WordMeaning.for_type(reg, "eta", "n n^l", cap)
            diagram = reduce([eta_left.ptype, word.ptype], parse_type("n"))
            out = compose([eta_left, word], diagram, reg)
            np.testing.assert_allclose(out.dm.matrix, rho.matrix, atol=1e-10)

    def test_bilinearity_in_each_argument(self):
        rng = np.random.default_rng(229)
        diagram = transitive_diagram()
        reg = SpaceRegistry()
        reg.register("n", ["n0", "n1"])
        reg.register("s", ["s0", "s1"])
        verb = WordMeaning.for_type(reg, "v", "n^r s n^l", random_dm(rng, 8))
        obj = WordMeaning.for_type(reg, "b", "n", random_dm(rng, 2))
        parts = [random_dm(rng, 2), random_dm(rng, 2)]
        weights = [0.3, 1.7]
        mixed = WordMeaning.for_type(reg, "a", "n", mixture(weights, parts))
        whole = compose([mixed, verb, obj], diagram, reg).dm.matrix
        split = sum(
            w * compose(
                [WordMeaning.for_type(reg, "a", "n", p), verb, obj], diagram, reg
            ).dm.matrix
            for w, p in zip(weights, parts)
        )
        np.testing.assert_allclose(whole, split, atol=1e-10)

    def test_psd_closure_random_diagrams(self):
        rng = np.random.default_rng(233)
        reg = SpaceRegistry()
        reg.register("n", ["n0", "n1"])
        reg.register("s", ["s0", "s1", "s2"])
        shapes = [
            (["n"], ["n^r s"], "s"),
            (["n"], ["n^r s n^l"], ["n"], "s"),
            (["n n^l"], ["n"], "n"),
            (["n"], ["n^r n"], "n"),
        ]
        for shape in shapes:
            *types, target = shape
            types = [parse_type(t[0]) for t in types]
            diagram = reduce(types, parse_type(target))
            assert diagram is not None
            for _ in range(10):
                words = [
                    WordMeaning.for_type(
                        reg, f"w{i}", t, random_dm(rng, int(np.prod(reg.type_dims(t))))
                    )
                    for i, t in enumerate(types)
                ]
                out = compose(words, diagram, reg)
                values = eigh(out.dm.matrix).values
                assert values[-1] >= -1e-9 * max(values[0], 1.0)
                traces = np.prod([w.dm.trace for w in words])
                assert out.dm.trace <= traces + 1e-9

    @pytest.mark.parametrize("dn, ds", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("shape", list(LONG_SHAPES))
    def test_longer_diagrams_match_brute_force(self, shape, dn, ds):
        rng = np.random.default_rng(263)
        reg, words, diagram = random_sentence(rng, LONG_SHAPES[shape], dn, ds)
        got = compose(words, diagram, reg)
        np.testing.assert_allclose(got.dm.matrix, brute_contract(words, diagram), atol=1e-10)

    def test_one_diagram_at_two_dims(self, monkeypatch):
        # Each dims gets its own greedy plan, so a plan cache keyed on the
        # diagram alone would reuse the first plan for the second dims.
        plans = []
        subscripts = []
        original_plan = compose_module._contraction_plan
        original_einsum = np.einsum

        def recording_plan(labels, shapes, out_labels):
            steps = original_plan(labels, shapes, out_labels)
            plans.append((labels, shapes, out_labels, steps))
            return steps

        def recording_einsum(*operands, **kwargs):
            subscripts.append(operands[0])
            return original_einsum(*operands, **kwargs)

        compose_module._contraction_plan.cache_clear()
        monkeypatch.setattr(compose_module, "_contraction_plan", recording_plan)
        monkeypatch.setattr(compose_module.np, "einsum", recording_einsum)
        rng = np.random.default_rng(269)
        for dn, ds in ((1, 2), (2, 2)):
            reg, words, diagram = random_sentence(rng, LONG_SHAPES["adj-svo"], dn, ds)
            got = compose(words, diagram, reg)
            expected = brute_contract(words, diagram)
            np.testing.assert_allclose(got.dm.matrix, expected, atol=1e-10)

            labels, shapes, out_labels, steps = plans[-1]
            operands = []
            for w, operand_labels, shape in zip(words, labels, shapes):
                operands.extend((w.dm.matrix.reshape(shape), list(operand_labels)))
            fresh, _ = np.einsum_path(*operands, list(out_labels), optimize="greedy")
            assert [positions for positions, _ in steps] == [
                tuple(sorted(c, reverse=True)) for c in fresh[1:]
            ]
            assert subscripts[-len(steps):] == [sub for _, sub in steps]
            # A step's result keeps only the labels still needed later.
            letters = compose_module._LETTERS
            pending = ["".join(letters[k] for k in op) for op in labels]
            for positions, sub in steps:
                inputs, result = sub.split("->")
                assert inputs.split(",") == [pending.pop(p) for p in positions]
                needed = set("".join(pending)) | {letters[k] for k in out_labels}
                assert set(result) == set(inputs.replace(",", "")) & needed
                pending.append(result)
            assert pending == ["".join(letters[k] for k in out_labels)]
        assert len(plans) == 2
        assert plans[0][3] != plans[1][3]

    @pytest.mark.parametrize(
        "types, target",
        [
            (["n s"], "n s"),  # one word: a single-operand step
            (["n n^r s"], "s"),  # a word's own wires linked: a trace
            (["n", "n n^r n^r s"], "s"),  # a trace inside a pairwise step
        ],
    )
    def test_step_edge_cases_match_brute_force(self, types, target):
        rng = np.random.default_rng(283)
        for dn, ds in ((1, 1), (2, 3)):
            reg, words, diagram = random_sentence(rng, types, dn, ds, target)
            got = compose(words, diagram, reg)
            np.testing.assert_allclose(
                got.dm.matrix, brute_contract(words, diagram), atol=1e-10
            )

    def test_empty_word_list(self):
        reg = SpaceRegistry().register("n", ["a"])
        diagram = reduce([], parse_type(""))
        got = compose([], diagram, reg)
        assert got.wire_dims == ()
        np.testing.assert_array_equal(got.dm.matrix, [[1.0]])
        np.testing.assert_array_equal(got.dm.matrix, brute_contract([], diagram))

    def test_adjective_chain_matches_brute_force(self):
        # 29 wires, but 15 links plus residuals: 30 einsum labels.
        rng = np.random.default_rng(277)
        reg, words, diagram = adjective_chain(rng, 1)
        got = compose(words, diagram, reg)
        np.testing.assert_allclose(
            got.dm.matrix, brute_contract(words, diagram), rtol=1e-10, atol=0
        )

    def test_adjective_chain_matches_one_adjective_at_a_time(self):
        rng = np.random.default_rng(281)
        reg, words, diagram = adjective_chain(rng, 2)
        got = compose(words, diagram, reg)
        phrase = words[-1]
        for adjective in reversed(words[:-1]):
            pair = [adjective, phrase]
            phrase = compose(pair, reduce([w.ptype for w in pair], parse_type("n")), reg)
        expected = phrase.dm.matrix
        np.testing.assert_allclose(
            got.dm.matrix, expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max()
        )

    def test_label_limit(self):
        # Each residual takes a row and a column label: 26 fit, 27 do not.
        reg = SpaceRegistry().register("n", ["a"])
        dog = WordMeaning.for_type(reg, "dog", "n", DensityMatrix([[0.5]]))

        def nouns(count):
            words = [dog] * count
            return words, reduce([w.ptype for w in words], parse_type(" ".join(["n"] * count)))

        assert compose(*nouns(26), reg).dm.matrix == pytest.approx(0.5**26)
        with pytest.raises(ShapeError, match="labels"):
            compose(*nouns(27), reg)

    def test_type_mismatch_rejected(self):
        reg = truth_registry(1)
        diagram = transitive_diagram()
        lions = noun(reg, "lions", 0)
        with pytest.raises(ShapeError):
            compose([lions, lions, lions], diagram, reg)

    def test_linked_dimension_mismatch_rejected(self):
        reg = SpaceRegistry().register("n", ["a", "b"]).register("s", ["x"])
        other = SpaceRegistry().register("n", ["a", "b", "c"]).register("s", ["x"])
        diagram = reduce([parse_type("n"), parse_type("n^r s")], parse_type("s"))
        w1 = WordMeaning.for_type(other, "big", "n", pure([1.0, 0.0, 0.0]))
        w2 = WordMeaning.for_type(reg, "verb", "n^r s", pure([1.0, 0.0]))
        with pytest.raises(ShapeError):
            compose([w1, w2], diagram, reg)


class TestPlanCount:
    def test_each_shape_planned_once(self, monkeypatch):
        calls = []
        original = np.einsum_path

        def counting_einsum_path(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        compose_module._contraction_plan.cache_clear()
        monkeypatch.setattr(compose_module.np, "einsum_path", counting_einsum_path)
        rng = np.random.default_rng(271)
        reg, words, diagram = random_sentence(rng, LONG_SHAPES["adj-svo"], 2, 2)
        for _ in range(3):
            compose(words, diagram, reg)
        assert len(calls) == 1
        reg, words, diagram = random_sentence(rng, LONG_SHAPES["adj-svo"], 2, 1)
        compose(words, diagram, reg)
        assert len(calls) == 2

    def test_cached_shape_runs_one_einsum_per_step(self, monkeypatch):
        # A cached shape is replayed: no planning, no optimize= argument
        # (which would send each call through numpy's path search again),
        # and no copy of any operator.
        rng = np.random.default_rng(293)
        reg, words, diagram = random_sentence(rng, LONG_SHAPES["adj-both"], 2, 2)
        compose_module._contraction_plan.cache_clear()
        compose(words, diagram, reg)
        steps = compose_module._contraction_plan.cache_info()
        assert (steps.misses, steps.currsize) == (1, 1)

        einsum_calls = []
        original = np.einsum

        def counting_einsum(*operands, **kwargs):
            einsum_calls.append(kwargs)
            return original(*operands, **kwargs)

        def no_planning(*args, **kwargs):
            raise AssertionError("a cached shape must not be planned again")

        def no_copy(self):
            raise AssertionError("compose must read operators without copying")

        monkeypatch.setattr(compose_module.np, "einsum", counting_einsum)
        monkeypatch.setattr(compose_module.np, "einsum_path", no_planning)
        monkeypatch.setattr(DensityMatrix, "matrix", property(no_copy))
        compose(words, diagram, reg)
        # Five operands contract in four pairwise steps.
        assert len(einsum_calls) == 4
        assert all("optimize" not in kwargs for kwargs in einsum_calls)
        assert compose_module._contraction_plan.cache_info().hits == 1


class TestModuleName:
    """``densem.compose`` is the function; the module is reached by name.

    ``perfbench/spans.py`` finds the compose layer under the module name
    ``densem.compose``, so the module keeps that name and the package
    attribute stays the function it re-exports.
    """

    def test_package_attribute_is_the_function(self):
        import densem
        import densem.compose as bound

        assert densem.compose is compose
        assert bound is compose
        assert not isinstance(densem.compose, types.ModuleType)

    def test_module_is_reached_through_importlib(self):
        module = importlib.import_module("densem.compose")
        assert isinstance(module, types.ModuleType)
        assert module.__name__ == "densem.compose"
        assert sys.modules["densem.compose"] is module
        assert module.compose is compose


class TestKronecker:
    def test_all_ones_table_gives_tensor_product(self):
        rng = np.random.default_rng(239)
        subj, obj = random_dm(rng, 2), random_dm(rng, 3)
        got = compose_kronecker(np.ones((2, 3)), subj, obj)
        np.testing.assert_allclose(got.matrix, np.kron(subj.matrix, obj.matrix), atol=1e-12)

    def test_schur_psd_closure(self):
        rng = np.random.default_rng(241)
        for _ in range(25):
            ds, do = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            table = rng.uniform(-2, 2, size=(ds, do))
            if not np.any(table):
                continue
            out = compose_kronecker(table, random_dm(rng, ds), random_dm(rng, do))
            values = eigh(out.matrix).values
            assert values[-1] >= -1e-9 * max(values[0], 1.0)

    def test_drinking_sentences(self):
        drink = np.array([[4.0, 5, 3], [6, 3, 2], [1, 2, 1]])
        psychiatrist = DensityMatrix(np.diag([2.0, 5.0, 0.0]))
        lager = pure([6.0, 5.0, 0.0])
        doctor = DensityMatrix(np.diag([5.0, 2.0, 3.0]))
        beer = DensityMatrix([[13.0, 7, 0], [7, 7, 0], [0, 0, 0]])
        first = compose_kronecker(drink, psychiatrist, lager)
        second = compose_kronecker(drink, doctor, beer)
        # Frozen from an independent scipy-based spectral computation.
        assert abs(fidelity(first, second) - 0.8517340478908533) <= 1e-8
        assert abs(representativeness(first, second) - 0.5882834945505457) <= 1e-8
        assert representativeness(second, first) == 0.0
        assert supp_leq(first, second) and not supp_leq(second, first)

    def test_word_scaling_invisible_after_normalization(self):
        rng = np.random.default_rng(251)
        table = rng.uniform(0, 3, size=(2, 2))
        subj, obj = random_dm(rng, 2), random_dm(rng, 2)
        a = compose_kronecker(table, subj, obj).normalized()
        b = compose_kronecker(table, subj.scaled(5.0), obj.scaled(0.25)).normalized()
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)

    def test_shape_errors(self):
        rng = np.random.default_rng(257)
        with pytest.raises(ShapeError):
            compose_kronecker(np.ones((2, 2)), random_dm(rng, 3), random_dm(rng, 2))


def random_dm(rng, dim):
    b = rng.standard_normal((dim, dim))
    return DensityMatrix(b.T @ b)
