"""Tests for corpus-record builders and lexicon persistence."""

import io
import json

import numpy as np
import pytest

from densem import lexicon
from densem.compose import SpaceRegistry, WordMeaning, compose, compose_kronecker
from densem.density import DensityMatrix, mixture, pure
from densem.errors import (
    LexiconFormatError,
    NumericFailure,
    RegistryError,
    ShapeError,
    UnknownWordError,
)
from densem.lexicon import (
    Lexicon,
    PairRecord,
    SubsetRecord,
    VerbTable,
    build_from_subsets,
    build_verb_from_pairs,
    load,
    save,
    taxonomy_mix,
)
from densem.pregroup import format_type, parse_type, reduce
from densem.spectral import SYMMETRY_TOL, eigh

PUB_SPACE = ("pub", "pitcher", "tonic")


def beer_records():
    return [
        SubsetRecord("beer", frozenset({"pub"}), 6.0),
        SubsetRecord("beer", frozenset({"pub", "pitcher"}), 7.0),
    ]


def beer_lexicon():
    registry = SpaceRegistry().register("n", PUB_SPACE)
    lex = Lexicon(registry)
    lex.add_word(WordMeaning.for_type(registry, "lager", "n", pure([6.0, 5.0, 0.0])))
    lex.add_word(WordMeaning.for_type(registry, "ale", "n", pure([7.0, 3.0, 0.0])))
    lex.add_word(
        WordMeaning.for_type(
            registry, "beer", "n", build_from_subsets(beer_records(), PUB_SPACE)
        )
    )
    return lex


class TestSubsetBuilder:
    def test_beer_matrix(self):
        dm = build_from_subsets(beer_records(), PUB_SPACE)
        np.testing.assert_allclose(
            dm.matrix, [[13.0, 7.0, 0.0], [7.0, 7.0, 0.0], [0.0, 0.0, 0.0]]
        )

    def test_single_singleton_record(self):
        dm = build_from_subsets([SubsetRecord("w", {"pitcher"}, 1.0)], PUB_SPACE)
        np.testing.assert_allclose(dm.matrix, np.diag([0.0, 1.0, 0.0]))

    def test_disjoint_singletons_stay_diagonal(self):
        dm = build_from_subsets(
            [SubsetRecord("w", {"pub"}, 3.0), SubsetRecord("w", {"tonic"}, 4.0)],
            PUB_SPACE,
        )
        np.testing.assert_allclose(dm.matrix, np.diag([3.0, 0.0, 4.0]))

    def test_count_splitting_additivity(self):
        whole = build_from_subsets([SubsetRecord("w", {"pub", "tonic"}, 5.0)], PUB_SPACE)
        split = build_from_subsets(
            [
                SubsetRecord("w", {"pub", "tonic"}, 2.0),
                SubsetRecord("w", {"pub", "tonic"}, 3.0),
            ],
            PUB_SPACE,
        )
        np.testing.assert_allclose(whole.matrix, split.matrix)

    def test_psd_for_random_records(self):
        rng = np.random.default_rng(307)
        labels = tuple(f"b{i}" for i in range(5))
        for _ in range(50):
            records = [
                SubsetRecord(
                    "w",
                    frozenset(
                        rng.choice(labels, size=int(rng.integers(1, 5)), replace=False)
                    ),
                    float(rng.uniform(0.1, 10.0)),
                )
                for _ in range(int(rng.integers(1, 6)))
            ]
            dm = build_from_subsets(records, labels)
            values = eigh(dm.matrix).values
            assert values[-1] >= -1e-9 * max(values[0], 1.0)

    def test_zero_one_vector_matches_pure(self):
        dm = build_from_subsets([SubsetRecord("w", {"pub", "pitcher"}, 1.0)], PUB_SPACE)
        np.testing.assert_allclose(dm.matrix, pure([1.0, 1.0, 0.0]).matrix)

    def test_rejects_bad_input(self):
        with pytest.raises(ShapeError):
            build_from_subsets([], PUB_SPACE)
        with pytest.raises(RegistryError):
            build_from_subsets([SubsetRecord("w", {"nope"}, 1.0)], PUB_SPACE)
        with pytest.raises(ShapeError):
            build_from_subsets(
                [SubsetRecord("a", {"pub"}, 1.0), SubsetRecord("b", {"pub"}, 1.0)],
                PUB_SPACE,
            )
        with pytest.raises(ShapeError):
            SubsetRecord("w", set(), 1.0)
        with pytest.raises(ShapeError):
            SubsetRecord("w", {"pub"}, 0.0)


class TestTaxonomyMix:
    def test_equal_mixture_of_pure_children(self):
        registry = SpaceRegistry().register("n", ("lions", "sloths"))
        lex = Lexicon(registry)
        lex.add_word(WordMeaning.for_type(registry, "lions", "n", pure([1.0, 0.0])))
        lex.add_word(WordMeaning.for_type(registry, "sloths", "n", pure([0.0, 1.0])))
        dm = taxonomy_mix([("lions", 0.5), ("sloths", 0.5)], lex)
        np.testing.assert_allclose(dm.matrix, np.diag([0.5, 0.5]))

    def test_single_child_is_normalized_child(self):
        lex = beer_lexicon()
        dm = taxonomy_mix([("lager", 1.0)], lex)
        np.testing.assert_allclose(dm.matrix, lex.word("lager").dm.matrix / 61.0)

    def test_beer_from_taxonomy_rank_two(self):
        lex = beer_lexicon()
        dm = taxonomy_mix([("lager", 0.5), ("ale", 0.5)], lex)
        values = eigh(dm.matrix).values
        assert values[1] > 1e-6  # genuinely rank two
        assert abs(values[2]) <= 1e-12  # supported on span{pub, pitcher}
        assert abs(dm.trace - 1.0) <= 1e-12

    def test_normalization_shields_child_scale(self):
        lex = beer_lexicon()
        mixed = taxonomy_mix([("lager", 1.0), ("ale", 1.0)], lex)
        lex2 = beer_lexicon()
        lex2.add_word(
            WordMeaning.for_type(
                lex2.registry, "lager", "n", pure([60.0, 50.0, 0.0])
            )
        )
        rescaled = taxonomy_mix([("lager", 1.0), ("ale", 1.0)], lex2)
        np.testing.assert_allclose(mixed.matrix, rescaled.matrix, atol=1e-12)

    def test_missing_child(self):
        with pytest.raises(UnknownWordError):
            taxonomy_mix([("stout", 1.0)], beer_lexicon())


class TestVerbBuilder:
    def test_single_pair(self):
        table = build_verb_from_pairs(
            [PairRecord("drink", {"patient": 1.0}, {"pub": 1.0}, 4.0)],
            ("patient", "mental", "surgery"),
            PUB_SPACE,
        )
        expected = np.zeros((3, 3))
        expected[0, 0] = 4.0
        np.testing.assert_allclose(table, expected)

    def test_drink_table_from_unit_pairs(self):
        subject_labels = ("patient", "mental", "surgery")
        target = np.array([[4.0, 5, 3], [6, 3, 2], [1, 2, 1]])
        records = [
            PairRecord("drink", {subject_labels[i]: 1.0}, {PUB_SPACE[j]: 1.0}, target[i, j])
            for i in range(3)
            for j in range(3)
        ]
        table = build_verb_from_pairs(records, subject_labels, PUB_SPACE)
        np.testing.assert_allclose(table, target)

    def test_additivity(self):
        labels = ("a", "b")
        one = build_verb_from_pairs(
            [
                PairRecord("v", {"a": 1.0}, {"b": 1.0}, 1.0),
                PairRecord("v", {"a": 1.0}, {"b": 1.0}, 2.0),
            ],
            labels,
            labels,
        )
        assert one[0, 1] == 3.0

    def test_rejects_mixed_verbs_and_unknown_labels(self):
        labels = ("a", "b")
        with pytest.raises(ShapeError):
            build_verb_from_pairs(
                [
                    PairRecord("v", {"a": 1.0}, {"a": 1.0}),
                    PairRecord("w", {"a": 1.0}, {"a": 1.0}),
                ],
                labels,
                labels,
            )
        with pytest.raises(RegistryError):
            build_verb_from_pairs([PairRecord("v", {"zzz": 1.0}, {"a": 1.0})], labels, labels)


class TestPersistence:
    def roundtrip(self, lex):
        buffer = io.StringIO()
        save(lex, buffer)
        buffer.seek(0)
        return load(buffer)

    def test_empty_lexicon(self):
        lex = self.roundtrip(Lexicon())
        assert lex.words() == ()
        assert lex.verbs() == ()

    def test_beer_lexicon_bit_exact(self):
        original = beer_lexicon()
        loaded = self.roundtrip(original)
        assert set(loaded.words()) == set(original.words())
        for name in original.words():
            np.testing.assert_array_equal(
                loaded.word(name).dm.matrix, original.word(name).dm.matrix
            )
            assert loaded.word(name).ptype == original.word(name).ptype

    def test_verb_table_roundtrip(self):
        lex = beer_lexicon()
        lex.registry.register("subjects", ("patient", "mental", "surgery"))
        table = np.array([[4.0, 5, 3], [6, 3, 2], [1, 2, 1]]) / 3.0
        lex.add_verb_table("drink", VerbTable("subjects", "n", table))
        loaded = self.roundtrip(lex)
        np.testing.assert_array_equal(loaded.verb_table("drink").table, table)
        assert loaded.verb_table("drink").subject_space == "subjects"

    def test_seventeen_digit_roundtrip_of_awkward_floats(self):
        registry = SpaceRegistry().register("n", ("a", "b"))
        lex = Lexicon(registry)
        awkward = np.array([[1.0 / 3.0, 1e-17], [1e-17, 0.1 + 0.2]])
        lex.add_word(WordMeaning.for_type(registry, "w", "n", DensityMatrix(awkward)))
        table = np.array([[-1.0 / 3.0, 5e-324], [1.7976931348623157e308, -0.0]])
        lex.add_verb_table("v", VerbTable("n", "n", table))
        loaded = self.roundtrip(lex)
        np.testing.assert_array_equal(loaded.word("w").dm.matrix, (awkward + awkward.T) / 2)
        np.testing.assert_array_equal(loaded.verb_table("v").table, table)
        assert np.signbit(loaded.verb_table("v").table[1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_verb_table_is_refused(self, bad):
        lex = beer_lexicon()
        table = np.ones((3, 3))
        table[1, 2] = bad
        with pytest.raises(NumericFailure, match="non-finite"):
            lex.add_verb_table("drink", VerbTable("n", "n", table))
        assert lex.verbs() == ()

    def test_verb_table_is_copied_on_add(self):
        lex = beer_lexicon()
        table = np.ones((3, 3))
        lex.add_verb_table("drink", VerbTable("n", "n", table))
        table[0, 1] = np.nan
        assert not lex.verb_table("drink").table.flags.writeable
        loaded = self.roundtrip(lex)
        np.testing.assert_array_equal(loaded.verb_table("drink").table, np.ones((3, 3)))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "lex.json"
        save(beer_lexicon(), path)
        loaded = load(path)
        assert "beer" in loaded

    def test_handwritten_kinds_accepted(self, tmp_path):
        document = {
            "spaces": {"n": {"dim": 2, "labels": ["pub", "pitcher"]}},
            "words": {
                "lager": {"type": "n", "kind": "pure", "data": {"vector": ["6", "5"]}},
                "beer": {
                    "type": "n",
                    "kind": "subsets",
                    "data": {
                        "records": [
                            {"features": ["pub"], "count": "6"},
                            {"features": ["pub", "pitcher"], "count": "7"},
                        ]
                    },
                },
            },
            "verbs": {},
        }
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(document))
        lex = load(path)
        np.testing.assert_allclose(
            lex.word("beer").dm.matrix, [[13.0, 7.0], [7.0, 7.0]]
        )
        np.testing.assert_allclose(
            lex.word("lager").dm.matrix, [[36.0, 30.0], [30.0, 25.0]]
        )


def _awkward_lexicon():
    """Words of two types, a non-ASCII name, awkward floats and a verb table."""
    lex = beer_lexicon()
    lex.registry.register("s", ("true", "false"))
    rng = np.random.default_rng(22)
    a = rng.standard_normal((6, 6)) * np.logspace(-150, 150, 6)
    lex.add_word(WordMeaning.for_type(lex.registry, "café", "n s", DensityMatrix(a @ a.T)))
    table = np.array([[1.0 / 3.0, 0.0, -0.0], [0.1 + 0.2, 1e-300, 5e-324], [1e300, 2.0, 7.0]])
    lex.add_verb_table("drink", VerbTable("n", "n", table))
    return lex


def _indented_document(lex):
    """The document exactly as ``json.dump(document, handle, indent=2)`` wrote it
    before ``save`` streamed compact entries: every number ``format(x, ".17g")``."""

    def strings(m):
        return [[format(float(x), ".17g") for x in row] for row in np.asarray(m)]

    registry = lex.registry
    return {
        "spaces": {
            atom: {"dim": registry.dim(atom), "labels": list(registry.labels(atom))}
            for atom in registry.atoms()
        },
        "words": {
            name: {
                "type": format_type(lex.word(name).ptype),
                "kind": "matrix",
                "data": {"matrix": strings(lex.word(name).dm.matrix)},
            }
            for name in lex.words()
        },
        "verbs": {
            name: {
                "subject_space": lex.verb_table(name).subject_space,
                "object_space": lex.verb_table(name).object_space,
                "rows": strings(lex.verb_table(name).table),
            }
            for name in lex.verbs()
        },
    }


def _assert_same_lexicon(loaded, original):
    assert loaded.words() == original.words()
    assert loaded.verbs() == original.verbs()
    for name in original.words():
        np.testing.assert_array_equal(loaded.word(name).dm.matrix, original.word(name).dm.matrix)
        assert loaded.word(name).ptype == original.word(name).ptype
    for name in original.verbs():
        np.testing.assert_array_equal(
            loaded.verb_table(name).table, original.verb_table(name).table
        )


class _RecordingFile:
    """A text sink that keeps every ``write`` call's argument."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class TestStreamedSave:
    def test_indented_layout_still_loads_bit_exact(self):
        lex = _awkward_lexicon()
        text = json.dumps(_indented_document(lex), indent=2)
        _assert_same_lexicon(load(io.StringIO(text)), lex)

    def test_same_document_and_key_order_through_path_and_file(self, tmp_path):
        lex = _awkward_lexicon()
        document = _indented_document(lex)
        buffer = io.StringIO()
        save(lex, buffer)
        path = tmp_path / "lex.json"
        save(lex, path)
        for text in (buffer.getvalue(), path.read_text(encoding="utf-8")):
            assert "\n" not in text
            # Dumping preserves key order, so equal dumps mean equal order too.
            assert json.dumps(json.loads(text)) == json.dumps(document)
        assert path.read_text(encoding="utf-8") == buffer.getvalue()

    def test_writes_one_entry_at_a_time(self):
        lex = _awkward_lexicon()
        sink = _RecordingFile()
        save(lex, sink)
        document = json.loads("".join(sink.writes))
        longest = max(
            len(json.dumps(entry, separators=(",", ":")))
            for section in document.values()
            for entry in section.values()
        )
        assert len(sink.writes) > 1
        assert max(map(len, sink.writes)) <= longest


def _psd_input(rng, n):
    """A diagonally dominant, hence PSD, n x n matrix; from n = 2 on, -0.0
    faces 0.0 across the diagonal, and from n = 3 on, -0.0 faces -0.0."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    m = (a + a.T) / 2.0 + n * np.eye(n)
    if n >= 2:
        m[0, 1], m[1, 0] = -0.0, 0.0
    if n >= 3:
        m[0, 2] = m[2, 0] = -0.0
    return m


def _seeded_lexicon(scale):
    """Seeded words of dims 1, 2, 3, 16, 17 and 128 and a 3x5 verb table,
    all scaled by ``scale``."""
    registry = SpaceRegistry()
    lex = Lexicon(registry)
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 16, 17, 128):
        registry.register(f"d{n}", [f"e{i}" for i in range(n)])
        dm = DensityMatrix(_psd_input(rng, n) * scale)
        lex.add_word(WordMeaning.for_type(registry, f"w{n}", f"d{n}", dm))
    registry.register("d5", [f"e{i}" for i in range(5)])
    table = rng.standard_normal((3, 5)) * scale
    table[0, :3] = 0.0, -0.0, 5e-324
    lex.add_verb_table("v", VerbTable("d3", "d5", table))
    return lex


class TestExactText:
    """``save`` writes the compact dump of the reference document byte for
    byte, though it formats each word's upper triangle only."""

    @pytest.mark.parametrize(
        "make",
        [_awkward_lexicon, lambda: _seeded_lexicon(1e300), lambda: _seeded_lexicon(1e-300)],
        ids=["awkward", "seeded-1e300", "seeded-1e-300"],
    )
    def test_text_equals_reference_dump(self, make):
        lex = make()
        buffer = io.StringIO()
        save(lex, buffer)
        text = buffer.getvalue()
        assert text == json.dumps(_indented_document(lex), separators=(",", ":"))
        assert '"-0"' in text and '"0"' in text


class TestFormatCount:
    def test_each_distinct_entry_formatted_once(self, monkeypatch):
        counts = []
        original = lexicon._format_numbers

        def counting_format(values):
            counts.append(len(values))
            return original(values)

        monkeypatch.setattr(lexicon, "_format_numbers", counting_format)
        save(_seeded_lexicon(1.0), io.StringIO())
        # n(n+1)/2 per n-dim word, then r*c for the 3x5 verb table.
        assert counts == [1, 3, 6, 136, 153, 8256, 15]
        counts.clear()
        save(_awkward_lexicon(), io.StringIO())
        assert counts == [6, 6, 6, 21, 9]


class TestStoredOperatorsAreBitwiseSymmetric:
    """``save`` formats only the upper triangle, so each construction path
    must store a matrix whose bits equal its transpose's."""

    def test_every_path_stores_a_bitwise_symmetric_matrix(self):
        rng = np.random.default_rng(26)
        raw = _psd_input(rng, 5)
        skewed = raw.copy()
        skewed[2, 3] += 0.5 * SYMMETRY_TOL * abs(raw).max()
        assert np.signbit(raw[0, 1]) != np.signbit(raw[1, 0])
        assert not np.array_equal(skewed, skewed.T)
        public = DensityMatrix(raw)

        registry = SpaceRegistry().register("n", ("a", "b", "c")).register("s", ("t", "f", "u"))
        words = [
            WordMeaning.for_type(registry, "x", "n", DensityMatrix(_psd_input(rng, 3))),
            WordMeaning.for_type(registry, "v", "n^r s n^l", pure(rng.standard_normal(27))),
            WordMeaning.for_type(registry, "y", "n", pure(rng.standard_normal(3))),
        ]
        diagram = reduce([w.ptype for w in words], parse_type("s"))
        operators = {
            "constructor, -0.0 opposite 0.0": public,
            "constructor, skew within SYMMETRY_TOL": DensityMatrix(skewed),
            "_trusted": DensityMatrix._trusted(skewed),
            "normalized": public.normalized(),
            "scaled": public.scaled(1.0 / 3.0),
            "pure": pure(rng.standard_normal(6)),
            "mixture": mixture([0.3, 1.7], [public, DensityMatrix._trusted(skewed)]),
            "build_from_subsets": build_from_subsets(beer_records(), PUB_SPACE),
            "taxonomy_mix": taxonomy_mix([("lager", 1.0), ("beer", 2.0)], beer_lexicon()),
            "compose": compose(words, diagram, registry).dm,
            "compose_kronecker": compose_kronecker(
                rng.standard_normal((3, 3)), words[0].dm, DensityMatrix(_psd_input(rng, 3))
            ),
        }
        bits = {name: dm.matrix.view(np.uint64) for name, dm in operators.items()}
        assert [name for name, b in bits.items() if not np.array_equal(b, b.T)] == []


def _set(*keys):
    """A mutation that sets ``document[k0][k1]...[kn-1] = value``."""
    *route, last, value = keys

    def mutate(document):
        for key in route:
            document = document[key]
        document[last] = value

    return mutate


def _word(kind, data):
    return _set("words", "w", {"type": "n", "kind": kind, "data": data})


def _records(*records):
    return _word("subsets", {"records": list(records)})


def _verb(**fields):
    verb = {"subject_space": "n", "object_space": "n", "rows": [["1", "2"], ["3", "4"]]}
    return _set("verbs", "v", {**verb, **fields})


def _without(*route):
    def mutate(document):
        for key in route[:-1]:
            document = document[key]
        del document[route[-1]]

    return mutate


# One malformed document per structural rule of the format, each with a
# fragment of the path its error must carry.
SCHEMA_RULES = {
    "extra-top-level-key": (_set("extra", {}), "$"),
    "spaces-not-object": (_set("spaces", []), "$.spaces"),
    "verbs-not-object": (_set("verbs", None), "$.verbs"),
    "extra-space-key": (_set("spaces", "n", "extra", 1), "$.spaces.n"),
    "missing-labels": (_without("spaces", "n", "labels"), "$.spaces.n"),
    "dim-zero": (_set("spaces", "n", "dim", 0), "$.spaces.n.dim"),
    "dim-true": (_set("spaces", "n", "dim", True), "$.spaces.n.dim"),
    "dim-string": (_set("spaces", "n", "dim", "2"), "$.spaces.n.dim"),
    "dim-fraction": (_set("spaces", "n", "dim", 1.5), "$.spaces.n.dim"),
    "empty-labels": (_set("spaces", "n", "labels", []), "$.spaces.n.labels"),
    "label-not-string": (_set("spaces", "n", "labels", ["a", 2]), "$.spaces.n.labels[1]"),
    "word-not-object": (_set("words", "w", None), "$.words.w"),
    "extra-word-key": (_set("words", "w", "extra", 1), "$.words.w"),
    "missing-type": (_without("words", "w", "type"), "$.words.w"),
    "type-not-string": (_set("words", "w", "type", ["n"]), "$.words.w.type"),
    "kind-null": (_set("words", "w", "kind", None), "$.words.w.kind"),
    "data-not-object": (_set("words", "w", "data", []), "$.words.w.data"),
    "extra-data-key": (_set("words", "w", "data", "extra", []), "$.words.w.data"),
    "data-key-of-other-kind": (_word("pure", {"matrix": [["1"]]}), "$.words.w.data"),
    "empty-vector": (_word("pure", {"vector": []}), ".vector"),
    "number-literal": (_word("pure", {"vector": [1, "0"]}), "vector[0]"),
    "number-nan": (_word("pure", {"vector": ["nan", "0"]}), "vector[0]"),
    "number-inf": (_word("pure", {"vector": ["inf", "0"]}), "vector[0]"),
    "number-plus": (_word("pure", {"vector": ["+1", "0"]}), "vector[0]"),
    "number-underscore": (_word("pure", {"vector": ["1_0", "0"]}), "vector[0]"),
    "number-space": (_word("pure", {"vector": [" 1", "0"]}), "vector[0]"),
    "number-empty": (_word("pure", {"vector": ["", "0"]}), "vector[0]"),
    "number-final-newline": (_word("pure", {"vector": ["1\n", "0"]}), "vector[0]"),
    "number-arabic-indic-digit": (_word("pure", {"vector": ["\u0661", "0"]}), "vector[0]"),
    "empty-matrix": (_word("matrix", {"matrix": []}), ".matrix"),
    "empty-matrix-row": (_word("matrix", {"matrix": [[], ["0"]]}), "matrix[0]"),
    "matrix-literal": (_word("matrix", {"matrix": [["1", "0"], [0, "1"]]}), "matrix[1][0]"),
    "empty-records": (_word("subsets", {"records": []}), ".records"),
    "record-without-count": (_records({"features": ["a"]}), "records[0]"),
    "extra-record-key": (_records({"features": ["a"], "count": "1", "x": 1}), "records[0]"),
    "empty-features": (_records({"features": [], "count": "1"}), "records[0].features"),
    "feature-not-string": (_records({"features": [1], "count": "1"}), "features[0]"),
    "count-literal": (_records({"features": ["a"], "count": 1}), "records[0].count"),
    "verb-not-object": (_set("verbs", "v", []), "$.verbs.v"),
    "extra-verb-key": (_verb(extra=1), "$.verbs.v"),
    "subject-space-not-string": (_verb(subject_space=1), "$.verbs.v.subject_space"),
    "object-space-not-string": (_verb(object_space=None), "$.verbs.v.object_space"),
    "empty-rows": (_verb(rows=[]), "$.verbs.v.rows"),
    "empty-row": (_verb(rows=[[]]), "$.verbs.v.rows[0]"),
    "row-literal": (_verb(rows=[["1", "2"], [3, "4"]]), "$.verbs.v.rows[1][0]"),
    "row-nan": (_verb(rows=[["1", "2"], ["3", "nan"]]), "$.verbs.v.rows[1][1]"),
}


class TestSchemaErrors:
    def make(self, mutate):
        document = {
            "spaces": {"n": {"dim": 2, "labels": ["a", "b"]}},
            "words": {
                "w": {"type": "n", "kind": "pure", "data": {"vector": ["1", "0"]}}
            },
            "verbs": {},
        }
        mutate(document)
        return json.dumps(document)

    def expect_path(self, text, fragment):
        with pytest.raises(LexiconFormatError) as err:
            load(io.StringIO(text))
        assert fragment in str(err.value)

    def test_not_json(self):
        self.expect_path("{nope", "$")

    def test_not_utf8_path(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(LexiconFormatError, match=r"^\$: not UTF-8 text"):
            load(path)

    def test_nested_too_deeply(self):
        self.expect_path("[" * 100_000 + "]" * 100_000, "$: JSON nested too deeply")

    def test_not_utf8_file_object(self):
        handle = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{\x00}\x00"), encoding="utf-8")
        with pytest.raises(LexiconFormatError, match=r"^\$: not UTF-8 text"):
            load(handle)

    def test_missing_section(self):
        self.expect_path(self.make(lambda d: d.pop("verbs")), "$")

    def test_dim_label_mismatch(self):
        self.expect_path(self.make(lambda d: d["spaces"]["n"].__setitem__("dim", 3)), "$.spaces.n")

    def test_bad_number_string(self):
        self.expect_path(
            self.make(lambda d: d["words"]["w"]["data"]["vector"].__setitem__(0, "abc")),
            "$.words.w.data",
        )

    def test_bad_kind(self):
        self.expect_path(
            self.make(lambda d: d["words"]["w"].__setitem__("kind", "spooky")),
            "$.words.w",
        )

    def test_vector_length_mismatch(self):
        self.expect_path(
            self.make(lambda d: d["words"]["w"]["data"].__setitem__("vector", ["1"])),
            "$.words.w.data",
        )

    def test_word_type_unknown_space(self):
        self.expect_path(
            self.make(lambda d: d["words"]["w"].__setitem__("type", "q")),
            "$.words.w.type",
        )

    def test_infinite_entry_is_format_error(self):
        def mutate(d):
            d["words"]["w"] = {
                "type": "n",
                "kind": "matrix",
                "data": {"matrix": [["1e400", "0"], ["0", "1"]]},
            }

        with pytest.raises(LexiconFormatError, match="non-finite") as err:
            load(io.StringIO(self.make(mutate)))
        assert err.value.path == "$.words.w.data"

    def test_infinite_verb_entry_is_format_error(self):
        def mutate(d):
            d["verbs"]["v"] = {
                "subject_space": "n",
                "object_space": "n",
                "rows": [["1e400", "0"], ["0", "1"]],
            }

        with pytest.raises(LexiconFormatError, match="non-finite") as err:
            load(io.StringIO(self.make(mutate)))
        assert err.value.path == "$.verbs.v.rows"

    @pytest.mark.parametrize(
        "mutate, fragment", list(SCHEMA_RULES.values()), ids=list(SCHEMA_RULES)
    )
    def test_schema_rule(self, mutate, fragment):
        self.expect_path(self.make(mutate), fragment)

    def test_data_path_is_joined(self):
        mutate = _word("matrix", {"matrix": [["1", "0"], ["x", "1"]]})
        with pytest.raises(LexiconFormatError) as err:
            load(io.StringIO(self.make(mutate)))
        assert err.value.path == "$.words.w.data.matrix[1][0]"

    def test_matrix_word_must_be_psd(self):
        def mutate(d):
            d["words"]["w"] = {
                "type": "n",
                "kind": "matrix",
                "data": {"matrix": [["0", "1"], ["1", "0"]]},
            }

        self.expect_path(self.make(mutate), "$.words.w.data")

    def test_verb_unknown_space(self):
        def mutate(d):
            d["verbs"]["v"] = {
                "subject_space": "zzz",
                "object_space": "n",
                "rows": [["1", "2"]],
            }

        self.expect_path(self.make(mutate), "$.verbs.v")

    def test_ragged_verb_rows(self):
        def mutate(d):
            d["verbs"]["v"] = {
                "subject_space": "n",
                "object_space": "n",
                "rows": [["1", "2"], ["3"]],
            }

        self.expect_path(self.make(mutate), "$.verbs.v.rows")


# Entries that the joined one-pass check must send to the per-entry check.
BAD_NUMBERS = [1, None, True, "nan", "inf", "+1", " 1", "1\n", "1_0", "\u0661", "1,2", "", "1e", "."]


class TestNumberArrays:
    """A bad entry at index 5 of a 16-entry row gets the per-entry message and path."""

    def document(self, place, bad):
        row = ["0.5"] * 16
        row[5] = bad
        rows = [["0"] * 16 for _ in range(16)]
        rows[3] = row
        words, verbs = {}, {}
        if place == "matrix":
            words["w"] = {"type": "n", "kind": "matrix", "data": {"matrix": rows}}
        elif place == "verb":
            verbs["v"] = {"subject_space": "n", "object_space": "n", "rows": rows}
        else:
            words["w"] = {"type": "n", "kind": "pure", "data": {"vector": row}}
        labels = [f"f{i}" for i in range(16)]
        return json.dumps(
            {"spaces": {"n": {"dim": 16, "labels": labels}}, "words": words, "verbs": verbs}
        )

    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
    @pytest.mark.parametrize(
        "place, path",
        [
            ("matrix", "$.words.w.data.matrix[3][5]"),
            ("verb", "$.verbs.v.rows[3][5]"),
            ("vector", "$.words.w.data.vector[5]"),
        ],
    )
    def test_bad_entry_is_named(self, place, path, bad):
        with pytest.raises(LexiconFormatError) as err:
            load(io.StringIO(self.document(place, bad)))
        assert err.value.path == path
        assert str(err.value) == f"{path}: {bad!r} is not a decimal number string"

    def test_every_number_form_converts_exactly(self):
        forms = ["-0", "1.", ".5", "00012", "1e-300", "2.5E+3", "0.30000000000000004", "5e-324"]
        rows = [forms] + [["0"] * len(forms) for _ in forms[1:]]
        labels = [f"f{i}" for i in range(len(forms))]
        document = {
            "spaces": {"n": {"dim": len(forms), "labels": labels}},
            "words": {},
            "verbs": {"v": {"subject_space": "n", "object_space": "n", "rows": rows}},
        }
        first = load(io.StringIO(json.dumps(document))).verb_table("v").table[0]
        assert first.tolist() == [float(x) for x in forms]
        assert np.signbit(first[0])
