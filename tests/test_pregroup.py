"""Tests for type parsing and the contraction reducer.

The reducer's oracle is an exhaustive enumerator (tests/oracles.py): it
generates every non-crossing link structure over the positions (residuals
never trapped under an arc), then filters by the contraction rule and the
target, with no dynamic programming shared with the implementation.
"""

import pytest

from densem.errors import ShapeError, TypeParseError
from densem.pregroup import (
    PregroupType,
    ReductionDiagram,
    SimpleType,
    format_type,
    is_grammatical,
    parse_type,
    reduce,
)
from oracles import enumerate_valid_links as oracle_diagrams


def random_sequence(rng, max_len=8, atoms=("n", "s"), min_len=0):
    length = int(rng.integers(min_len, max_len + 1))
    return tuple(
        SimpleType(atoms[int(rng.integers(0, len(atoms)))], int(rng.integers(-1, 2)))
        for _ in range(length)
    )


class TestParse:
    def test_transitive_sentence_typing(self):
        ptype = parse_type("n n^r s n^l n")
        assert ptype.simples == (
            SimpleType("n", 0),
            SimpleType("n", 1),
            SimpleType("s", 0),
            SimpleType("n", -1),
            SimpleType("n", 0),
        )

    def test_empty_is_unit(self):
        assert parse_type("") == PregroupType(())
        assert parse_type("   ") == PregroupType(())

    def test_iterated_adjoint(self):
        assert parse_type("n^l^l").simples == (SimpleType("n", -2),)
        assert parse_type("s^r^r^r").simples == (SimpleType("s", 3),)

    def test_roundtrip(self):
        for text in ["n n^r s n^l n", "", "n^l^l", "s", "noun_2^r s"]:
            assert format_type(parse_type(text)) == " ".join(text.split())

    def test_parse_error_reports_position(self):
        with pytest.raises(TypeParseError) as err:
            parse_type("n n^x")
        assert err.value.position == 3
        with pytest.raises(TypeParseError):
            parse_type("n ^l")
        with pytest.raises(TypeParseError):
            parse_type("n n^")

    def test_each_string_parsed_once(self):
        parse_type.cache_clear()
        first = parse_type("n^r s n^l")
        assert parse_type("n^r s n^l") is first
        assert parse_type("n^r s") == PregroupType((SimpleType("n", 1), SimpleType("s")))
        info = parse_type.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    def test_parse_errors_are_not_cached(self):
        parse_type.cache_clear()
        for _ in range(2):
            with pytest.raises(TypeParseError) as err:
                parse_type("n n^x")
            assert err.value.position == 3
        info = parse_type.cache_info()
        assert (info.hits, info.currsize) == (0, 0)


class TestReduce:
    def test_transitive_sentence(self):
        seq = [parse_type("n"), parse_type("n^r s n^l"), parse_type("n")]
        diagram = reduce(seq, parse_type("s"))
        assert diagram is not None
        assert diagram.links == ((0, 1), (3, 4))
        assert diagram.residuals == (2,)

    def test_single_noun_identity(self):
        diagram = reduce([parse_type("n")], parse_type("n"))
        assert diagram.links == ()
        assert diagram.residuals == (0,)

    def test_no_reduction(self):
        assert reduce([parse_type("n"), parse_type("n")], parse_type("s")) is None

    def test_intransitive(self):
        diagram = reduce([parse_type("n"), parse_type("n^r s")], parse_type("s"))
        assert diagram.links == ((0, 1),)
        assert diagram.residuals == (2,)

    def test_is_grammatical(self):
        assert is_grammatical([parse_type("n"), parse_type("n^r s n^l"), parse_type("n")])
        assert not is_grammatical([parse_type("n"), parse_type("n")])
        assert is_grammatical([parse_type("n"), parse_type("n^r s")])

    def test_adjective_noun(self):
        diagram = reduce([parse_type("n n^l"), parse_type("n")], parse_type("n"))
        assert diagram.links == ((1, 2),)
        assert diagram.residuals == (0,)

    def test_iterated_adjoint_contraction(self):
        seq = [parse_type("n^l^l n^l")]
        diagram = reduce(seq, PregroupType(()))
        assert diagram.links == ((0, 1),)

    def test_deterministic_and_lexicographically_least(self):
        # Both {(0, 1)} and {(2, 3)} are valid witnesses here.
        seq = [parse_type("n^l n n^l n")]
        first = reduce(seq, parse_type("n^l n"))
        second = reduce(seq, parse_type("n^l n"))
        assert first == second
        assert first.links == ((0, 1),)
        assert first.residuals == (2, 3)

    def test_matches_oracle_on_random_sequences(self):
        import numpy as np

        rng = np.random.default_rng(101)
        targets = [
            PregroupType(()),
            parse_type("n"),
            parse_type("s"),
            parse_type("n^r"),
            parse_type("n s"),
            parse_type("s n^l"),
        ]
        draws = [random_sequence(rng, max_len=8) for _ in range(150)]
        # Longer draws over one atom, so that some reduce (9 draw-target pairs).
        draws += [
            random_sequence(rng, max_len=10, atoms=("n",), min_len=9) for _ in range(200)
        ]
        for simples in draws:
            seq = [PregroupType(simples)]
            for target in targets:
                valid = oracle_diagrams(simples, target)
                got = reduce(seq, target)
                if not valid:
                    assert got is None
                else:
                    assert got is not None
                    assert got.links in valid
                    assert got.links == min(valid)

    def test_adjective_chain(self):
        # 14 "n n^l" adjectives before a noun: each n^l takes the next n.
        seq = [parse_type("n n^l")] * 14 + [parse_type("n")]
        diagram = reduce(seq, parse_type("n"))
        assert diagram.links == tuple((p, p + 1) for p in range(1, 28, 2))
        assert diagram.residuals == (0,)

    def test_past_the_search_depth_is_a_shape_error(self):
        seq = [parse_type("n")] * 2000
        with pytest.raises(ShapeError, match="too long"):
            reduce(seq, parse_type(" ".join(["n"] * 2000)))


class TestDiagramValidation:
    def test_crossing_links_rejected(self):
        source = parse_type("n n n^r n^r")
        diagram = ReductionDiagram(
            source=source,
            links=((0, 2), (1, 3)),
            residuals=(),
            target=PregroupType(()),
        )
        with pytest.raises(ShapeError, match="cross"):
            diagram.validate()

    def test_wrong_contraction_rejected(self):
        source = parse_type("n^r n")
        diagram = ReductionDiagram(
            source=source,
            links=((0, 1),),
            residuals=(),
            target=PregroupType(()),
        )
        with pytest.raises(ShapeError, match="non-contractible"):
            diagram.validate()

    def test_residual_under_link_rejected(self):
        source = parse_type("n s n^r")
        diagram = ReductionDiagram(
            source=source,
            links=((0, 2),),
            residuals=(1,),
            target=parse_type("s"),
        )
        with pytest.raises(ShapeError, match="spans a residual"):
            diagram.validate()

    def test_residual_target_mismatch_rejected(self):
        source = parse_type("n s")
        diagram = ReductionDiagram(
            source=source,
            links=(),
            residuals=(0, 1),
            target=parse_type("s n"),
        )
        with pytest.raises(ShapeError, match="target"):
            diagram.validate()

    def test_returned_diagrams_always_validate(self):
        import numpy as np

        rng = np.random.default_rng(103)
        count = 0
        for _ in range(300):
            simples = random_sequence(rng, max_len=8)
            target = PregroupType(simples[:1])
            diagram = reduce([PregroupType(simples)], target)
            if diagram is not None:
                diagram.validate()
                count += 1
        assert count > 10
