"""Self-contained worked examples with their expected values.

Each case builds its own data in memory (no files), runs the real
pipeline, and reports named checks.  Hard checks gate the case; soft
checks are windows we report on either way, used where the published
figure and the documented convention land close but not inside rounding
distance (the full story lives in the case notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compose import SpaceRegistry, WordMeaning, compose, compose_kronecker
from .density import (
    DensityMatrix,
    classify,
    fidelity,
    mixture,
    pure,
    relative_entropy,
    representativeness,
)
from .lexicon import Lexicon, SubsetRecord, build_from_subsets
from .pregroup import parse_type, reduce


@dataclass(frozen=True)
class Check:
    """A single named comparison inside a repro case."""

    name: str
    got: float
    expected: float
    tol: float = 0.0
    mode: str = "abs"  # "abs": |got - expected| <= tol; "gt": got > expected
    hard: bool = True

    @property
    def passed(self) -> bool:
        if self.mode == "gt":
            return self.got > self.expected
        return abs(self.got - self.expected) <= self.tol


@dataclass
class CaseResult:
    case_id: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.hard)

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "got": c.got,
                    "expected": c.expected,
                    "tol": c.tol,
                    "mode": c.mode,
                    "hard": c.hard,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
        }


def _truth_world(sentence_labels, nouns, verb_triples):
    """Registry, transitive diagram, and word builders for toy truth models."""
    registry = SpaceRegistry()
    registry.register("n", nouns)
    registry.register("s", sentence_labels)
    dn, ds = registry.dim("n"), registry.dim("s")
    vec = np.zeros(dn * ds * dn)
    for i, amplitudes, k in verb_triples:
        for j, amp in enumerate(amplitudes):
            vec[i * ds * dn + j * dn + k] += amp
    verb = WordMeaning.for_type(registry, "eat", "n^r s n^l", pure(vec))
    diagram = reduce(
        [parse_type("n"), parse_type("n^r s n^l"), parse_type("n")], parse_type("s")
    )

    def noun(name):
        v = np.zeros(dn)
        v[nouns.index(name)] = 1.0
        return WordMeaning.for_type(registry, name, "n", pure(v))

    def sentence(subject):
        return compose([subject, verb, noun("meat")], diagram, registry).dm

    return registry, noun, sentence


def case_lions_mammals() -> CaseResult:
    lions = pure([1.0, 0.0])
    sloths = pure([0.0, 1.0])
    mammals = mixture([0.5, 0.5], [lions, sloths])
    result = CaseResult("lions-mammals")
    result.checks.append(
        Check("R(lions, mammals)", representativeness(lions, mammals), 0.5, 1e-9)
    )
    result.checks.append(
        Check("R(mammals, lions)", representativeness(mammals, lions), 0.0, 0.0)
    )
    return result


def case_truth_1d() -> CaseResult:
    _, noun, sentence = _truth_world(
        ["true"],
        ("lions", "sloths", "meat", "plants"),
        [(0, [1.0], 2), (1, [1.0], 3)],
    )
    lions, sloths = noun("lions"), noun("sloths")
    mammals = WordMeaning(
        "mammals", lions.ptype, mixture([0.5, 0.5], [lions.dm, sloths.dm]), lions.wire_dims
    )
    result = CaseResult("truth-1d")
    for name, subject, expected in [
        ("lions eat meat", lions, 1.0),
        ("sloths eat meat", sloths, 0.0),
        ("mammals eat meat", mammals, 0.5),
    ]:
        result.checks.append(
            Check(name, float(sentence(subject).matrix[0, 0]), expected, 1e-9)
        )
    return result


def case_truth_2d() -> CaseResult:
    _, noun, sentence = _truth_world(
        ["true", "false"],
        ("lions", "sloths", "meat", "plants"),
        [
            (0, [1.0, 0.0], 2),
            (0, [0.0, 1.0], 3),
            (1, [0.0, 1.0], 2),
            (1, [1.0, 0.0], 3),
        ],
    )
    lions, sloths = noun("lions"), noun("sloths")
    mammals = WordMeaning(
        "mammals", lions.ptype, mixture([0.5, 0.5], [lions.dm, sloths.dm]), lions.wire_dims
    )
    result = CaseResult("truth-2d")
    lions_sent = sentence(lions)
    sloths_sent = sentence(sloths)
    mammals_sent = sentence(mammals)
    for name, got, expected in [
        ("lions sentence", lions_sent.matrix, np.diag([1.0, 0.0])),
        ("sloths sentence", sloths_sent.matrix, np.diag([0.0, 1.0])),
        ("mammals sentence", mammals_sent.matrix, np.diag([0.5, 0.5])),
    ]:
        result.checks.append(
            Check(f"{name} entrywise", float(np.max(np.abs(got - expected))), 0.0, 1e-9)
        )
    result.checks.append(
        Check(
            "R(lions sentence, mammals sentence)",
            representativeness(lions_sent, mammals_sent),
            0.5,
            1e-9,
        )
    )
    result.checks.append(
        Check(
            "R(mammals sentence, lions sentence)",
            representativeness(mammals_sent, lions_sent),
            0.0,
            0.0,
        )
    )
    return result


def case_dogs_2d() -> CaseResult:
    # The half-true amplitudes are taken literally (1/2 each), so the
    # sentence state is rank one with trace 1/2.
    _, noun, sentence = _truth_world(
        ["true", "false"],
        ("lions", "dogs", "meat", "plants"),
        [
            (0, [1.0, 0.0], 2),
            (0, [0.0, 1.0], 3),
            (1, [0.5, 0.5], 2),
            (1, [0.5, 0.5], 3),
        ],
    )
    dogs_sent = sentence(noun("dogs"))
    result = CaseResult("dogs-2d")
    result.checks.append(
        Check(
            "dogs sentence entrywise",
            float(np.max(np.abs(dogs_sent.matrix - np.full((2, 2), 0.25)))),
            0.0,
            1e-9,
        )
    )
    result.checks.append(Check("dogs sentence trace", dogs_sent.trace, 0.5, 1e-9))
    result.notes.append(
        "With literal 1/2 amplitudes for 'half true, half false' the sentence "
        "state is unnormalized (trace 1/2); see mammals-again for the "
        "unit-amplitude variant."
    )
    return result


# Frozen from the closed-form 2x2 spectral oracle: eigenvalues of the
# three-quarter operator are (1 +/- sqrt(1/2)) / 2.
_MIX_EIG_HI = (1.0 + math.sqrt(0.5)) / 2.0
_MIX_EIG_LO = (1.0 - math.sqrt(0.5)) / 2.0
_N2_TRUE = -(_MIX_EIG_HI * math.log2(_MIX_EIG_HI) + _MIX_EIG_LO * math.log2(_MIX_EIG_LO))
_N2_FALSE = -(_MIX_EIG_LO * math.log2(_MIX_EIG_HI) + _MIX_EIG_HI * math.log2(_MIX_EIG_LO))


def case_mammals_again() -> CaseResult:
    # Unit-norm half-true amplitude: this is the convention under which the
    # published 3/4-1/4 mixture operator comes out.
    amp = 1.0 / math.sqrt(2.0)
    _, noun, sentence = _truth_world(
        ["true", "false"],
        ("lions", "dogs", "meat", "plants"),
        [
            (0, [1.0, 0.0], 2),
            (0, [0.0, 1.0], 3),
            (1, [amp, amp], 2),
            (1, [amp, amp], 3),
        ],
    )
    lions, dogs = noun("lions"), noun("dogs")
    mammals = WordMeaning(
        "mammals", lions.ptype, mixture([0.5, 0.5], [lions.dm, dogs.dm]), lions.wire_dims
    )
    rho = sentence(mammals)
    true_state = DensityMatrix(np.diag([1.0, 0.0]))
    false_state = DensityMatrix(np.diag([0.0, 1.0]))

    result = CaseResult("mammals-again")
    expected_matrix = np.array([[0.75, 0.25], [0.25, 0.25]])
    result.checks.append(
        Check(
            "mammals sentence entrywise",
            float(np.max(np.abs(rho.matrix - expected_matrix))),
            0.0,
            1e-9,
        )
    )
    f_true = fidelity(true_state, rho)
    f_false = fidelity(false_state, rho)
    result.checks.append(Check("F^2(true, sentence)", f_true**2, 0.75, 1e-9))
    result.checks.append(Check("F^2(false, sentence)", f_false**2, 0.25, 1e-9))
    result.checks.append(Check("F(true, sentence)", f_true, math.sqrt(0.75), 1e-9))
    result.checks.append(Check("F(false, sentence)", f_false, math.sqrt(0.25), 1e-9))

    result.checks.append(
        Check(
            "N(true, sentence) base 2",
            relative_entropy(true_state, rho),
            _N2_TRUE,
            1e-6,
        )
    )
    result.checks.append(
        Check(
            "N(false, sentence) base 2",
            relative_entropy(false_state, rho),
            _N2_FALSE,
            1e-6,
        )
    )
    result.checks.append(
        Check(
            "R(true, sentence) base 2",
            representativeness(true_state, rho),
            1.0 / (1.0 + _N2_TRUE),
            1e-6,
        )
    )
    result.checks.append(
        Check(
            "R(false, sentence) base 2",
            representativeness(false_state, rho),
            1.0 / (1.0 + _N2_FALSE),
            1e-6,
        )
    )
    result.checks.append(
        Check(
            "N(true, sentence) base e",
            relative_entropy(true_state, rho, base=math.e),
            0.41,
            0.01,
        )
    )
    result.checks.append(
        Check(
            "R(true, sentence) base e",
            representativeness(true_state, rho, base=math.e),
            0.71,
            0.01,
        )
    )
    result.notes.append(
        "The 3/4 and 1/4 similarity figures omit the square root in the "
        "fidelity definition, so they are F^2; F itself is sqrt(3)/2 and "
        "1/2. Both forms are reported above."
    )
    result.notes.append(
        "Divergences here are base-dependent: base-2 values are "
        f"{_N2_TRUE:.4f}/{_N2_FALSE:.4f} (R {1/(1+_N2_TRUE):.4f}/{1/(1+_N2_FALSE):.4f}); "
        f"natural-log values are {_N2_TRUE*math.log(2):.4f}/{_N2_FALSE*math.log(2):.4f} "
        f"(R {1/(1+_N2_TRUE*math.log(2)):.4f}/{1/(1+_N2_FALSE*math.log(2)):.4f}). "
        "The figures 0.41 and 0.71 match the natural log; the companion "
        "quotes of roughly 2 and 0.33 for the false direction match neither "
        "base exactly and are reported as approximations only."
    )
    result.notes.append(
        "The published 3/4 mixture requires the half-true vector at unit "
        "norm; with the literal 1/2 amplitudes of the dogs-2d case the "
        "mixture would be [[5/8, 1/8], [1/8, 1/8]] instead."
    )
    return result


def _beer_lexicon() -> Lexicon:
    labels = ("pub", "pitcher", "tonic")
    registry = SpaceRegistry().register("n", labels)
    lex = Lexicon(registry)
    lex.add_word(WordMeaning.for_type(registry, "lager", "n", pure([6.0, 5.0, 0.0])))
    lex.add_word(WordMeaning.for_type(registry, "ale", "n", pure([7.0, 3.0, 0.0])))
    records = [
        SubsetRecord("beer", frozenset({"pub"}), 6.0),
        SubsetRecord("beer", frozenset({"pub", "pitcher"}), 7.0),
    ]
    lex.add_word(
        WordMeaning.for_type(registry, "beer", "n", build_from_subsets(records, labels))
    )
    return lex


def case_beer_lager() -> CaseResult:
    lex = _beer_lexicon()
    lager, beer = lex.word("lager").dm, lex.word("beer").dm
    result = CaseResult("beer-lager")
    result.checks.append(
        Check(
            "beer matrix entrywise",
            float(
                np.max(
                    np.abs(beer.matrix - np.array([[13.0, 7, 0], [7, 7, 0], [0, 0, 0]]))
                )
            ),
            0.0,
            1e-12,
        )
    )
    result.checks.append(Check("F(lager, beer)", fidelity(lager, beer), 0.93, 0.005))
    result.checks.append(
        Check("R(lager, beer)", representativeness(lager, beer), 0.82, 0.005)
    )
    result.checks.append(
        Check("R(beer, lager)", representativeness(beer, lager), 0.0, 0.0)
    )
    verdict = classify(lager, beer)
    result.checks.append(
        Check("lager is a strict hyponym of beer", 1.0 if verdict.relation.value == "hyponym" else 0.0, 1.0, 0.0)
    )
    return result


_PEOPLE_LABELS = ("patient", "mental", "surgery")
_DRINK_TABLE = np.array([[4.0, 5.0, 3.0], [6.0, 3.0, 2.0], [1.0, 2.0, 1.0]])

# Diagonal-operator oracles: fidelity is sum sqrt(p q); divergence is the
# classical relative entropy of the eigenvalue profiles.
_F_PD = 2.0 * math.sqrt(1.0 / 7.0)
_N_PD = (2 / 7) * math.log2((2 / 7) / 0.5) + (5 / 7) * math.log2((5 / 7) / 0.2)


def _people() -> tuple[DensityMatrix, DensityMatrix]:
    psychiatrist = mixture(
        [2.0, 5.0], [pure([1.0, 0, 0]), pure([0.0, 1, 0])]
    )
    doctor = mixture(
        [5.0, 2.0, 3.0], [pure([1.0, 0, 0]), pure([0.0, 1, 0]), pure([0.0, 0, 1])]
    )
    return psychiatrist, doctor


def case_psychiatrist_doctor() -> CaseResult:
    psychiatrist, doctor = _people()
    result = CaseResult("psychiatrist-doctor")
    f = fidelity(psychiatrist, doctor)
    result.checks.append(Check("F(psychiatrist, doctor) vs diagonal oracle", f, _F_PD, 1e-9))
    result.checks.append(Check("F(psychiatrist, doctor) rounded", f, 0.76, 0.005))
    r = representativeness(psychiatrist, doctor)
    result.checks.append(
        Check("R(psychiatrist, doctor) vs diagonal oracle", r, 1.0 / (1.0 + _N_PD), 1e-9)
    )
    result.checks.append(
        Check("R(psychiatrist, doctor) published window", r, 0.49, 0.005, hard=False)
    )
    result.checks.append(
        Check("R(doctor, psychiatrist)", representativeness(doctor, psychiatrist), 0.0, 0.0)
    )
    result.notes.append(
        "The exact score is 1/(1 + (2/7) log2(4/7) + (5/7) log2(25/7)) = "
        f"{1.0 / (1.0 + _N_PD):.7f}, which rounds to 0.48; the published 0.49 "
        "sits outside every convention we evaluated (log base 2, e, and 10; "
        "normalized and raw traces) and is reported as a non-gating window. "
        "The same measure reaches the published figure only if psychiatrist's "
        "distribution is first rounded to one decimal, (0.3, 0.7, 0): that "
        "input scores 0.4892, which rounds to 0.49 and is the likely source "
        "of the figure."
    )
    return result


# Frozen from an independent spectral computation (scipy sqrtm/eigh) of the
# normalized sentence operators under the documented convention.
_SENT_F = 0.8517340478908533
_SENT_R = 0.5882834945505457


def case_drinking_sentences() -> CaseResult:
    psychiatrist, doctor = _people()
    lager = pure([6.0, 5.0, 0.0])
    beer = DensityMatrix([[13.0, 7, 0], [7, 7, 0], [0, 0, 0]])
    first = compose_kronecker(_DRINK_TABLE, psychiatrist, lager)
    second = compose_kronecker(_DRINK_TABLE, doctor, beer)
    f = fidelity(first, second)
    r_fwd = representativeness(first, second)
    r_bwd = representativeness(second, first)

    result = CaseResult("drinking-sentences")
    result.checks.append(Check("R(second, first) exactly zero", r_bwd, 0.0, 0.0))
    result.checks.append(Check("R(first, second) > R(second, first)", r_fwd, r_bwd, mode="gt"))
    result.checks.append(
        Check("F vs independent spectral computation", f, _SENT_F, 1e-8)
    )
    result.checks.append(
        Check("R vs independent spectral computation", r_fwd, _SENT_R, 1e-8)
    )
    result.checks.append(Check("F published window", f, 0.81, 0.03, hard=False))
    result.checks.append(Check("R published window", r_fwd, 0.53, 0.03, hard=False))
    result.notes.append(
        f"Achieved values: F = {f:.4f}, forward R = {r_fwd:.4f}, backward R = "
        f"{r_bwd:.4f}."
    )
    result.notes.append(
        "Convention: verb table flattened subject-major into a pure state, "
        "entrywise product with subject (x) object, sentence operators "
        "normalized before measuring. Word-level scaling washes out under "
        "this convention, and no variant we evaluated (raw traces, "
        "unnormalized sentences, transposed flattening, natural-log "
        "divergence) lands inside the published rounding windows; the "
        "directional facts (forward entailment positive, backward zero) "
        "hold regardless."
    )
    return result


CASES = {
    "lions-mammals": case_lions_mammals,
    "truth-1d": case_truth_1d,
    "truth-2d": case_truth_2d,
    "dogs-2d": case_dogs_2d,
    "mammals-again": case_mammals_again,
    "beer-lager": case_beer_lager,
    "psychiatrist-doctor": case_psychiatrist_doctor,
    "drinking-sentences": case_drinking_sentences,
}


def run_case(case_id: str) -> CaseResult:
    try:
        builder = CASES[case_id]
    except KeyError:
        raise KeyError(
            f"unknown case {case_id!r}; available: {', '.join(CASES)}"
        ) from None
    return builder()


def run_all() -> list[CaseResult]:
    return [run_case(case_id) for case_id in CASES]
