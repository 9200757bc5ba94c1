"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Property suites run 1000 seeded instances each
(dimension at most 4) and permit zero failures; the reducer comparison
runs 500 seeded instances against exhaustive enumeration.

Criterion 6 note: the forward score for the psychiatrist/doctor pair is
exactly 1/(1 + (2/7) log2(4/7) + (5/7) log2(25/7)) = 0.4805119..., which
rounds to 0.48.  The published figure is 0.49, which no convention we
evaluated reaches from these inputs (log base 2: 0.4805, base e: 0.5716,
base 10: 0.7545, raw traces: 0.2014).  The same measure gives 0.4892,
which rounds to 0.49, when psychiatrist's distribution is first rounded to
one decimal, (0.3, 0.7, 0); that is the likely source of the figure.  The
test therefore gates the exact input on its closed form (to 1e-9) and on
0.48 +/- 0.005, gates the one-decimal input on 0.49 +/- 0.005, and reports
the exact input's miss on the 0.49 window without gating on it, as the
``psychiatrist-doctor`` repro case does.
"""

import math

import numpy as np

from densem.compose import (
    SpaceRegistry,
    WordMeaning,
    compose,
    compose_kronecker,
)
from densem.density import (
    DensityMatrix,
    fidelity,
    mixture,
    pure,
    relative_entropy,
    representativeness,
    supp_leq,
)
from densem.lexicon import SubsetRecord, build_from_subsets
from densem.pregroup import PregroupType, SimpleType, parse_type, reduce
from densem.repro import run_case
from densem.spectral import eigh
from oracles import (
    brute_contract,
    link_structures,
    relent2_pure_oracle,
    support_projector_oracle,
)


def _report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def random_mixture_dm(rng, dim, rank=None):
    rank = rank or int(rng.integers(1, dim + 1))
    vecs = [rng.standard_normal(dim) for _ in range(rank)]
    weights = rng.uniform(0.2, 2.0, size=rank)
    return mixture(weights, [pure(v) for v in vecs])


def included_pair(rng, dim):
    """(rho, sigma) with supp(rho) inside supp(sigma), by construction."""
    sigma = random_mixture_dm(rng, dim)
    p = support_projector_oracle(sigma.matrix)
    while True:
        m = random_mixture_dm(rng, dim, rank=dim).matrix
        inner = p @ m @ p
        if np.trace(inner) > 1e-9:
            return DensityMatrix._trusted(inner), sigma


def transitive_world(dn, ds):
    registry = SpaceRegistry()
    registry.register("n", [f"n{i}" for i in range(dn)])
    registry.register("s", [f"s{i}" for i in range(ds)])
    return registry


def lift(registry, name, type_text, dm):
    return WordMeaning.for_type(registry, name, type_text, dm)


def transitive_diagram():
    return reduce(
        [parse_type("n"), parse_type("n^r s n^l"), parse_type("n")], parse_type("s")
    )


# --- worked-example criteria -------------------------------------------------


def test_criterion_1_noun_entailment():
    lions = pure([1.0, 0.0])
    mammals = mixture([0.5, 0.5], [lions, pure([0.0, 1.0])])
    forward = representativeness(lions, mammals)
    backward = representativeness(mammals, lions)
    ok = abs(forward - 0.5) <= 1e-9 and backward == 0.0
    _report(1, "noun entailment scores", ok, f"fwd={forward:.12f} bwd={backward}")
    assert abs(forward - 0.5) <= 1e-9
    assert backward == 0.0


def _truth_case(case_id, names):
    result = run_case(case_id)
    checks = {c.name: c for c in result.checks}
    return result, [checks[n] for n in names]


def test_criterion_2_one_dimensional_sentences():
    result, checks = _truth_case(
        "truth-1d", ["lions eat meat", "sloths eat meat", "mammals eat meat"]
    )
    ok = all(abs(c.got - c.expected) <= 1e-9 for c in checks)
    _report(2, "1-D sentence scalars", ok, " ".join(f"{c.got:.10f}" for c in checks))
    for check in checks:
        assert abs(check.got - check.expected) <= 1e-9


def test_criterion_3_two_dimensional_sentences():
    result, checks = _truth_case(
        "truth-2d",
        [
            "lions sentence entrywise",
            "sloths sentence entrywise",
            "mammals sentence entrywise",
            "R(lions sentence, mammals sentence)",
            "R(mammals sentence, lions sentence)",
        ],
    )
    entrywise_ok = all(c.got <= 1e-9 for c in checks[:3])
    r_ok = abs(checks[3].got - 0.5) <= 1e-9 and checks[4].got == 0.0
    _report(3, "2-D sentence operators and scores", entrywise_ok and r_ok)
    for check in checks[:3]:
        assert check.got <= 1e-9
    assert abs(checks[3].got - 0.5) <= 1e-9
    assert checks[4].got == 0.0


def test_criterion_4_correlated_mixture_sentence():
    amp = 1.0 / math.sqrt(2.0)
    registry = SpaceRegistry()
    registry.register("n", ["lions", "dogs", "meat", "plants"])
    registry.register("s", ["true", "false"])
    vec = np.zeros(4 * 2 * 4)
    for i, amps, k in [
        (0, [1.0, 0.0], 2),
        (0, [0.0, 1.0], 3),
        (1, [amp, amp], 2),
        (1, [amp, amp], 3),
    ]:
        for j, a in enumerate(amps):
            vec[i * 8 + j * 4 + k] += a
    eat = lift(registry, "eat", "n^r s n^l", pure(vec))
    lions = lift(registry, "lions", "n", pure([1.0, 0, 0, 0]))
    dogs = lift(registry, "dogs", "n", pure([0.0, 1, 0, 0]))
    meat = lift(registry, "meat", "n", pure([0.0, 0, 1, 0]))
    mammals = lift(registry, "mammals", "n", mixture([0.5, 0.5], [lions.dm, dogs.dm]))
    rho = compose([mammals, eat, meat], transitive_diagram(), registry).dm

    expected = np.array([[0.75, 0.25], [0.25, 0.25]])
    matrix_ok = np.max(np.abs(rho.matrix - expected)) <= 1e-9

    true_state = DensityMatrix(np.diag([1.0, 0.0]))
    false_state = DensityMatrix(np.diag([0.0, 1.0]))
    f_true = fidelity(true_state, rho)
    f_false = fidelity(false_state, rho)
    f_ok = (
        abs(f_true**2 - 0.75) <= 1e-9
        and abs(f_false**2 - 0.25) <= 1e-9
        and abs(f_true - math.sqrt(0.75)) <= 1e-9
        and abs(f_false - math.sqrt(0.25)) <= 1e-9
    )

    oracle_true = relent2_pure_oracle(0, expected)
    oracle_false = relent2_pure_oracle(1, expected)
    n_true = relative_entropy(true_state, rho)
    n_false = relative_entropy(false_state, rho)
    entropy_ok = abs(n_true - oracle_true) <= 1e-6 and abs(n_false - oracle_false) <= 1e-6

    n_true_e = relative_entropy(true_state, rho, base=math.e)
    r_true_e = representativeness(true_state, rho, base=math.e)
    natural_ok = abs(n_true_e - 0.41) <= 0.01 and abs(r_true_e - 0.71) <= 0.01

    ok = matrix_ok and f_ok and entropy_ok and natural_ok
    _report(
        4,
        "correlated mixture sentence",
        ok,
        f"N2={n_true:.6f}/{n_false:.6f} Ne={n_true_e:.4f} Re={r_true_e:.4f}",
    )
    assert matrix_ok
    assert f_ok
    assert entropy_ok
    assert natural_ok


def test_criterion_5_corpus_word_pair():
    labels = ("pub", "pitcher", "tonic")
    lager = pure([6.0, 5.0, 0.0])
    beer = build_from_subsets(
        [
            SubsetRecord("beer", frozenset({"pub"}), 6.0),
            SubsetRecord("beer", frozenset({"pub", "pitcher"}), 7.0),
        ],
        labels,
    )
    f = fidelity(lager, beer)
    forward = representativeness(lager, beer)
    backward = representativeness(beer, lager)
    ok = abs(f - 0.93) <= 0.005 and abs(forward - 0.82) <= 0.005 and backward == 0.0
    _report(5, "lager/beer measures", ok, f"F={f:.4f} R={forward:.4f}")
    assert abs(f - 0.93) <= 0.005
    assert abs(forward - 0.82) <= 0.005
    assert backward == 0.0


def test_criterion_6_mixed_word_pair():
    patient, mental, surgery = pure([1.0, 0, 0]), pure([0.0, 1, 0]), pure([0.0, 0, 1])
    psychiatrist = mixture([2.0, 5.0], [patient, mental])
    doctor = mixture([5.0, 2.0, 3.0], [patient, mental, surgery])
    f = fidelity(psychiatrist, doctor)
    forward = representativeness(psychiatrist, doctor)
    backward = representativeness(doctor, psychiatrist)
    # Closed forms from the normalized diagonals (2/7, 5/7, 0) and (1/2, 1/5, 3/10).
    f_exact = 2.0 * math.sqrt(1.0 / 7.0)
    r_exact = 1.0 / (
        1.0 + (2 / 7) * math.log2((2 / 7) / 0.5) + (5 / 7) * math.log2((5 / 7) / 0.2)
    )
    rounded = representativeness(mixture([0.3, 0.7], [patient, mental]), doctor)

    f_ok = abs(f - f_exact) <= 1e-9 and abs(f - 0.76) <= 0.005
    r_ok = abs(forward - r_exact) <= 1e-9 and abs(forward - 0.48) <= 0.005
    b_ok = backward == 0.0
    rounded_ok = abs(rounded - 0.49) <= 0.005
    published_hit = abs(forward - 0.49) <= 0.005

    case = run_case("psychiatrist-doctor")
    window = {c.name: c for c in case.checks}["R(psychiatrist, doctor) published window"]
    case_ok = (
        case.passed
        and not window.hard
        and (window.expected, window.tol) == (0.49, 0.005)
        and any("one decimal" in note for note in case.notes)
    )
    _report(
        6,
        "psychiatrist/doctor measures",
        f_ok and r_ok and b_ok and rounded_ok and case_ok,
        f"F={f:.4f} R={forward:.7f} (exact 1/(1+(2/7)log2(4/7)+(5/7)log2(25/7))); "
        f"0.49 window {'inside' if published_hit else 'missed, reported'}; "
        f"one-decimal input (0.3, 0.7, 0) R={rounded:.4f}",
    )
    assert f_ok, f"F = {f!r}, closed form {f_exact!r}"
    assert r_ok, f"R = {forward!r}, closed form {r_exact!r}"
    assert b_ok
    assert rounded_ok, f"one-decimal input scores {rounded!r}, outside 0.49 +/- 0.005"
    assert case_ok


def test_criterion_7_sentence_pair_with_convention_report():
    result = run_case("drinking-sentences")
    checks = {c.name: c for c in result.checks}
    backward_zero = checks["R(second, first) exactly zero"]
    ordering = checks["R(first, second) > R(second, first)"]
    f_window = checks["F published window"]
    r_window = checks["R published window"]

    hard_ok = backward_zero.passed and ordering.passed
    windows_ok = f_window.passed and r_window.passed
    reported = any("Achieved values" in n for n in result.notes) and any(
        "Convention" in n for n in result.notes
    )
    ok = hard_ok and (windows_ok or reported)
    detail = (
        f"F={f_window.got:.4f} R={r_window.got:.4f} "
        + ("inside windows" if windows_ok else "windows missed, convention reported")
    )
    _report(7, "drinking sentences", ok, detail)
    assert hard_ok
    assert windows_ok or reported


# --- property suites (criterion 8) ------------------------------------------

N_INSTANCES = 1000


def test_criterion_8a_klein_inequality():
    rng = np.random.default_rng(801)
    failures = 0
    for _ in range(N_INSTANCES):
        dim = int(rng.integers(1, 5))
        a = random_mixture_dm(rng, dim)
        b = random_mixture_dm(rng, dim)
        n = relative_entropy(a, b)
        if not (n >= 0.0 or math.isinf(n)):
            failures += 1
        if relative_entropy(a, a) > 1e-9:
            failures += 1
        an, bn = a.normalized(), b.normalized()
        if np.max(np.abs(an.matrix - bn.matrix)) > 1e-6 and not (
            math.isinf(n) or n > 0.0
        ):
            failures += 1
    _report(8, "property: Klein inequality", failures == 0, f"{N_INSTANCES} instances")
    assert failures == 0


def test_criterion_8b_fidelity_symmetry_and_pure_reduction():
    rng = np.random.default_rng(802)
    failures = 0
    for _ in range(N_INSTANCES):
        dim = int(rng.integers(1, 5))
        a = random_mixture_dm(rng, dim)
        b = random_mixture_dm(rng, dim)
        if abs(fidelity(a, b) - fidelity(b, a)) > 1e-9:
            failures += 1
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        if abs(fidelity(pure(u), pure(v)) - abs(float(u @ v))) > 1e-9:
            failures += 1
    _report(8, "property: fidelity symmetry + pure reduction", failures == 0,
            f"{N_INSTANCES} instances")
    assert failures == 0


def test_criterion_8c_zero_score_iff_kernel_overlap():
    rng = np.random.default_rng(803)
    failures = 0
    for _ in range(N_INSTANCES):
        dim = int(rng.integers(2, 5))
        sigma = random_mixture_dm(rng, dim, rank=int(rng.integers(1, dim)))
        p = support_projector_oracle(sigma.matrix)
        kernel = np.eye(dim) - p
        rho_in, _ = included_pair(rng, dim)
        # align rho_in to this sigma's support
        rho_in = DensityMatrix._trusted(p @ rho_in.matrix @ p)
        if np.trace(rho_in.matrix) <= 1e-9:
            continue
        if representativeness(rho_in, sigma) <= 0.0:
            failures += 1
        leak = kernel @ rng.standard_normal(dim)
        if np.linalg.norm(leak) <= 1e-12:
            continue
        rho_out = mixture([0.7, 0.3], [rho_in, pure(leak)])
        if representativeness(rho_out, sigma) != 0.0:
            failures += 1
    _report(8, "property: zero score iff kernel overlap", failures == 0,
            f"{N_INSTANCES} instances")
    assert failures == 0


def test_criterion_8d_preorder_three_way_equivalence():
    rng = np.random.default_rng(804)
    failures = 0
    for _ in range(N_INSTANCES):
        dim = int(rng.integers(2, 5))
        rho, sigma = included_pair(rng, dim)
        if not supp_leq(rho, sigma):
            failures += 1
        if not representativeness(rho, sigma) > 0.0:
            failures += 1
        sig_values = eigh(sigma.matrix).values
        positive = sig_values[sig_values > 1e-9 * sig_values[0]]
        p = float(positive[-1] / eigh(rho.matrix).values[0])
        rest = sigma.matrix - p * rho.matrix
        if eigh(rest).values[-1] < -1e-9 * max(sig_values[0], 1.0):
            failures += 1
        # converse: an explicit positive combination always precedes
        rho2 = random_mixture_dm(rng, dim)
        sigma2 = mixture([float(rng.uniform(0.1, 2.0)), 1.0],
                         [rho2, random_mixture_dm(rng, dim)])
        if not (supp_leq(rho2, sigma2) and representativeness(rho2, sigma2) > 0.0):
            failures += 1
    _report(8, "property: three-way preorder equivalence", failures == 0,
            f"{N_INSTANCES} instances")
    assert failures == 0


def test_criterion_8e_composition_preserves_entailment():
    rng = np.random.default_rng(805)
    diagram = transitive_diagram()
    failures = 0
    for _ in range(N_INSTANCES):
        dn = int(rng.integers(1, 5))
        ds = int(rng.integers(1, 5))
        registry = transitive_world(dn, ds)
        dv = dn * ds * dn

        def dominated_pair(dim):
            small = random_mixture_dm(rng, dim)
            big = mixture(
                [float(rng.uniform(0.1, 2.0)), 1.0],
                [small, random_mixture_dm(rng, dim)],
            )
            return small, big

        rho, sigma = dominated_pair(dn)
        delta, gamma = dominated_pair(dn)
        alpha, beta = dominated_pair(dv)
        first = compose(
            [
                lift(registry, "subj", "n", rho),
                lift(registry, "verb", "n^r s n^l", alpha),
                lift(registry, "obj", "n", delta),
            ],
            diagram,
            registry,
        )
        second = compose(
            [
                lift(registry, "subj", "n", sigma),
                lift(registry, "verb", "n^r s n^l", beta),
                lift(registry, "obj", "n", gamma),
            ],
            diagram,
            registry,
        )
        if not supp_leq(first.dm, second.dm):
            failures += 1
    _report(8, "property: composition preserves entailment", failures == 0,
            f"{N_INSTANCES} instances")
    assert failures == 0


def test_criterion_8f_entrywise_product_psd_closure():
    rng = np.random.default_rng(806)
    failures = 0
    for _ in range(N_INSTANCES):
        ds = int(rng.integers(1, 5))
        do = int(rng.integers(1, 5))
        table = rng.uniform(-2.0, 2.0, size=(ds, do))
        if not np.any(table):
            table[0, 0] = 1.0
        out = compose_kronecker(table, random_mixture_dm(rng, ds), random_mixture_dm(rng, do))
        values = eigh(out.matrix).values
        if values[-1] < -1e-9 * max(values[0], 1.0):
            failures += 1
    _report(8, "property: entrywise-product PSD closure", failures == 0,
            f"{N_INSTANCES} instances")
    assert failures == 0


def test_criterion_8g_snake_identity():
    rng = np.random.default_rng(807)
    failures = 0
    registries = {}
    diagrams = {}
    for _ in range(N_INSTANCES):
        dim = int(rng.integers(1, 5))
        if dim not in registries:
            registry = SpaceRegistry().register("n", [f"n{i}" for i in range(dim)])
            registries[dim] = registry
            diagrams[dim] = (
                reduce([parse_type("n"), parse_type("n^r n")], parse_type("n")),
                reduce([parse_type("n n^l"), parse_type("n")], parse_type("n")),
            )
        registry = registries[dim]
        right_diagram, left_diagram = diagrams[dim]
        rho = random_mixture_dm(rng, dim)
        cap = pure(np.eye(dim).reshape(-1))
        word = lift(registry, "w", "n", rho)

        out = compose([word, lift(registry, "eta", "n^r n", cap)], right_diagram, registry)
        if np.max(np.abs(out.dm.matrix - rho.matrix)) > 1e-10:
            failures += 1
        out = compose([lift(registry, "eta", "n n^l", cap), word], left_diagram, registry)
        if np.max(np.abs(out.dm.matrix - rho.matrix)) > 1e-10:
            failures += 1
    _report(8, "property: snake identity", failures == 0, f"{N_INSTANCES} instances")
    assert failures == 0


def test_criterion_8h_contraction_matches_brute_force():
    rng = np.random.default_rng(808)
    failures = 0
    shapes = [
        ("intransitive", ["n", "n^r s"], "s"),
        ("transitive", ["n", "n^r s n^l", "n"], "s"),
        ("modifier", ["n n^l", "n"], "n"),
    ]
    diagram_cache = {}
    for _ in range(N_INSTANCES):
        name, type_texts, target = shapes[int(rng.integers(0, len(shapes)))]
        if name == "transitive":
            dn = int(rng.integers(1, 3))
            ds = int(rng.integers(1, 5 if dn == 1 else 4))
        else:
            dn = int(rng.integers(1, 5))
            ds = int(rng.integers(1, 5))
        while dn ** sum(t.count("n") for t in type_texts) * ds ** sum(
            t.count("s") for t in type_texts
        ) > 64:
            dn = max(1, dn - 1)
        registry = transitive_world(dn, ds)
        types = [parse_type(t) for t in type_texts]
        key = (name, dn, ds)
        if key not in diagram_cache:
            diagram_cache[key] = reduce(types, parse_type(target))
        diagram = diagram_cache[key]
        words = [
            lift(registry, f"w{i}", t, random_mixture_dm(rng, int(np.prod(registry.type_dims(t)))))
            for i, t in enumerate(types)
        ]
        got = compose(words, diagram, registry).dm.matrix
        expected = brute_contract(words, diagram)
        if np.max(np.abs(got - expected)) > 1e-10:
            failures += 1
    _report(8, "property: contraction vs brute force", failures == 0,
            f"{N_INSTANCES} instances")
    assert failures == 0


# --- reducer criterion (9) ----------------------------------------------------


def test_criterion_9_reducer_matches_enumeration():
    rng = np.random.default_rng(900)
    targets = [
        PregroupType(()),
        parse_type("n"),
        parse_type("s"),
        parse_type("n s"),
        parse_type("s n^l"),
    ]
    structure_cache = {}
    disagreements = 0
    for _ in range(500):
        length = int(rng.integers(0, 9))
        simples = tuple(
            SimpleType(("n", "s")[int(rng.integers(0, 2))], int(rng.integers(-1, 2)))
            for _ in range(length)
        )
        if length not in structure_cache:
            structure_cache[length] = list(link_structures(length))
        for target in targets:
            valid = []
            for links, residuals in structure_cache[length]:
                if any(
                    not (
                        simples[i].base == simples[j].base
                        and simples[j].z == simples[i].z + 1
                    )
                    for i, j in links
                ):
                    continue
                if tuple(simples[r] for r in residuals) != target.simples:
                    continue
                valid.append(tuple(sorted(links)))
            diagram = reduce([PregroupType(simples)], target)
            if (diagram is not None) != bool(valid):
                disagreements += 1
                continue
            if diagram is not None:
                diagram.validate()
                if diagram.links not in valid:
                    disagreements += 1
    _report(9, "reducer vs exhaustive enumeration", disagreements == 0, "500 instances")
    assert disagreements == 0
