"""Tests for density-matrix construction and the comparison measures.

Scalar oracles used to freeze expected values:
  * commuting (diagonal) fidelity: sum of sqrt(p_i * q_i),
  * diagonal relative entropy: sum of p_i * log2(p_i / q_i),
  * the smallest-nonzero-eigenvalue ratio witnessing sigma - p*rho >= 0.
"""

import math

import numpy as np
import pytest

from densem.density import (
    DensityMatrix,
    EntailmentVerdict,
    INFINITE,
    Relation,
    classify,
    equivalent,
    fidelity,
    mixture,
    pure,
    relative_entropy,
    representativeness,
    supp_leq,
    von_neumann_entropy,
)
from densem import density, spectral
from densem.errors import DegenerateInputError, NumericFailure, ShapeError
from densem.spectral import DEFAULT_TOL, Tolerance, eigh
from oracles import support_projector_oracle


def diag_fidelity_oracle(p, q):
    return sum(math.sqrt(pi * qi) for pi, qi in zip(p, q))


def diag_relent_oracle(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log2(pi / qi)
    return total


def random_density(rng, dim, rank=None):
    b = rng.standard_normal((rank or dim, dim))
    return DensityMatrix(b.T @ b).normalized()


LIONS = pure([1.0, 0.0])
SLOTHS = pure([0.0, 1.0])
MAMMALS = mixture([0.5, 0.5], [LIONS, SLOTHS])

LAGER = pure([6.0, 5.0, 0.0])
BEER = DensityMatrix([[13.0, 7.0, 0.0], [7.0, 7.0, 0.0], [0.0, 0.0, 0.0]])

PSYCHIATRIST = mixture([2.0, 5.0], [pure([1, 0, 0]), pure([0, 1, 0])])
DOCTOR = mixture([5.0, 2.0, 3.0], [pure([1, 0, 0]), pure([0, 1, 0]), pure([0, 0, 1])])


class TestConstruction:
    def test_pure_basis_vector(self):
        np.testing.assert_allclose(pure([1.0, 0.0]).matrix, [[1, 0], [0, 0]])

    def test_pure_lager(self):
        np.testing.assert_allclose(
            LAGER.matrix, [[36, 30, 0], [30, 25, 0], [0, 0, 0]]
        )

    def test_pure_unit_diagonal_vector(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(pure(v).matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_pure_rejects_zero(self):
        with pytest.raises(DegenerateInputError):
            pure([0.0, 0.0])

    def test_mixture_mammals(self):
        np.testing.assert_allclose(MAMMALS.matrix, np.diag([0.5, 0.5]))

    def test_mixture_psychiatrist(self):
        np.testing.assert_allclose(PSYCHIATRIST.matrix, np.diag([2.0, 5.0, 0.0]))

    def test_mixture_single_part_identity(self):
        rho = pure([3.0, 4.0])
        out = mixture([1.0], [rho])
        np.testing.assert_allclose(out.matrix, rho.matrix)

    def test_mixture_rejects_mismatch(self):
        with pytest.raises(ShapeError):
            mixture([1.0, 1.0], [LIONS])
        with pytest.raises(ShapeError):
            mixture([1.0, 1.0], [LIONS, LAGER])
        with pytest.raises(DegenerateInputError):
            mixture([0.0], [LIONS])

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(DegenerateInputError):
            DensityMatrix([[0.0, 1.0], [1.0, 0.0]])

    def test_zero_operator_allowed_but_not_normalizable(self):
        zero = DensityMatrix(np.zeros((2, 2)))
        assert zero.trace == 0.0
        with pytest.raises(DegenerateInputError):
            zero.normalized()


class TestNonFinite:
    def test_nan_vector_is_not_scored(self):
        with pytest.raises(NumericFailure):
            representativeness(pure([math.nan, 1.0]), pure([1.0, 0.0]))

    def test_overflowing_vector_is_not_scored(self):
        with np.errstate(over="ignore"):
            with pytest.raises(NumericFailure):
                representativeness(pure([1e200, 0.0]), pure([1.0, 0.0]))


class TestDecompositionCount:
    def test_each_operator_decomposed_once(self, monkeypatch):
        calls = []
        original = spectral.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigh", counting_eigh)
        rho = pure([1.0, 2.0, 0.0])
        sigma = mixture([1.0, 3.0], [pure([1.0, 0.0, 0.0]), pure([0.0, 1.0, 0.0])])

        assert classify(rho, sigma).relation is Relation.HYPONYM
        assert len(calls) == 2
        classify(rho, sigma)
        assert len(calls) == 2
        fidelity(rho, sigma)
        assert len(calls) == 3


class TestNormalize:
    def test_psychiatrist(self):
        np.testing.assert_allclose(
            PSYCHIATRIST.normalized().matrix, np.diag([2 / 7, 5 / 7, 0.0])
        )

    def test_beer_trace_twenty(self):
        assert BEER.trace == 20.0
        np.testing.assert_allclose(BEER.normalized().matrix, BEER.matrix / 20.0)

    def test_idempotent(self):
        rho = BEER.normalized()
        assert rho.normalized() is rho

    def test_subnormal_trace(self):
        rho = pure([1e-160, 0.0])
        np.testing.assert_array_equal(rho.normalized().eigensystem().values, [1.0, 0.0])
        assert classify(rho, pure([1.0, 0.0])).relation is Relation.EQUIVALENT


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density(rng, int(rng.integers(1, 5)))
            assert abs(fidelity(rho, rho) - 1.0) <= 1e-9

    def test_psychiatrist_doctor_diagonal_oracle(self):
        p = [2 / 7, 5 / 7, 0.0]
        q = [0.5, 0.2, 0.3]
        expected = diag_fidelity_oracle(p, q)
        assert abs(expected - 2.0 * math.sqrt(1.0 / 7.0)) < 1e-15
        got = fidelity(PSYCHIATRIST, DOCTOR)
        assert abs(got - expected) <= 1e-9
        assert round(got, 2) == 0.76

    def test_lager_beer(self):
        assert abs(fidelity(LAGER, BEER) - 0.93) <= 0.005

    def test_symmetry_random(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            a, b = random_density(rng, dim), random_density(rng, dim)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9

    def test_bounds_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            a = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            b = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            assert -1e-12 <= fidelity(a, b) <= 1.0

    def test_unit_fidelity_implies_equality(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            a = random_density(rng, dim)
            b = DensityMatrix(a.matrix + 1e-3 * np.eye(dim)).normalized()
            if np.max(np.abs(a.matrix - b.matrix)) > 1e-6:
                assert fidelity(a, b) < 1.0 - 1e-12

    def test_pure_state_reduction(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            got = fidelity(pure(u), pure(v))
            assert abs(got - abs(float(u @ v))) <= 1e-9

    def test_orthogonal_supports_in_a_rotated_basis(self):
        # sqrt(rho) sigma sqrt(rho) is then round-off only, asymmetric as much
        # as it is large.
        rng = np.random.default_rng(43)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            split = int(rng.integers(1, dim))
            rho = DensityMatrix(q[:, :split] @ q[:, :split].T)
            sigma = DensityMatrix(q[:, split:] @ q[:, split:].T)
            assert fidelity(rho, sigma) <= 1e-6
            assert classify(rho, sigma).relation is Relation.INCOMPARABLE

    def test_strict_tolerance_accepts_kernel_round_off(self):
        # A rank-3 operator's kernel eigenvalues are round-off of either sign,
        # far above a 1e-17 relative cut; they are not a PSD violation.
        rng = np.random.default_rng(47)
        strict = Tolerance(rank_cut=1e-17)
        for _ in range(20):
            rho = random_density(rng, 16, rank=3)
            assert abs(fidelity(rho, rho, tol=strict) - 1.0) <= 1e-12

    def test_symmetric_below_the_rank_cut(self):
        # rho's weight 1e-10 lies below the default rank cut, and all of sigma
        # lies there; both orders must still give the closed form.
        rho = DensityMatrix(np.diag([1.0, 1e-10]))
        sigma = DensityMatrix(np.diag([0.0, 1.0]))
        expected = math.sqrt(1e-10 / (1.0 + 1e-10))
        assert abs(fidelity(rho, sigma) - expected) <= 1e-14
        assert abs(fidelity(sigma, rho) - expected) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            fidelity(LIONS, LAGER)


class TestRelativeEntropy:
    def test_lions_mammals_is_one(self):
        assert abs(relative_entropy(LIONS, MAMMALS) - 1.0) <= 1e-12

    def test_mammals_lions_infinite(self):
        assert relative_entropy(MAMMALS, LIONS) == INFINITE

    def test_self_divergence_zero(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            rho = random_density(rng, int(rng.integers(1, 5)))
            assert relative_entropy(rho, rho) <= 1e-9

    def test_diagonal_oracle(self):
        p = [2 / 7, 5 / 7, 0.0]
        q = [0.5, 0.2, 0.3]
        expected = diag_relent_oracle(p, q)
        got = relative_entropy(PSYCHIATRIST, DOCTOR)
        assert abs(got - expected) <= 1e-9

    def test_klein_inequality_random(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            a, b = random_density(rng, dim), random_density(rng, dim)
            n = relative_entropy(a, b)
            assert n >= 0.0
            if np.max(np.abs(a.matrix - b.matrix)) > 1e-6:
                assert n > 0.0

    def test_base_conversion(self):
        n2 = relative_entropy(LIONS, MAMMALS)
        ne = relative_entropy(LIONS, MAMMALS, base=math.e)
        assert abs(ne - n2 * math.log(2.0)) <= 1e-12


class TestRepresentativeness:
    def test_lions_mammals_half(self):
        assert abs(representativeness(LIONS, MAMMALS) - 0.5) <= 1e-12
        assert representativeness(MAMMALS, LIONS) == 0.0

    def test_lager_beer(self):
        assert abs(representativeness(LAGER, BEER) - 0.82) <= 0.005
        assert representativeness(BEER, LAGER) == 0.0

    def test_psychiatrist_doctor_oracle(self):
        expected = 1.0 / (1.0 + diag_relent_oracle([2 / 7, 5 / 7, 0.0], [0.5, 0.2, 0.3]))
        got = representativeness(PSYCHIATRIST, DOCTOR)
        assert abs(got - expected) <= 1e-9
        assert abs(got - 0.4805) <= 5e-5
        assert representativeness(DOCTOR, PSYCHIATRIST) == 0.0

    def test_kernel_overlap_corollary(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            rank = int(rng.integers(1, dim))
            sigma = random_density(rng, dim, rank=rank)
            kernel = np.eye(dim) - support_projector_oracle(sigma.matrix)
            inside = random_density(rng, dim, rank=rank)
            p = support_projector_oracle(sigma.matrix)
            rho_in = DensityMatrix(p @ inside.matrix @ p).normalized()
            assert representativeness(rho_in, sigma) > 0.0
            leak_dir = kernel @ rng.standard_normal(dim)
            rho_out = mixture([0.5, 0.5], [rho_in, pure(leak_dir).normalized()])
            assert representativeness(rho_out, sigma) == 0.0

    def test_equality_gives_one(self):
        rng = np.random.default_rng(59)
        rho = random_density(rng, 3)
        assert abs(representativeness(rho, rho) - 1.0) <= 1e-9


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(LIONS) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(MAMMALS) - 1.0) <= 1e-12

    def test_scalar_oracle(self):
        lam = [(1 + math.sqrt(0.5)) / 2, (1 - math.sqrt(0.5)) / 2]
        expected = -sum(x * math.log2(x) for x in lam)
        got = von_neumann_entropy(DensityMatrix(np.diag(lam)))
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.600876) <= 1e-6


class TestOrdering:
    def test_supp_leq_examples(self):
        assert supp_leq(LIONS, MAMMALS)
        assert not supp_leq(MAMMALS, LIONS)
        assert supp_leq(MAMMALS, MAMMALS)

    def test_proposition_three_way(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            rank = int(rng.integers(1, dim + 1))
            sigma = random_density(rng, dim, rank=rank)
            p_proj = support_projector_oracle(sigma.matrix)
            seed = rng.standard_normal((dim, dim))
            inner = p_proj @ (seed @ seed.T) @ p_proj
            if np.trace(inner) < 1e-9:
                continue
            rho = DensityMatrix(inner).normalized()

            assert supp_leq(rho, sigma)
            assert representativeness(rho, sigma) > 0.0

            sig_vals = eigh(sigma.matrix).values
            lam_min_pos = min(v for v in sig_vals if v > 1e-9 * sig_vals[0])
            lam_max_rho = eigh(rho.matrix).values[0]
            p = lam_min_pos / lam_max_rho
            rest = sigma.matrix - p * rho.matrix
            assert eigh(rest).values[-1] >= -1e-9

    def test_proposition_converse(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            extra = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            p = float(rng.uniform(0.1, 2.0))
            sigma = mixture([p, 1.0], [rho, extra])
            assert supp_leq(rho, sigma)

    def test_preorder_reflexive_transitive(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a = random_density(rng, dim, rank=int(rng.integers(1, dim)))
            b = mixture([1.0, 1.0], [a, random_density(rng, dim, rank=1)])
            c = mixture([1.0, 1.0], [b, random_density(rng, dim, rank=1)])
            assert supp_leq(a, a)
            if supp_leq(a, b) and supp_leq(b, c):
                assert supp_leq(a, c)

    def test_equivalent(self):
        assert equivalent(MAMMALS, DensityMatrix(np.diag([0.3, 0.7])))
        assert not equivalent(LIONS, MAMMALS)


class TestSupportLeak:
    """The leak of rho into sigma's kernel is a trace, so no basis changes a verdict."""

    @staticmethod
    def spread_leak_pair(reflect):
        # sigma = e0 e0^T; rho adds 4e-9 w w^T with w uniform on e1..e16, a
        # trace of 4x the rank cut spread thin over sigma's 16-dim kernel.
        dim = 17
        sigma = np.zeros((dim, dim))
        sigma[0, 0] = 1.0
        w = np.zeros(dim)
        w[1:] = 0.25
        rho = sigma + 4e-9 * np.outer(w, w)
        if reflect:
            # The Householder reflection mapping w to e1; it fixes e0.
            u = w.copy()
            u[1] -= 1.0
            h = np.eye(dim) - 2.0 * np.outer(u, u) / (u @ u)
            rho, sigma = h @ rho @ h, h @ sigma @ h
        return DensityMatrix(rho), DensityMatrix(sigma)

    @pytest.mark.parametrize("reflect", [False, True], ids=["standard", "reflected"])
    def test_spread_leak_in_any_basis(self, reflect):
        rho, sigma = self.spread_leak_pair(reflect)
        assert supp_leq(rho, sigma) is False
        assert supp_leq(sigma, rho) is True
        verdict = classify(rho, sigma)
        assert verdict.relation is Relation.HYPERNYM
        assert verdict.forward == 0.0 and verdict.backward > 0.0

    def test_leak_is_the_kernel_trace(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(1, dim))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            mu = np.zeros(dim)
            mu[:rank] = rng.uniform(0.1, 1.0, rank)
            sigma = DensityMatrix(q @ np.diag(mu) @ q.T)
            kernel = np.eye(dim) - support_projector_oracle(sigma.matrix)
            # The kernel part's trace is the leak: 0.5x to 2x the rank cut.
            inside, outside = (random_density(rng, dim).matrix for _ in range(2))
            leak = float(rng.choice([0.5, 2.0])) * 1e-9
            part = kernel @ outside @ kernel
            m = (np.eye(dim) - kernel) @ inside @ (np.eye(dim) - kernel)
            rho = DensityMatrix(m / np.trace(m) + leak * part / np.trace(part))

            expected = float(np.trace(kernel @ rho.matrix @ kernel))
            got = density._sigma_weights(rho, sigma, DEFAULT_TOL)[0]
            assert abs(got - expected) <= 1e-15
            assert supp_leq(rho, sigma) is (expected <= 1e-9 * rho.trace)
            assert (representativeness(rho, sigma) > 0.0) is (expected <= 1e-9 * rho.trace)


class TestClassify:
    def test_lager_beer_hyponym(self):
        verdict = classify(LAGER, BEER)
        assert verdict.relation is Relation.HYPONYM
        assert verdict.forward > 0.8
        assert verdict.backward == 0.0

    def test_self_equivalent(self):
        verdict = classify(MAMMALS, MAMMALS)
        assert verdict.relation is Relation.EQUIVALENT

    def test_disjoint_incomparable(self):
        verdict = classify(
            DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0]))
        )
        assert verdict.relation is Relation.INCOMPARABLE
        assert verdict.forward == 0.0 and verdict.backward == 0.0

    def test_hypernym_direction(self):
        assert classify(BEER, LAGER).relation is Relation.HYPERNYM

    def test_threshold_strictness(self):
        verdict = classify(LIONS, MAMMALS, threshold=0.6)
        assert verdict.relation is Relation.INCOMPARABLE
        with pytest.raises(ValueError):
            classify(LIONS, MAMMALS, threshold=1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(73)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            a = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            b = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            v1 = classify(a, b)
            v2 = classify(a.scaled(3.7), b.scaled(0.2))
            assert v1.relation is v2.relation
            assert abs(v1.forward - v2.forward) <= 1e-9
            assert abs(v1.backward - v2.backward) <= 1e-9

    def test_verdict_is_frozen(self):
        verdict = EntailmentVerdict(0.5, 0.0, Relation.HYPONYM)
        with pytest.raises(AttributeError):
            verdict.forward = 1.0
