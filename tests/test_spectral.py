"""Tests for the symmetric-matrix kernel.

Expected eigenvalues for 2x2 cases are frozen from the quadratic-formula
oracle, implemented here, independent of the production code paths.
"""

import math

import numpy as np
import pytest

from densem.errors import DensemError, NumericFailure, ShapeError
from densem.lexicon import SubsetRecord, build_from_subsets
from densem.spectral import (
    DEFAULT_TOL,
    SYMMETRY_TOL,
    EigenSystem,
    Tolerance,
    _eigh_stack,
    eigh,
    symmetrize,
)


def eig2_oracle(a, b, c):
    """Eigenvalues of [[a, b], [b, c]] by the quadratic formula, descending."""
    mean = (a + c) / 2.0
    disc = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean + disc, mean - disc


def random_symmetric(rng, dim, scale=1.0):
    a = rng.uniform(-scale, scale, size=(dim, dim))
    return (a + a.T) / 2.0


class TestSymmetrize:
    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            symmetrize(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_asymmetry_is_judged_relative_to_the_largest_entry(self):
        a = np.array([[1e-20, 2e-21], [0.0, 1e-20]])
        for scaled in (a, a * 1e20):
            with pytest.raises(ShapeError, match="not symmetric"):
                symmetrize(scaled)
        assert np.array_equal(symmetrize(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_accepts_roundoff_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
        out = symmetrize(a)
        assert out[0, 1] == out[1, 0]


class TestEigh:
    def test_identity(self):
        es = eigh(np.eye(2))
        np.testing.assert_allclose(es.values, [1.0, 1.0])
        np.testing.assert_allclose(es.vectors, np.eye(2))

    def test_two_by_two_against_quadratic_formula(self):
        hi, lo = eig2_oracle(13.0, 7.0, 7.0)
        es = eigh(np.array([[13.0, 7.0], [7.0, 7.0]]))
        np.testing.assert_allclose(es.values, [hi, lo], atol=1e-12)
        assert round(es.values[0], 4) == 17.6158
        assert round(es.values[1], 4) == 2.3842

    def test_half_true_mixture_matrix(self):
        hi, lo = eig2_oracle(0.75, 0.25, 0.25)
        es = eigh(np.array([[0.75, 0.25], [0.25, 0.25]]))
        np.testing.assert_allclose(es.values, [hi, lo], atol=1e-12)
        np.testing.assert_allclose(
            es.values, [(1 + math.sqrt(0.5)) / 2, (1 - math.sqrt(0.5)) / 2], atol=1e-12
        )

    def test_reconstruction_and_orthonormality_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 7))
            a = random_symmetric(rng, dim)
            es = eigh(a)
            recon = (es.vectors * es.values) @ es.vectors.T
            bound = 1e-9 * max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(recon - a)) <= bound
            assert np.max(np.abs(es.vectors.T @ es.vectors - np.eye(dim))) <= 1e-9
            assert np.all(np.diff(es.values) <= 1e-15)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 5)
        es1 = eigh(a.copy())
        es2 = eigh(a.copy())
        assert np.array_equal(es1.values, es2.values)
        assert np.array_equal(es1.vectors, es2.vectors)

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            es = eigh(random_symmetric(rng, 4))
            for j in range(4):
                col = es.vectors[:, j]
                lead = np.argmax(np.abs(col) > 1e-12)
                assert col[lead] > 0.0

    def test_tie_order_matches_reference_sort(self):
        # Reference order: descending values, then the lexicographically
        # largest eigenvector first, as a plain Python sort.  The random
        # inputs have no ties, so they pin the order of the tie-free path.
        pair = np.array([[2.0, 1.0], [1.0, 2.0]])
        rng = np.random.default_rng(17)
        tie_free = [random_symmetric(rng, dim) for dim in range(1, 17)]
        for a in (np.eye(3), np.diag([1.0, 2.0, 2.0, 0.0]), np.kron(np.eye(2), pair), *tie_free):
            es = eigh(a)
            order = sorted(
                range(es.dim), key=lambda j: (-es.values[j], tuple(-es.vectors[:, j]))
            )
            assert order == list(range(es.dim))
        es = eigh(np.diag([1.0, 2.0, 2.0]))
        np.testing.assert_array_equal(es.vectors[:, :2], [[0, 0], [1, 0], [0, 1]])

    def test_non_finite_raises_with_dimension(self):
        for bad in (math.nan, math.inf, -math.inf):
            a = np.array([[13.0, 7.0], [7.0, bad]])
            with pytest.raises(NumericFailure, match="2x2"):
                eigh(a)
        # Mirrored infinities: a - aT is NaN there, which no asymmetry test catches.
        a = np.array([[13.0, math.inf], [math.inf, 7.0]])
        with np.errstate(invalid="ignore"):
            assert np.isnan(a - a.T).any()
        with pytest.raises(NumericFailure, match="2x2"):
            eigh(a)
        with pytest.raises(NumericFailure, match="2x2"):
            symmetrize(a)

    def test_solver_failure_raises_with_dimension(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericFailure, match="2x2"):
            eigh(np.eye(2))

    def test_input_not_mutated(self):
        a = np.array([[13.0, 7.0], [7.0, 7.0]])
        eigh(a)
        np.testing.assert_array_equal(a, [[13.0, 7.0], [7.0, 7.0]])


def reference_eigh(a):
    """LAPACK on one matrix, then the documented order in plain Python.

    Values descend; each vector is negated when its first component above
    1e-12 in magnitude is negative; exact ties put the lexicographically
    largest vector first.  Returns the values, the vectors as columns and
    the number of vectors that needed the sign flip.
    """
    w, v = np.linalg.eigh(a)
    pairs, flips = [], 0
    for j in range(len(w)):
        vec = v[:, j].tolist()
        if next(x for x in vec if abs(x) > 1e-12) < 0.0:
            vec, flips = [-x for x in vec], flips + 1
        pairs.append((w[j], vec))
    pairs.sort(key=lambda p: (-p[0], [-x for x in p[1]]))
    values = np.array([p[0] for p in pairs])
    vectors = np.array([p[1] for p in pairs]).T
    return values, vectors, flips


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestEighStack:
    """The stacked kernel against ``reference_eigh``, matrix by matrix."""

    def stack(self):
        labels = ("a", "b", "c")
        words = [
            [SubsetRecord("w", {"a", "b"}, 2.0)],
            [SubsetRecord("w", {"a"}, 1.0), SubsetRecord("w", {"b", "c"}, 3.0)],
            [SubsetRecord("w", {"c"}, 5.0), SubsetRecord("w", {"c"}, 1.0)],
        ]
        rng = np.random.default_rng(29)
        return np.stack(
            [
                np.diag([1.0, 1.0, 0.0]),
                np.zeros((3, 3)),
                np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]),
                *(build_from_subsets(r, labels).matrix for r in words),
                random_symmetric(rng, 3),
                random_symmetric(rng, 3),
            ]
        )

    def assert_matches_reference(self, a, results):
        flips = 0
        for m, es in zip(a, results):
            values, vectors, flipped = reference_eigh(m)
            flips += flipped
            assert isinstance(es, EigenSystem)
            assert np.array_equal(bits(es.values), bits(values))
            assert np.array_equal(bits(es.vectors), bits(vectors))
            assert es.vectors.flags.f_contiguous
        return flips

    def test_matches_reference_bitwise(self):
        a = self.stack()
        sym, results = _eigh_stack(a)
        assert np.array_equal(bits(sym), bits(a))
        assert self.assert_matches_reference(a, results) > 0
        # The stack mixes exact ties with tie-free matrices.
        tied = [bool((es.values[:-1] == es.values[1:]).any()) for es in results]
        assert any(tied) and not all(tied)

    def test_one_by_one(self):
        a = np.array([[[5.0]], [[0.0]], [[-2.0]]])
        self.assert_matches_reference(a, _eigh_stack(a)[1])

    def test_eigh_is_the_one_matrix_case(self):
        for m in self.stack():
            es = eigh(m)
            values, vectors, _ = reference_eigh(m)
            assert np.array_equal(bits(es.values), bits(values))
            assert np.array_equal(bits(es.vectors), bits(vectors))
            assert es.vectors.flags.f_contiguous

    def test_each_refused_matrix_gets_its_own_verdict(self):
        good = self.stack()
        nan = np.diag([1.0, math.nan, 0.0])
        skew = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        overflow = np.diag([1e308, 1.0, 1.0])
        a = np.stack([*good[:3], nan, *good[3:5], skew, overflow, *good[5:]])
        with np.errstate(over="ignore"):
            _, results = _eigh_stack(a)
        refused = {3: nan, 6: skew, 7: overflow}
        for i, m in refused.items():
            assert isinstance(results[i], DensemError)
            with pytest.raises(type(results[i])) as err, np.errstate(over="ignore"):
                eigh(m)
            assert str(results[i]) == str(err.value)
        assert str(results[3]) == "3x3 matrix has non-finite entries"
        assert str(results[6]) == "matrix is not symmetric: max |a - aT| = 5.000e-01"
        assert str(results[7]) == "3x3 matrix has non-finite entries"
        kept = [i for i in range(len(a)) if i not in refused]
        self.assert_matches_reference(a[kept], [results[i] for i in kept])

    def test_roundoff_asymmetry_is_averaged(self):
        a = np.array([[[1.0, 0.5 + 1e-15], [0.5, 1.0]], [[2.0, 0.0], [0.0, 1.0]]])
        sym, results = _eigh_stack(a)
        assert sym[0, 0, 1] == sym[0, 1, 0] == (a[0, 0, 1] + a[0, 1, 0]) / 2
        assert all(isinstance(es, EigenSystem) for es in results)
        with pytest.raises(ShapeError):
            eigh(a[0] + [[0.0, 2 * SYMMETRY_TOL], [0.0, 0.0]])


class TestTolerance:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Tolerance(rank_cut=0.0)

    def test_defaults(self):
        assert DEFAULT_TOL.rank_cut == 1e-9
