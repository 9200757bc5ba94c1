"""Tests for the symmetric-matrix kernel.

Expected eigenvalues for 2x2 cases are frozen from the quadratic-formula
oracle, implemented here, independent of the production code paths.
"""

import math

import numpy as np
import pytest

from densem.errors import NumericFailure, ShapeError
from densem.spectral import (
    DEFAULT_TOL,
    Tolerance,
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


class TestTolerance:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Tolerance(rank_cut=0.0)

    def test_defaults(self):
        assert DEFAULT_TOL.rank_cut == 1e-9
