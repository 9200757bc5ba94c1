"""Dense symmetric-matrix kernel: validation, eigendecomposition and the rank cut.

Everything downstream (similarity and entailment measures, composition)
reduces to spectral manipulations of small real symmetric matrices, so this
module provides exactly that and nothing more: the symmetry check, a
deterministic wrapper around the LAPACK symmetric eigensolver, and the rank
cut on its eigenvalues.  All functions are pure and operate on plain
``numpy`` arrays; only ``eigh`` decomposes anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, ShapeError

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the package.

    ``rank_cut`` is relative: an eigenvalue is treated as zero when it is
    below ``rank_cut`` times the largest eigenvalue.
    """

    rank_cut: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rank_cut < 1.0:
            raise ValueError(
                f"rank_cut must lie strictly between 0 and 1, got {self.rank_cut}"
            )


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in descending order with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)


def symmetrize(a) -> np.ndarray:
    """Validate that ``a`` is square, finite and symmetric, returning ``(a + aT)/2``.

    Asymmetry beyond ``SYMMETRY_TOL`` (relative to the largest entry) is an
    error rather than something to silently average away; so is any NaN or
    infinite entry, which would otherwise turn into a silent score.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        # A NaN or an infinite entry makes the largest magnitude non-finite.
        scale = float(abs(a).max())
        if not math.isfinite(scale):
            raise NumericFailure(f"{a.shape[0]}x{a.shape[0]} matrix has non-finite entries")
        skew = float(abs(a - a.T).max())
        if skew > SYMMETRY_TOL * scale:
            raise ShapeError(f"matrix is not symmetric: max |a - aT| = {skew:.3e}")
    return (a + a.T) / 2.0


def eigh(a) -> EigenSystem:
    """Eigendecomposition of a real symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues in descending order.  Each eigenvector is signed so
    its first nonzero component is positive, and exact ties are broken by
    putting the lexicographically largest eigenvector first, so identical
    inputs give identical outputs on one platform.
    """
    a = symmetrize(a)
    n = a.shape[0]
    if n == 0:
        raise ShapeError("cannot decompose an empty matrix")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NumericFailure(f"eigensolver failed for a {n}x{n} matrix: {err}") from None
    # LAPACK returns ascending values, so reversed they descend; the
    # vectors are kept column-major, the layout the tie sort below gives.
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    lead = np.argmax(abs(vectors) > 1e-12, axis=0)
    signs = np.where(vectors[lead, np.arange(n)] < 0.0, -1.0, 1.0)
    vectors = np.multiply(vectors, signs, order="F")
    if (values[:-1] <= values[1:]).any():
        # An exact tie.  lexsort's last key is the primary one: descending
        # values, then the columns compared component by component, largest
        # first.
        order = np.lexsort(np.vstack((-vectors[::-1], -values)))
        values, vectors = values[order], vectors[:, order]
    return EigenSystem(values=values, vectors=vectors)


def rank_cutoff(values: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    """The absolute eigenvalue below which ``values`` (descending) count as zero."""
    top = float(values[0]) if len(values) else 0.0
    return tol.rank_cut * max(top, 0.0)

