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

from .errors import DensemError, NumericFailure, ShapeError

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


def _refusal(n: int, scale: float, skew: float) -> DensemError | None:
    """The error ``eigh`` raises for an n x n matrix of largest magnitude
    ``scale`` and asymmetry ``skew``, or None."""
    # A NaN or an infinite entry makes the largest magnitude non-finite.
    if not math.isfinite(scale):
        return NumericFailure(f"{n}x{n} matrix has non-finite entries")
    # Asymmetry is judged relative to the largest entry.
    if skew > SYMMETRY_TOL * scale:
        return ShapeError(f"matrix is not symmetric: max |a - aT| = {skew:.3e}")
    return None


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
        scale = float(abs(a).max())
        skew = float(abs(a - a.T).max()) if math.isfinite(scale) else math.nan
        if not skew <= SYMMETRY_TOL * scale:
            raise _refusal(a.shape[0], scale, skew)
    return (a + a.T) / 2.0


def eigh(a) -> EigenSystem:
    """Eigendecomposition of a real symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues in descending order.  Each eigenvector is signed so
    its first nonzero component is positive, and exact ties are broken by
    putting the lexicographically largest eigenvector first, so identical
    inputs give identical outputs on one platform.
    """
    (result,) = _eigh_stack(np.asarray(a, dtype=float)[None])[1]
    if isinstance(result, DensemError):
        raise result
    return result


# Past half the largest double, ``a + aT`` can overflow.
_HALF_MAX = float(np.finfo(float).max) / 2.0


def _eigh_stack(a: np.ndarray) -> tuple[np.ndarray, list]:
    """``eigh`` of each matrix of a ``(k, n, n)`` stack, with one LAPACK call.

    Returns the stack symmetrized, ``(a + aT)/2``, and for each matrix its
    ``EigenSystem`` or the ``DensemError`` that ``eigh`` raises for it
    alone; a refused matrix is zero in the returned stack.  The systems'
    arrays are views into arrays of the whole stack, and each system's
    vectors are column-major.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape[1:]}")
    k, n, _ = a.shape
    if n == 0:
        raise ShapeError("cannot decompose an empty matrix")
    scales = abs(a).max(axis=(1, 2)).tolist()
    # The scales are non-negative, so their sum is NaN, infinite or past
    # half the largest double, where a + aT can overflow, whenever one of
    # them is.
    huge = not sum(scales) <= _HALF_MAX
    if huge:
        # Zero each matrix with a NaN or an infinite entry, so that no
        # arithmetic below sees it; its scale keeps it refused.
        a = np.where(np.isfinite(scales)[:, None, None], a, 0.0)
    at = a.transpose(0, 2, 1)
    sym = a + at
    sym *= 0.5
    verdicts = [None] * k
    if huge or (a != at).any():
        skews = abs(a - at).max(axis=(1, 2)).tolist()
        verdicts = [_refusal(n, scale, skew) for scale, skew in zip(scales, skews)]
        if huge:
            # Where a + aT overflowed, the symmetrized matrix is non-finite.
            for i in np.flatnonzero(~np.isfinite(sym).all(axis=(1, 2))).tolist():
                verdicts[i] = verdicts[i] or _refusal(n, math.inf, 0.0)
        # LAPACK sees a refused matrix as zero.
        sym[[i for i, verdict in enumerate(verdicts) if verdict]] = 0.0
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as err:
        # LAPACK reports a failure for the whole stack.
        failure = NumericFailure(f"eigensolver failed for a {n}x{n} matrix: {err}")
        return sym, [verdict or failure for verdict in verdicts]
    # LAPACK returns ascending values, so reversed they descend.  Each
    # eigenvector is kept as a row of ``rows`` until the end.  ``load``
    # decomposes every word of one dimension at once, so each temporary
    # stack is freed as soon as it is used.
    values = values[:, ::-1].copy()
    rows = vectors.transpose(0, 2, 1)[:, ::-1].copy()
    del vectors
    flat = rows.reshape(k * n, n)
    lead = (abs(flat) > 1e-12).argmax(axis=1)
    # The lead component of a unit vector is non-zero, so its sign is +-1.
    flat *= np.copysign(1.0, flat[np.arange(k * n), lead])[:, None]
    if (values[:, :-1] <= values[:, 1:]).any():
        # An exact tie.  lexsort's last key is the primary one: descending
        # values, then the vectors compared component by component, largest
        # first.  A matrix with no tie keeps its order.
        keys = np.concatenate((rows.transpose(2, 0, 1)[::-1], values[None]))
        order = np.lexsort(np.negative(keys, out=keys))
        del keys
        stack = np.arange(k)[:, None]
        values, rows = values[stack, order], rows[stack, order]
    # Each system's vectors are then column-major.
    vectors = rows.transpose(0, 2, 1)
    return sym, [
        EigenSystem(values=w, vectors=v) if verdict is None else verdict
        for verdict, w, v in zip(verdicts, values, vectors)
    ]


def rank_cutoff(values: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    """The absolute eigenvalue below which ``values`` (descending) count as zero."""
    top = float(values[0]) if len(values) else 0.0
    return tol.rank_cut * max(top, 0.0)

