"""Density-matrix meaning representations and graded comparison measures.

A word (or sentence) meaning is a real positive-semidefinite operator.  Two
measures compare them: fidelity, a symmetric similarity score, and
representativeness, an asymmetric entailment score derived from quantum
relative entropy.  Representativeness induces a preorder: ``rho`` precedes
``sigma`` exactly when the support of ``rho`` lies inside the support of
``sigma``, which is the operator analogue of the distributional inclusion
hypothesis.

All logarithms are base 2 unless a different ``base`` is requested; a base
change only rescales relative entropy, never the order it induces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import DegenerateInputError, DensemError, ShapeError
from .spectral import DEFAULT_TOL, EigenSystem, Tolerance

INFINITE = math.inf

_NORMALIZED_ATOL = 1e-9

# The largest dense operator, in bytes, that an input may make the package
# build from fewer numbers than the operator holds.
_MAX_OPERATOR_BYTES = 1 << 30


class DensityMatrix:
    """An immutable real PSD operator, not necessarily of unit trace.

    Composition outputs legitimately carry trace below 1, so normalization
    is never implicit here; the measure functions normalize their inputs
    themselves, and ``normalized()`` returns an explicit unit-trace copy.

    The stored matrix is bitwise symmetric: every construction path stores
    ``(a + aT)/2``, and IEEE addition commutes, signed zeros included, so
    ``m[i, j]`` and ``m[j, i]`` hold the same bits.  ``lexicon.save`` formats
    only the upper triangle because of this.

    The public constructor checks its input and decomposes it once, as the
    one-matrix case of ``_stack``, which ``lexicon.load`` runs on every
    matrix of one dimension at once; the stored matrix and the cached
    eigensystem are then views into arrays of the whole stack.
    """

    __slots__ = ("_m", "_eig", "_source")

    def __init__(self, matrix):
        (dm,) = DensityMatrix._stack(np.asarray(matrix, dtype=float)[None])
        if isinstance(dm, DensemError):
            raise dm
        self._m, self._eig, self._source = dm._m, dm._eig, None

    @classmethod
    def _stack(cls, stack: np.ndarray) -> list:
        """``DensityMatrix(m)`` for each ``m`` of a ``(k, n, n)`` stack, with one
        LAPACK call; a matrix that the constructor refuses gives its error."""
        stored, systems = spectral._eigh_stack(stack)
        stored.setflags(write=False)
        out = []
        for m, es in zip(stored, systems):
            if isinstance(es, EigenSystem):
                if es.values[-1] < -spectral.rank_cutoff(es.values, DEFAULT_TOL):
                    es = DegenerateInputError(
                        f"matrix is not PSD: smallest eigenvalue {es.values[-1]:.6e}"
                    )
                else:
                    dm = object.__new__(cls)
                    dm._m, dm._eig, dm._source = m, es, None
                    es = dm
            out.append(es)
        return out

    @classmethod
    def _trusted(cls, matrix) -> "DensityMatrix":
        """Wrap a matrix known PSD by construction, skipping the eigencheck."""
        self = object.__new__(cls)
        self._set(matrix)
        return self

    def _set(self, matrix):
        m = spectral.symmetrize(matrix)
        m.setflags(write=False)
        self._m = m
        self._eig = None
        # (parent, op, x) when this operator is op(parent, x) for a positive
        # scalar x: its eigensystem is then the parent's with op applied to
        # the values.
        self._source = None

    @property
    def matrix(self) -> np.ndarray:
        return self._m.copy()

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self._m))

    @property
    def is_normalized(self) -> bool:
        return abs(self.trace - 1.0) <= _NORMALIZED_ATOL

    def eigensystem(self) -> EigenSystem:
        """The cached decomposition; computed at most once per operator family."""
        if self._eig is None:
            if self._source is None:
                self._eig = spectral.eigh(self._m)
            else:
                parent, op, x = self._source
                es = parent.eigensystem()
                self._eig = EigenSystem(values=op(es.values, x), vectors=es.vectors)
        return self._eig

    def normalized(self) -> "DensityMatrix":
        tr = self.trace
        if tr <= 0.0:
            raise DegenerateInputError("cannot normalize an operator with zero trace")
        if self.is_normalized:
            return self
        # Divide rather than multiply by 1/tr, which overflows for a subnormal trace.
        return self._rescaled(np.divide, tr)

    def scaled(self, factor: float) -> "DensityMatrix":
        if factor <= 0.0:
            raise DegenerateInputError(f"scale factor must be positive, got {factor}")
        return self._rescaled(np.multiply, factor)

    def _rescaled(self, op, x: float) -> "DensityMatrix":
        """``op(self, x)`` for a positive scalar ``x``, sharing this decomposition."""
        out = DensityMatrix._trusted(op(self._m, x))
        out._source = (self, op, x)
        return out

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, trace={self.trace:.6g})"


def pure(vector) -> DensityMatrix:
    """Rank-1 operator |v><v| for a nonzero vector ``v``."""
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size == 0 or not np.any(v != 0.0):
        raise DegenerateInputError("cannot build a pure state from the zero vector")
    return DensityMatrix._trusted(np.outer(v, v))


def mixture(weights, parts) -> DensityMatrix:
    """Weighted sum of PSD operators with strictly positive weights."""
    weights = [float(w) for w in weights]
    parts = list(parts)
    if not parts or len(weights) != len(parts):
        raise ShapeError(
            f"need equally many weights and parts, got {len(weights)} and {len(parts)}"
        )
    if any(w <= 0.0 for w in weights):
        raise DegenerateInputError("mixture weights must be strictly positive")
    dim = parts[0].dim
    if any(p.dim != dim for p in parts):
        raise ShapeError("mixture parts must share one dimension")
    acc = np.zeros((dim, dim))
    for w, p in zip(weights, parts):
        acc += w * p._m
    return DensityMatrix._trusted(acc)


def _require_same_dim(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")


def fidelity(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerance | None = None
) -> float:
    """tr sqrt(sqrt(rho) sigma sqrt(rho)) on internally normalized inputs.

    Symmetric, in [0, 1], equal to 1 only at equality, and reducing to the
    absolute inner product |<u|v>| on pure states.
    """
    _require_same_dim(rho, sigma)
    tol = tol or DEFAULT_TOL
    es = rho.normalized().eigensystem()
    # H = V sqrt(lambda), over every column of rho's eigensystem so that F stays
    # symmetric near the rank cut, gives H^T sigma H = V^T (sqrt(rho) sigma
    # sqrt(rho)) V: the same eigenvalues.  Round-off below zero counts as zero.
    half = es.vectors * np.sqrt(np.clip(es.values, 0.0, None))
    inner = half.T @ sigma.normalized()._m @ half
    # The product is symmetric in exact arithmetic.  Average away its round-off
    # asymmetry, which on orthogonal supports is as large as every entry and
    # so fails the symmetry check, relative to the largest entry, in ``eigh``.
    values = spectral.eigh((inner + inner.T) / 2.0).values
    # Eigenvalues of the inner product below the rank cut are round-off noise
    # whose square roots would otherwise pollute the trace.
    f = float(np.sum(np.sqrt(values[values > spectral.rank_cutoff(values, tol)])))
    return min(max(f, 0.0), 1.0)


def _sigma_weights(rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerance):
    """The weights ``p_j = <v_j|rho|v_j>`` of ``rho`` on ``sigma``'s eigenvectors.

    ``p = diag(V^T rho V)`` takes one n x n product off ``sigma``'s cached
    eigensystem.  Returns ``(leak, p, mu)``: the leak of ``rho`` into
    ``sigma``'s kernel, ``sum p_j`` over the kernel columns, which is
    ``tr(K rho K)`` in any basis; then the weights and the eigenvalues
    ``mu_j`` of ``sigma`` on its support.
    """
    es = sigma.eigensystem()
    p = np.einsum("ij,ij->j", es.vectors, rho._m @ es.vectors)
    keep = es.values > spectral.rank_cutoff(es.values, tol)
    return float(np.sum(p[~keep])), p[keep], es.values[keep]


def supp_leq(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerance | None = None
) -> bool:
    """Whether the support of ``rho`` is contained in the support of ``sigma``.

    Tested spectrally: the trace of ``rho`` on the kernel of ``sigma`` must
    vanish relative to the trace of ``rho``.
    """
    _require_same_dim(rho, sigma)
    tol = tol or DEFAULT_TOL
    return _sigma_weights(rho, sigma, tol)[0] <= tol.rank_cut * rho.trace


def _plogp(rho: DensityMatrix, tol: Tolerance) -> float:
    """tr(rho log2 rho) over the eigenvalues of ``rho`` above the rank cut."""
    values = rho.eigensystem().values
    lam = values[values > spectral.rank_cutoff(values, tol)]
    return float(np.sum(lam * np.log2(lam)))


def relative_entropy(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    base: float = 2.0,
    tol: Tolerance | None = None,
) -> float:
    """tr(rho log rho) - tr(rho log sigma), INFINITE on kernel overlap.

    Inputs are normalized internally.  Logarithms act on supports only, so
    the 0*log(0) = 0 convention holds; mass of ``rho`` inside the kernel of
    ``sigma`` makes the divergence infinite.
    """
    _require_same_dim(rho, sigma)
    tol = tol or DEFAULT_TOL
    r = rho.normalized()
    leak, p, mu = _sigma_weights(r, sigma.normalized(), tol)
    if not leak <= tol.rank_cut * r.trace:
        return INFINITE
    value = max(_plogp(r, tol) - float(np.sum(p * np.log2(mu))), 0.0)
    if base != 2.0:
        value /= math.log2(base)
    return value


def representativeness(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    base: float = 2.0,
    tol: Tolerance | None = None,
) -> float:
    """1 / (1 + relative entropy); exactly 0 when the divergence is infinite."""
    n = relative_entropy(rho, sigma, base=base, tol=tol)
    if math.isinf(n):
        return 0.0
    return 1.0 / (1.0 + n)


def von_neumann_entropy(rho: DensityMatrix, base: float = 2.0) -> float:
    """-tr(rho log rho) of the normalized input; log2(dim) at maximal mixing."""
    r = rho.normalized()
    value = max(-_plogp(r, DEFAULT_TOL), 0.0)
    if base != 2.0:
        value /= math.log2(base)
    return value


def equivalent(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerance | None = None
) -> bool:
    """Mutual precedence, i.e. equal supports."""
    return supp_leq(rho, sigma, tol) and supp_leq(sigma, rho, tol)


class Relation(enum.Enum):
    HYPONYM = "hyponym"
    HYPERNYM = "hypernym"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class EntailmentVerdict:
    """Directional representativeness scores plus the induced relation."""

    forward: float
    backward: float
    relation: Relation


def classify(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    threshold: float = 0.0,
    base: float = 2.0,
    tol: Tolerance | None = None,
) -> EntailmentVerdict:
    """Classify the pair by thresholding representativeness both ways.

    With the default threshold 0 this is the pure support criterion; any
    positive threshold gives stricter graded judgments at the documented
    cost of transitivity.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    forward = representativeness(rho, sigma, base=base, tol=tol)
    backward = representativeness(sigma, rho, base=base, tol=tol)
    fwd, bwd = forward > threshold, backward > threshold
    if fwd and bwd:
        relation = Relation.EQUIVALENT
    elif fwd:
        relation = Relation.HYPONYM
    elif bwd:
        relation = Relation.HYPERNYM
    else:
        relation = Relation.INCOMPARABLE
    return EntailmentVerdict(forward=forward, backward=backward, relation=relation)
