"""Independent oracles shared by the test modules.

Everything here is deliberately naive and self-contained: quadratic-formula
eigenvalues, support projectors straight from ``np.linalg.eigh``, explicit
multi-index contraction loops, and exhaustive enumeration of link
structures.  None of it calls into the production numerics it is used to
check.
"""

import itertools
import math

import numpy as np


def eig2(a, b, c):
    """Eigenvalues of [[a, b], [b, c]], descending, by the quadratic formula."""
    mean = (a + c) / 2.0
    disc = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean + disc, mean - disc


def support_projector_oracle(matrix, rank_cut=1e-9):
    """Projector onto the eigenvectors whose eigenvalue exceeds ``rank_cut``
    times the largest one, straight from ``np.linalg.eigh``."""
    values, vectors = np.linalg.eigh(np.asarray(matrix, dtype=float))
    kept = vectors[:, values > rank_cut * max(values[-1], 0.0)]
    proj = kept @ kept.T
    return (proj + proj.T) / 2.0


def relent2_pure_oracle(basis_index, sigma, base=2.0):
    """Relative entropy of the pure basis state against a 2x2 density matrix.

    Closed form: the pure state contributes nothing to tr(rho log rho), so
    the divergence is minus the log-spectrum of sigma weighted by the
    squared eigenvector components at ``basis_index``.
    """
    a, b, c = float(sigma[0][0]), float(sigma[0][1]), float(sigma[1][1])
    hi, lo = eig2(a, b, c)
    if abs(b) < 1e-300:
        vectors = [(1.0, 0.0), (0.0, 1.0)] if a >= c else [(0.0, 1.0), (1.0, 0.0)]
    else:
        vectors = []
        for lam in (hi, lo):
            v = (b, lam - a)
            norm = math.hypot(*v)
            vectors.append((v[0] / norm, v[1] / norm))
    total = 0.0
    for lam, v in zip((hi, lo), vectors):
        weight = v[basis_index] ** 2
        if weight == 0.0:
            continue
        if lam <= 0.0:
            return math.inf
        total -= weight * math.log(lam, base)
    return total


def brute_contract(words, diagram):
    """Contract word operators by looping over every row/column multi-index."""
    dims = [d for w in words for d in w.wire_dims]
    mats = [w.dm.matrix for w in words]
    spans = []
    start = 0
    for w in words:
        spans.append(list(range(start, start + len(w.wire_dims))))
        start += len(w.wire_dims)
    res = list(diagram.residuals)
    out_dim = 1
    for p in res:
        out_dim *= dims[p]
    out = np.zeros((out_dim, out_dim))

    def flatten(index, positions):
        flat = 0
        for p in positions:
            flat = flat * dims[p] + index[p]
        return flat

    ranges = [range(d) for d in dims]
    for rows in itertools.product(*ranges):
        for cols in itertools.product(*ranges):
            if any(rows[i] != rows[j] or cols[i] != cols[j] for i, j in diagram.links):
                continue
            term = 1.0
            for mat, span in zip(mats, spans):
                term *= mat[flatten(rows, span), flatten(cols, span)]
                if term == 0.0:
                    break
            else:
                out[flatten(rows, res), flatten(cols, res)] += term
    return out


def perfect_matchings(lo, hi):
    """All non-crossing perfect matchings of positions [lo, hi)."""
    if lo == hi:
        yield []
        return
    for j in range(lo + 1, hi, 2):
        for inner in perfect_matchings(lo + 1, j):
            for rest in perfect_matchings(j + 1, hi):
                yield [(lo, j)] + inner + rest


def link_structures(n):
    """All (links, residuals) with every link's interior fully matched."""

    def go(i):
        if i == n:
            yield [], []
            return
        for links, residuals in go(i + 1):
            yield links, [i] + residuals
        for j in range(i + 1, n, 2):
            for inner in perfect_matchings(i + 1, j):
                for links, residuals in go(j + 1):
                    yield [(i, j)] + inner + links, residuals

    return go(0)


def enumerate_valid_links(simples, target):
    """Every valid contraction witness for the sequence, by brute force."""
    valid = []
    for links, residuals in link_structures(len(simples)):
        if any(
            not (simples[i].base == simples[j].base and simples[j].z == simples[i].z + 1)
            for i, j in links
        ):
            continue
        if tuple(simples[r] for r in residuals) != tuple(target.simples):
            continue
        valid.append(tuple(sorted(links)))
    return valid
