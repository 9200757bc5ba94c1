"""Pregroup types, reductions, and the link diagrams that drive composition.

A type is a sequence of adjoint-decorated atoms.  A sequence of word types
is grammatical for a target when repeated contractions of adjacent pairs
``a^(z) a^(z+1) -> 1`` erase everything except the target, read left to
right.  ``reduce`` decides this and returns a witness: a non-crossing set
of contraction links plus the residual wire positions.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ShapeError, TypeParseError

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\S+")

# Distinct type strings whose parse is kept, least recently used out.  A
# lexicon has few distinct type strings, and a parsed type is frozen, so
# every caller can share one result.
_TYPE_CACHE_SIZE = 1024


@dataclass(frozen=True, order=True)
class SimpleType:
    """A basic type with its adjoint order: -1 left adjoint, +1 right adjoint."""

    base: str
    z: int = 0

    def __str__(self):
        suffix = "^l" * max(-self.z, 0) + "^r" * max(self.z, 0)
        return self.base + suffix


@dataclass(frozen=True)
class PregroupType:
    """An ordered product of simple types; the empty product is the unit."""

    simples: tuple[SimpleType, ...] = ()

    def __len__(self):
        return len(self.simples)

    def __iter__(self):
        return iter(self.simples)

    def __add__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(self.simples + other.simples)

    def __str__(self):
        return format_type(self)


@functools.lru_cache(maxsize=_TYPE_CACHE_SIZE)
def parse_type(text: str) -> PregroupType:
    """Parse a whitespace-separated type string such as ``"n n^r s n^l n"``.

    Adjoint markers ``^l`` and ``^r`` may repeat (``n^l^l`` is the second
    left adjoint).  Raises with the character position on malformed input.
    Results are cached per string; a malformed string is not, so it raises
    every time.
    """
    simples = []
    for token_match in _TOKEN_RE.finditer(text):
        token = token_match.group()
        pos = token_match.start()
        atom_match = _ATOM_RE.match(token)
        if atom_match is None:
            raise TypeParseError(f"expected an atom, found {token!r}", pos)
        base = atom_match.group()
        rest = token[atom_match.end():]
        z = 0
        while rest:
            if rest.startswith("^l"):
                z -= 1
            elif rest.startswith("^r"):
                z += 1
            else:
                raise TypeParseError(
                    f"expected ^l or ^r after {base!r}, found {rest!r}",
                    pos + atom_match.end(),
                )
            rest = rest[2:]
        simples.append(SimpleType(base, z))
    return PregroupType(tuple(simples))


def format_type(ptype: PregroupType) -> str:
    return " ".join(str(s) for s in ptype.simples)


def contractible(left: SimpleType, right: SimpleType) -> bool:
    """Whether the adjacent pair ``left right`` contracts to the unit."""
    return left.base == right.base and right.z == left.z + 1


@dataclass(frozen=True)
class ReductionDiagram:
    """A witness that a type sequence reduces to a target.

    ``links`` are contraction pairs over positions of the concatenated
    simple-type sequence, sorted and mutually non-crossing; ``residuals``
    are the surviving positions, in order equal to the target.
    """

    source: PregroupType
    links: tuple[tuple[int, int], ...]
    residuals: tuple[int, ...]
    target: PregroupType

    def validate(self):
        """Check every structural invariant; raises ``ShapeError`` on violation."""
        simples = self.source.simples
        n = len(simples)
        seen = set()
        for i, j in self.links:
            if not (0 <= i < j < n):
                raise ShapeError(f"link ({i}, {j}) out of range for {n} positions")
            seen.update((i, j))
            if not contractible(simples[i], simples[j]):
                raise ShapeError(
                    f"link ({i}, {j}) joins non-contractible {simples[i]} {simples[j]}"
                )
        if len(seen) != 2 * len(self.links):
            raise ShapeError("links share a position")
        for a, (i, j) in enumerate(self.links):
            for k, l in self.links[a + 1:]:
                if i < k < j < l or k < i < l < j:
                    raise ShapeError(f"links ({i},{j}) and ({k},{l}) cross")
        if set(self.residuals) & seen or list(self.residuals) != sorted(
            set(range(n)) - seen
        ):
            raise ShapeError("residuals must be exactly the unlinked positions, in order")
        for i, j in self.links:
            if any(i < r < j for r in self.residuals):
                raise ShapeError(f"link ({i},{j}) spans a residual wire")
        got = tuple(simples[r] for r in self.residuals)
        if got != self.target.simples:
            raise ShapeError(
                f"residual types {[str(s) for s in got]} do not match target"
                f" {[str(s) for s in self.target.simples]}"
            )


def reduce(
    seq: Iterable[PregroupType], target: PregroupType
) -> Optional[ReductionDiagram]:
    """Find the lexicographically least contraction diagram, or ``None``.

    Links earlier in the sequence are preferred, and for a fixed opener the
    nearest partner wins, which makes repeated calls reproducible and keeps
    simple sentences looking like their textbook reductions.
    """
    source = PregroupType(())
    for ptype in seq:
        source = source + ptype
    simples = source.simples
    wanted = target.simples
    n = len(simples)

    @functools.cache
    def closed(a: int, b: int) -> Optional[tuple[tuple[int, int], ...]]:
        """The least links contracting positions [a, b) to the unit, or ``None``."""
        if a == b:
            return ()
        for j in range(a + 1, b, 2):
            if contractible(simples[a], simples[j]):
                inner = closed(a + 1, j)
                rest = None if inner is None else closed(j + 1, b)
                if rest is not None:
                    return ((a, j),) + inner + rest
        return None

    @functools.cache
    def links(i: int, t: int) -> Optional[tuple[tuple[int, int], ...]]:
        """The least links leaving exactly ``wanted[t:]`` from [i, n), or ``None``.

        A residual is kept at ``i`` only when no link from ``i`` fits.
        """
        if i == n:
            return () if t == len(wanted) else None
        for j in range(i + 1, n, 2):
            if contractible(simples[i], simples[j]):
                inner = closed(i + 1, j)
                rest = None if inner is None else links(j + 1, t)
                if rest is not None:
                    return ((i, j),) + inner + rest
        if t < len(wanted) and simples[i] == wanted[t]:
            return links(i + 1, t + 1)
        return None

    try:
        found = links(0, 0)
    except RecursionError:
        raise ShapeError(f"{n} simple types are too long for the reducer's search") from None
    if found is None:
        return None
    linked = {p for link in found for p in link}
    diagram = ReductionDiagram(
        source=source,
        links=found,
        residuals=tuple(p for p in range(n) if p not in linked),
        target=target,
    )
    diagram.validate()
    return diagram


def is_grammatical(seq: Iterable[PregroupType], sentence_atom: str = "s") -> bool:
    """Whether the word types reduce to the bare sentence type."""
    return reduce(seq, PregroupType((SimpleType(sentence_atom, 0),))) is not None
