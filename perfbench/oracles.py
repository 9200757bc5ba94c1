"""Correctness oracles that use no densem numerics.

Word verdicts come from exact ranks of the generator's 0/1 record vectors:
a subsets-built operator is a positive sum of projectors onto those
vectors, so its support is their span, and a taxonomy mixture's support is
the span of its children's vectors. Grammaticality of the benchmark's type
sequences is decided by a greedy contraction stack (sound when it reduces)
and two sound refutations (odd parity, a leading right adjoint with no
double adjoint anywhere).
"""

from __future__ import annotations

from fractions import Fraction


def rank(rows) -> int:
    """Exact rank over the rationals of a list of integer row vectors."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][col] != 0:
                factor = work[i][col] / work[r][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


class SupportOracle:
    """Support-inclusion verdicts for words given by their record vectors."""

    def __init__(self, rows_by_word: dict[str, list[tuple[int, ...]]]):
        self._rows = rows_by_word
        self._rank = {w: rank(rows) for w, rows in rows_by_word.items()}
        self._included: dict[tuple[str, str], bool] = {}

    def included(self, a: str, b: str) -> bool:
        key = (a, b)
        if key not in self._included:
            joint = rank(self._rows[a] + self._rows[b])
            self._included[key] = joint == self._rank[b]
        return self._included[key]

    def relation(self, a: str, b: str) -> str:
        fwd, bwd = self.included(a, b), self.included(b, a)
        if fwd and bwd:
            return "equivalent"
        if fwd:
            return "hyponym"
        if bwd:
            return "hypernym"
        return "incomparable"


def _parse(type_text: str) -> list[tuple[str, int]]:
    out = []
    for token in type_text.split():
        base, *marks = token.split("^")
        out.append((base, sum(1 if m == "r" else -1 for m in marks)))
    return out


def grammatical(type_texts, target: str = "s") -> bool | None:
    """True if the types reduce to ``target``, False if provably not, None if unsure."""
    simples = [s for text in type_texts for s in _parse(text)]
    goal = _parse(target)
    stack: list[tuple[str, int]] = []
    for base, z in simples:
        if stack and stack[-1][0] == base and z == stack[-1][1] + 1:
            stack.pop()
        else:
            stack.append((base, z))
    if stack == goal:
        return True
    if (len(simples) - len(goal)) % 2:
        return False
    if simples[0][1] == 1 and goal[0] != simples[0] and all(z < 2 for _, z in simples):
        return False
    return None
