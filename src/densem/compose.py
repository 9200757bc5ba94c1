"""From word operators to sentence operators by diagram-driven contraction.

Every word carries a PSD operator on the tensor product of the meaning
spaces of its type's atoms, one "wire" per simple type.  A reduction
diagram turns a sequence of words into a single operator: each link
contracts the row indices of its two wires against each other and,
separately, the column indices (the doubled form of the evaluation map,
which keeps outputs symmetric and positive by construction).  Residual
wires, in diagram order, make up the output operator.

Composition never normalizes: sentence operators legitimately carry trace
below one, and the measures normalize on their own.

The word tensors are contracted pairwise, in the order ``np.einsum_path``
plans greedily.  One einsum loop over every label at once would run over
the product of all their dimensions: (8^4 * 2)^2, about 67M steps, for
"adjective noun verb adjective noun" at n=8, s=2.  A plan depends only on
the labels and the shapes, so it is made once per contraction shape and
cached as a list of steps, each a ready subscripts string such as
``"adcehg,cg->adeh"`` over the operands it pops.  ``compose`` replays the
steps with one plain ``np.einsum`` call each, so numpy's per-call
subscript parsing and path search run once per shape, not once per call.
Each link and each residual wire takes one row and one column label, and
numpy's einsum has 52, so a diagram reaches 26 links plus residuals; a
longer one is a ``ShapeError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .density import DensityMatrix, pure
from .errors import RegistryError, ShapeError
from .pregroup import PregroupType, ReductionDiagram, SimpleType, parse_type


# Distinct contraction shapes whose plan is kept, least recently used out.
_PLAN_CACHE_SIZE = 256

# The subscripts np.einsum accepts; label k is written _LETTERS[k].
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_EINSUM_LABELS = len(_LETTERS)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _contraction_plan(
    labels: tuple[tuple[int, ...], ...],
    shapes: tuple[tuple[int, ...], ...],
    out_labels: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], str], ...]:
    """The greedy pairwise contraction order for operands of these shapes.

    Each step is ``(positions, subscripts)``: pop the operands at
    ``positions`` (descending, so earlier pops leave later positions in
    place), contract them with ``np.einsum(subscripts, *popped)`` and
    append the result.  A result keeps the labels that a remaining operand
    or the output still needs; the last step's result is the output.
    """
    operands = []
    for operand_labels, shape in zip(labels, shapes):
        # Planning reads shapes only; a broadcast scalar stands in for the data.
        operands.extend((np.broadcast_to(0.0, shape), list(operand_labels)))
    path, _ = np.einsum_path(*operands, list(out_labels), optimize="greedy")

    def letters(operand_labels):
        return "".join(_LETTERS[k] for k in operand_labels)

    pending = list(labels)
    steps = []
    for contraction in path[1:]:
        positions = tuple(sorted(contraction, reverse=True))
        popped = [pending.pop(p) for p in positions]
        if pending:
            needed = set(out_labels).union(*pending)
            result = tuple(sorted(set().union(*popped) & needed))
        else:
            result = out_labels
        pending.append(result)
        steps.append(
            (positions, ",".join(map(letters, popped)) + "->" + letters(result))
        )
    return tuple(steps)


class SpaceRegistry:
    """Named meaning spaces: one per basic-type atom, with labeled bases."""

    def __init__(self):
        self._spaces: dict[str, tuple[str, ...]] = {}

    def register(self, atom: str, labels: Sequence[str]) -> "SpaceRegistry":
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise RegistryError(f"space {atom!r} needs at least one basis label")
        if len(set(labels)) != len(labels):
            raise RegistryError(f"space {atom!r} has duplicate basis labels")
        if atom in self._spaces and self._spaces[atom] != labels:
            raise RegistryError(f"space {atom!r} is already registered differently")
        self._spaces[atom] = labels
        return self

    def atoms(self) -> tuple[str, ...]:
        return tuple(self._spaces)

    def labels(self, atom: str) -> tuple[str, ...]:
        try:
            return self._spaces[atom]
        except KeyError:
            raise RegistryError(f"unknown meaning space {atom!r}") from None

    def dim(self, atom: str) -> int:
        return len(self.labels(atom))

    def index(self, atom: str, label: str) -> int:
        labels = self.labels(atom)
        try:
            return labels.index(label)
        except ValueError:
            raise RegistryError(f"space {atom!r} has no basis label {label!r}") from None

    def vector(self, atom: str, coords: Mapping[str, float]) -> np.ndarray:
        """Dense vector for a sparse label -> coefficient mapping."""
        out = np.zeros(self.dim(atom))
        for label, value in coords.items():
            out[self.index(atom, label)] = float(value)
        return out

    def type_dims(self, ptype: PregroupType) -> tuple[int, ...]:
        """Wire dimensions for a type; adjoints live in the same space."""
        return tuple(self.dim(s.base) for s in ptype.simples)


@dataclass(frozen=True)
class WordMeaning:
    """A word label, its pregroup type, and its operator over the type's wires.

    ``wire_dims`` follows the type's simple types in order; the operator's
    dimension is their product, with row-major multi-indexing.
    """

    word: str
    ptype: PregroupType
    dm: DensityMatrix
    wire_dims: tuple[int, ...]

    def __post_init__(self):
        expected = math.prod(self.wire_dims) if self.wire_dims else 1
        if len(self.wire_dims) != len(self.ptype.simples):
            raise ShapeError(
                f"{self.word!r}: {len(self.wire_dims)} wire dims for a type of"
                f" {len(self.ptype.simples)} simple types"
            )
        if self.dm.dim != expected:
            raise ShapeError(
                f"{self.word!r}: operator dimension {self.dm.dim} does not match"
                f" the product of wire dims {self.wire_dims}"
            )

    @classmethod
    def for_type(
        cls, registry: SpaceRegistry, word: str, ptype: PregroupType | str, dm: DensityMatrix
    ) -> "WordMeaning":
        if isinstance(ptype, str):
            ptype = parse_type(ptype)
        return cls(word=word, ptype=ptype, dm=dm, wire_dims=registry.type_dims(ptype))


def compose(
    words: Sequence[WordMeaning],
    diagram: ReductionDiagram,
    registry: SpaceRegistry,
) -> WordMeaning:
    """Contract word operators along a reduction diagram.

    The concatenated word types must equal the diagram's source; linked
    wires must agree in dimension.  The output is typed by the diagram's
    target and is PSD with trace at most the product of the input traces.
    """
    diagram.validate()
    concat: tuple[SimpleType, ...] = ()
    dims: list[int] = []
    for w in words:
        concat = concat + w.ptype.simples
        dims.extend(w.wire_dims)
    if concat != diagram.source.simples:
        raise ShapeError(
            "concatenated word types "
            f"{[str(s) for s in concat]} do not match the diagram source "
            f"{[str(s) for s in diagram.source.simples]}"
        )
    for i, j in diagram.links:
        if dims[i] != dims[j]:
            raise ShapeError(
                f"link ({i}, {j}) joins wires of dimensions {dims[i]} and {dims[j]}"
            )

    # One label per link and per residual wire: a link's two wires share
    # it.  Rows take label k and columns k + m.
    m = len(diagram.links) + len(diagram.residuals)
    if 2 * m > _EINSUM_LABELS:
        raise ShapeError(
            f"diagram needs {2 * m} contraction labels; numpy's einsum takes"
            f" {_EINSUM_LABELS}, so at most {_EINSUM_LABELS // 2} links plus residuals"
        )
    label: dict[int, int] = {}
    for k, (i, j) in enumerate(diagram.links):
        label[i] = label[j] = k
    for k, p in enumerate(diagram.residuals, start=len(diagram.links)):
        label[p] = k

    tensors = []
    labels = []
    position = 0
    for w in words:
        r = len(w.wire_dims)
        wire_positions = range(position, position + r)
        # The read-only matrix itself: einsum reads it, nothing writes it.
        tensors.append(w.dm._m.reshape(tuple(dims[p] for p in wire_positions) * 2))
        labels.append(
            tuple(label[p] for p in wire_positions)
            + tuple(label[p] + m for p in wire_positions)
        )
        position += r
    out_labels = tuple(label[p] for p in diagram.residuals) + tuple(
        label[p] + m for p in diagram.residuals
    )
    if tensors:
        plan = _contraction_plan(
            tuple(labels), tuple(tensor.shape for tensor in tensors), out_labels
        )
        for positions, subscripts in plan:
            popped = [tensors.pop(p) for p in positions]
            tensors.append(np.einsum(subscripts, *popped))
        (contracted,) = tensors
    else:
        contracted = np.array(1.0)

    out_dim = math.prod(dims[p] for p in diagram.residuals) if diagram.residuals else 1
    matrix = contracted.reshape(out_dim, out_dim)
    matrix = (matrix + matrix.T) / 2.0
    return WordMeaning(
        word=" ".join(w.word for w in words),
        ptype=diagram.target,
        dm=DensityMatrix._trusted(matrix),
        wire_dims=tuple(dims[p] for p in diagram.residuals),
    )


def compose_kronecker(verb_mat, subj: DensityMatrix, obj: DensityMatrix) -> DensityMatrix:
    """Closed-form composition: pure(flatten(verb)) entrywise-multiplied
    with subj (x) obj.

    The verb table has one row per subject basis vector and one column per
    object basis vector; flattening is subject-major.  Both factors of the
    entrywise product are PSD, so the result is PSD by the Schur product
    theorem.  No normalization is applied.
    """
    table = np.asarray(verb_mat, dtype=float)
    if table.ndim != 2:
        raise ShapeError(f"verb table must be a matrix, got shape {table.shape}")
    if table.shape != (subj.dim, obj.dim):
        raise ShapeError(
            f"verb table shape {table.shape} does not match subject dim"
            f" {subj.dim} and object dim {obj.dim}"
        )
    verb_state = pure(table.reshape(-1))
    product = verb_state.matrix * np.kron(subj.matrix, obj.matrix)
    return DensityMatrix._trusted(product)
