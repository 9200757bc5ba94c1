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
"adjective noun verb adjective noun" at n=8, s=2.

Everything but the word data depends only on the sentence shape: the
diagram and the wire dims of each word.  So ``compose`` keeps one program
per shape, made and cached on first use: the diagram's own check, the
link-dimension check, the einsum labels, the operand and output shapes,
and the plan as a list of steps, each a ready subscripts string such as
``"adcehg,cg->adeh"`` over the operands it pops.  A call checks only that
the words' types match the diagram's source, then replays the steps with
one plain ``np.einsum`` call each, so numpy's subscript parsing and path
search run once per shape, not once per call.  Each link and each residual
wire takes one row and one column label, and numpy's einsum has 52, so a
diagram reaches 26 links plus residuals; a longer one is a ``ShapeError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .density import DensityMatrix, pure
from .errors import RegistryError, ShapeError
from .pregroup import PregroupType, ReductionDiagram, parse_type


# Distinct (diagram, wire dims) shapes whose program is kept, least
# recently used out.
_PROGRAM_CACHE_SIZE = 256

# The subscripts np.einsum accepts; label k is written _LETTERS[k].
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_EINSUM_LABELS = len(_LETTERS)


class _Program(NamedTuple):
    """Everything ``compose`` needs that depends only on the sentence shape.

    ``shapes[w]`` reshapes word ``w``'s matrix into one row and one column
    axis per wire, whose labels are ``labels[w]``; ``out_labels`` label the
    output's axes.  Each step is ``(positions, subscripts)``: pop the
    operands at ``positions`` (descending, so earlier pops leave later
    positions in place), contract them with ``np.einsum(subscripts,
    *popped)`` and append the result, which keeps the labels that a
    remaining operand or the output still needs; the last step's result is
    the output, reshaped to ``out_shape`` and typed by wires of ``out_dims``.
    """

    shapes: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, ...], ...]
    out_labels: tuple[int, ...]
    steps: tuple[tuple[tuple[int, ...], str], ...]
    out_dims: tuple[int, ...]
    out_shape: tuple[int, int]


@functools.lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _program(
    diagram: ReductionDiagram, wire_dims: tuple[tuple[int, ...], ...]
) -> _Program:
    """Check and plan the contraction of words with these wire dims along
    ``diagram``; the words' types must already match its source."""
    diagram.validate()
    dims = [d for word_dims in wire_dims for d in word_dims]
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

    labels = []
    position = 0
    for word_dims in wire_dims:
        rows = tuple(label[p] for p in range(position, position + len(word_dims)))
        labels.append(rows + tuple(k + m for k in rows))
        position += len(word_dims)
    rows = tuple(label[p] for p in diagram.residuals)
    out_labels = rows + tuple(k + m for k in rows)
    shapes = tuple(word_dims * 2 for word_dims in wire_dims)
    out_dims = tuple(dims[p] for p in diagram.residuals)
    out_dim = math.prod(out_dims)
    return _Program(
        shapes=shapes,
        labels=tuple(labels),
        out_labels=out_labels,
        steps=_contraction_steps(labels, shapes, out_labels) if labels else (),
        out_dims=out_dims,
        out_shape=(out_dim, out_dim),
    )


def _contraction_steps(labels, shapes, out_labels):
    """The greedy pairwise contraction order for operands of these shapes,
    as the steps of a ``_Program``."""
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
    concat = tuple(chain.from_iterable(w.ptype.simples for w in words))
    if concat != diagram.source.simples:
        raise ShapeError(
            "concatenated word types "
            f"{[str(s) for s in concat]} do not match the diagram source "
            f"{[str(s) for s in diagram.source.simples]}"
        )
    program = _program(diagram, tuple(w.wire_dims for w in words))

    # The read-only matrices themselves: einsum reads them, nothing writes them.
    tensors = [w.dm._m.reshape(shape) for w, shape in zip(words, program.shapes)]
    for positions, subscripts in program.steps:
        popped = [tensors.pop(p) for p in positions]
        tensors.append(np.einsum(subscripts, *popped))
    contracted = tensors[0] if tensors else np.array(1.0)

    matrix = contracted.reshape(program.out_shape)
    matrix = (matrix + matrix.T) / 2.0
    return WordMeaning(
        word=" ".join(w.word for w in words),
        ptype=diagram.target,
        dm=DensityMatrix._trusted(matrix),
        wire_dims=program.out_dims,
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
