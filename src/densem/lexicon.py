"""Building word operators from co-occurrence data and persisting lexicons.

Mixed word operators come from feature-subset counts: each observation of
a word with a subset B of basis features contributes ``count`` times the
projector onto the uniform superposition of B.  Taxonomy nodes are convex
mixtures of their (normalized) children.  Verb tables accumulate weighted
subject/object vector pairs.

The on-disk form is a JSON document with three sections: ``spaces``,
``words``, and ``verbs``.  Matrix entries are stored as decimal strings
with 17 significant digits so double-precision values round-trip exactly.
``save`` writes compact one-line JSON, one entry at a time, and formats
each distinct number once: a word operator is stored bitwise symmetric, so
only its upper triangle is formatted.  ``load`` reads any JSON layout of
the same document, indented files included.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .compose import SpaceRegistry, WordMeaning
from .density import DensityMatrix, mixture, pure
from .errors import (
    LexiconFormatError,
    NumericFailure,
    RegistryError,
    ShapeError,
    UnknownWordError,
)
from .pregroup import format_type, parse_type


@dataclass(frozen=True)
class SubsetRecord:
    """One aggregated observation: a word seen ``count`` times with exactly
    the features in ``features``."""

    word: str
    features: frozenset[str]
    count: float

    def __post_init__(self):
        object.__setattr__(self, "features", frozenset(self.features))
        if not self.features:
            raise ShapeError(f"subset record for {self.word!r} has no features")
        if not self.count > 0.0:
            raise ShapeError(f"subset record for {self.word!r} needs a positive count")


@dataclass(frozen=True)
class PairRecord:
    """One weighted subject/object co-occurrence for a verb."""

    verb: str
    subj_vector: Mapping[str, float]
    obj_vector: Mapping[str, float]
    count: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "subj_vector", dict(self.subj_vector))
        object.__setattr__(self, "obj_vector", dict(self.obj_vector))
        if not self.count > 0.0:
            raise ShapeError(f"pair record for {self.verb!r} needs a positive count")


def build_from_subsets(
    records: Sequence[SubsetRecord], labels: Sequence[str]
) -> DensityMatrix:
    """Sum of count-weighted projectors onto uniform subset superpositions."""
    records = list(records)
    if not records:
        raise ShapeError("need at least one subset record")
    words = {r.word for r in records}
    if len(words) != 1:
        raise ShapeError(f"records mix several words: {sorted(words)}")
    index = {label: i for i, label in enumerate(labels)}
    dim = len(labels)
    acc = np.zeros((dim, dim))
    for record in records:
        psi = np.zeros(dim)
        for feature in record.features:
            if feature not in index:
                raise RegistryError(
                    f"unknown basis label {feature!r} for word {record.word!r}"
                )
            psi[index[feature]] = 1.0
        acc += record.count * np.outer(psi, psi)
    return DensityMatrix._trusted(acc)


def build_verb_from_pairs(
    records: Sequence[PairRecord],
    subject_labels: Sequence[str],
    object_labels: Sequence[str],
) -> np.ndarray:
    """Accumulate count * subj (x) obj into a subject-by-object table."""
    records = list(records)
    if not records:
        raise ShapeError("need at least one pair record")
    verbs = {r.verb for r in records}
    if len(verbs) != 1:
        raise ShapeError(f"records mix several verbs: {sorted(verbs)}")
    s_index = {label: i for i, label in enumerate(subject_labels)}
    o_index = {label: i for i, label in enumerate(object_labels)}
    table = np.zeros((len(subject_labels), len(object_labels)))
    for record in records:
        subj = np.zeros(len(subject_labels))
        for label, value in record.subj_vector.items():
            if label not in s_index:
                raise RegistryError(f"unknown subject label {label!r}")
            subj[s_index[label]] = float(value)
        obj = np.zeros(len(object_labels))
        for label, value in record.obj_vector.items():
            if label not in o_index:
                raise RegistryError(f"unknown object label {label!r}")
            obj[o_index[label]] = float(value)
        table += record.count * np.outer(subj, obj)
    return table


@dataclass(frozen=True)
class VerbTable:
    """A subject-by-object strength table for the closed-form composition."""

    subject_space: str
    object_space: str
    table: np.ndarray


class Lexicon:
    """A registry of meaning spaces plus named word operators and verb tables."""

    def __init__(self, registry: SpaceRegistry | None = None):
        self.registry = registry or SpaceRegistry()
        self._entries: dict[str, WordMeaning] = {}
        self._verbs: dict[str, VerbTable] = {}

    def words(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def verbs(self) -> tuple[str, ...]:
        return tuple(self._verbs)

    def add_word(self, meaning: WordMeaning) -> "Lexicon":
        expected = self.registry.type_dims(meaning.ptype)
        if tuple(meaning.wire_dims) != expected:
            raise ShapeError(
                f"{meaning.word!r}: wire dims {meaning.wire_dims} disagree with"
                f" the registry's {expected}"
            )
        self._entries[meaning.word] = meaning
        return self

    def add_verb_table(self, name: str, verb: VerbTable) -> "Lexicon":
        """Add ``verb`` under ``name``, keeping a read-only copy of its table."""
        table = np.array(verb.table, dtype=float)
        table.setflags(write=False)
        expected = (self.registry.dim(verb.subject_space), self.registry.dim(verb.object_space))
        if table.shape != expected:
            raise ShapeError(
                f"verb {name!r}: table shape {table.shape} disagrees with"
                f" space dims {expected}"
            )
        if not np.all(np.isfinite(table)):
            raise NumericFailure(f"verb {name!r}: table has non-finite entries")
        self._verbs[name] = replace(verb, table=table)
        return self

    def word(self, name: str) -> WordMeaning:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownWordError(f"lexicon has no word {name!r}") from None

    def verb_table(self, name: str) -> VerbTable:
        try:
            return self._verbs[name]
        except KeyError:
            raise UnknownWordError(f"lexicon has no verb table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries


def taxonomy_mix(children: Sequence[tuple[str, float]], lex: Lexicon) -> DensityMatrix:
    """Weighted mixture of normalized child operators.

    Children are normalized before mixing so that raw corpus frequency does
    not skew the parent toward its most common child.
    """
    if not children:
        raise ShapeError("taxonomy node needs at least one child")
    parts = []
    weights = []
    for name, weight in children:
        meaning = lex.word(name)
        parts.append(meaning.dm.normalized())
        weights.append(float(weight))
    return mixture(weights, parts)


# --- serialization ---------------------------------------------------------

# Without indent, ``encode`` runs CPython's C encoder; ``json.dump`` never does.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _space_text(registry: SpaceRegistry, atom: str) -> str:
    return _ENCODER.encode({"dim": registry.dim(atom), "labels": list(registry.labels(atom))})


def _format_numbers(values: list[float]) -> list[str]:
    """``format(x, ".17g")`` of every ``x`` in ``values``, made in one C call."""
    return ("%.17g " * len(values) % tuple(values)).split()


def _rows_text(text: np.ndarray) -> str:
    """A 2-D object array of number strings as JSON; they need no escaping."""
    return '[["' + '"],["'.join(map('","'.join, text.tolist())) + '"]]'


def _word_text(meaning: WordMeaning) -> str:
    """The word's JSON document, each distinct entry formatted once.

    A stored operator is bitwise symmetric, so its upper triangle is
    formatted and the strings are mirrored below the diagonal.
    """
    m = meaning.dm.matrix
    upper = np.triu_indices(m.shape[0])
    strings = np.array(_format_numbers(m[upper].tolist()), dtype=object)
    text = np.empty(m.shape, dtype=object)
    text[upper] = strings
    text[upper[::-1]] = strings
    return (
        '{"type":' + _ENCODER.encode(format_type(meaning.ptype))
        + ',"kind":"matrix","data":{"matrix":' + _rows_text(text) + "}}"
    )


def _verb_text(vt: VerbTable) -> str:
    """The verb table's JSON document; the table is not symmetric."""
    strings = _format_numbers(vt.table.ravel().tolist())
    text = np.array(strings, dtype=object).reshape(vt.table.shape)
    return (
        '{"subject_space":' + _ENCODER.encode(vt.subject_space)
        + ',"object_space":' + _ENCODER.encode(vt.object_space)
        + ',"rows":' + _rows_text(text) + "}"
    )


def _write_object(write, members) -> None:
    """Write ``members``, pairs of a key and its value's JSON text, as one
    JSON object, one member at a time."""
    write("{")
    separator = ""
    for key, text in members:
        write(separator + _ENCODER.encode(key) + ":")
        write(text)
        separator = ","
    write("}")


def _write(lex: Lexicon, write) -> None:
    registry = lex.registry
    write('{"spaces":')
    _write_object(write, ((atom, _space_text(registry, atom)) for atom in registry.atoms()))
    write(',"words":')
    _write_object(write, ((name, _word_text(lex.word(name))) for name in lex.words()))
    write(',"verbs":')
    _write_object(write, ((name, _verb_text(lex.verb_table(name))) for name in lex.verbs()))
    write("}")


def save(lex: Lexicon, destination: str | Path | IO[str]):
    """Write the lexicon as compact one-line JSON, one entry at a time.

    Word operators are stored as full matrices of 17-digit decimal strings,
    though each distinct entry of one is formatted only once. Only one
    word's or verb's document is held in memory at once.
    """
    if hasattr(destination, "write"):
        _write(lex, destination.write)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            _write(lex, handle.write)


# The key under which each word kind stores its data.
_DATA_KEYS = {"pure": "vector", "subsets": "records", "matrix": "matrix"}

# Numbers are ASCII decimal strings, matched whole; ``float()`` alone would
# also take "nan", "inf", "+1", "1_0", " 1", "1\n" and non-ASCII digits.
# A number string matches in one way only, so a failed match over a joined
# array takes time linear in its length.
_DECIMAL_TEXT = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_DECIMAL = re.compile(_DECIMAL_TEXT)
_DECIMALS = re.compile(f"{_DECIMAL_TEXT}(?:,{_DECIMAL_TEXT})*")


def _object(value, path: str, keys: Sequence[str] | None = None) -> dict:
    """``value`` as a JSON object; with ``keys``, it must hold exactly those."""
    if not isinstance(value, dict):
        raise LexiconFormatError(f"expected an object, got {type(value).__name__}", path)
    if keys is not None:
        for key in keys:
            if key not in value:
                raise LexiconFormatError(f"missing key {key!r}", path)
        for key in value:
            if key not in keys:
                raise LexiconFormatError(f"unexpected key {key!r}", path)
    return value


def _array(value, path: str, item) -> list:
    """A non-empty JSON array, each entry checked and converted by ``item``."""
    if not isinstance(value, list) or not value:
        raise LexiconFormatError("expected a non-empty array", path)
    return [item(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise LexiconFormatError(f"expected a string, got {type(value).__name__}", path)
    return value


def _number(value, path: str) -> float:
    if not (isinstance(value, str) and _DECIMAL.fullmatch(value)):
        raise LexiconFormatError(f"{value!r} is not a decimal number string", path)
    return float(value)


def _numbers(value, path: str) -> list[float]:
    """A non-empty array of number strings, checked in one regex pass.

    An array that fails the joined check goes through ``_number`` entry by
    entry, so the error names the first bad entry's path.
    """
    if isinstance(value, list) and value:
        try:
            joined = ",".join(value)
        except TypeError:
            pass
        else:
            if joined.count(",") == len(value) - 1 and _DECIMALS.fullmatch(joined):
                return list(map(float, value))
    return _array(value, path, _number)


def _subset(value, path: str) -> tuple[frozenset[str], float]:
    """One ``subsets`` record as its feature set and its count."""
    value = _object(value, path, ("features", "count"))
    features = _array(value["features"], path + ".features", _string)
    return frozenset(features), _number(value["count"], path + ".count")


def load(source: str | Path | IO[str]) -> Lexicon:
    """Parse, check, and reconstruct a lexicon document in one pass.

    Violations raise ``LexiconFormatError`` carrying a path into the
    document, e.g. ``$.words.beer.data.matrix[1][0]``.
    """
    try:
        if hasattr(source, "read"):
            document = json.loads(source.read())
        else:
            document = json.loads(Path(source).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise LexiconFormatError(f"not UTF-8 text: {err}", "$") from None
    except json.JSONDecodeError as err:
        raise LexiconFormatError(f"not valid JSON: {err}", "$") from None
    except RecursionError:
        raise LexiconFormatError("JSON nested too deeply to parse", "$") from None
    document = _object(document, "$", ("spaces", "words", "verbs"))

    registry = SpaceRegistry()
    for atom, space in _object(document["spaces"], "$.spaces").items():
        path = f"$.spaces.{atom}"
        space = _object(space, path, ("dim", "labels"))
        dim = space["dim"]
        # An int or an integral float, never a bool, as JSON Schema's "integer".
        if not (type(dim) is int or type(dim) is float and dim.is_integer()) or dim < 1:
            raise LexiconFormatError(f"dim must be an integer >= 1, got {dim!r}", path + ".dim")
        labels = _array(space["labels"], path + ".labels", _string)
        if dim != len(labels):
            raise LexiconFormatError(f"dim {dim} does not match {len(labels)} labels", path)
        try:
            registry.register(atom, labels)
        except RegistryError as err:
            raise LexiconFormatError(str(err), path) from None

    lex = Lexicon(registry)
    for name, entry in _object(document["words"], "$.words").items():
        path = f"$.words.{name}"
        entry = _object(entry, path, ("type", "kind", "data"))
        type_text = _string(entry["type"], path + ".type")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in _DATA_KEYS:
            raise LexiconFormatError(
                f"kind {kind!r} is not one of {list(_DATA_KEYS)}", path + ".kind"
            )
        key = _DATA_KEYS[kind]
        data = _object(entry["data"], path + ".data", (key,))[key]
        data_path = f"{path}.data.{key}"
        try:
            ptype = parse_type(type_text)
            dims = registry.type_dims(ptype)
        except Exception as err:
            raise LexiconFormatError(str(err), path + ".type") from None
        dim = math.prod(dims) if dims else 1
        try:
            if kind == "pure":
                vector = np.array(_numbers(data, data_path))
                if vector.size != dim:
                    raise ShapeError(f"vector length {vector.size}, expected {dim}")
                dm = pure(vector)
            elif kind == "subsets":
                if len(dims) != 1:
                    raise ShapeError("subset words must live on a single wire")
                records = [
                    SubsetRecord(name, features, count)
                    for features, count in _array(data, data_path, _subset)
                ]
                dm = build_from_subsets(records, registry.labels(ptype.simples[0].base))
            else:
                matrix = np.array(_array(data, data_path, _numbers))
                if matrix.shape != (dim, dim):
                    raise ShapeError(f"matrix shape {matrix.shape}, expected ({dim}, {dim})")
                dm = DensityMatrix(matrix)
            lex.add_word(WordMeaning(word=name, ptype=ptype, dm=dm, wire_dims=dims))
        except LexiconFormatError:
            raise
        except Exception as err:
            raise LexiconFormatError(str(err), path + ".data") from None

    for name, entry in _object(document["verbs"], "$.verbs").items():
        path = f"$.verbs.{name}"
        entry = _object(entry, path, ("subject_space", "object_space", "rows"))
        subject_space = _string(entry["subject_space"], path + ".subject_space")
        object_space = _string(entry["object_space"], path + ".object_space")
        rows = _array(entry["rows"], path + ".rows", _numbers)
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise LexiconFormatError("rows have inconsistent lengths", path + ".rows")
        table = np.array(rows)
        if not np.all(np.isfinite(table)):
            raise LexiconFormatError("rows have non-finite entries", path + ".rows")
        try:
            lex.add_verb_table(
                name,
                VerbTable(subject_space=subject_space, object_space=object_space, table=table),
            )
        except (RegistryError, ShapeError) as err:
            raise LexiconFormatError(str(err), path) from None
    return lex
