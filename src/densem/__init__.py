"""Operator-valued lexical semantics with graded similarity and entailment.

Word meanings are positive-semidefinite operators; fidelity scores their
similarity, representativeness (a transform of quantum relative entropy)
scores directional entailment, and pregroup-driven tensor contraction
composes word operators into sentence operators that provably inherit
lexical entailment.

``densem.compose`` is the function ``compose``: the package re-exports it
under its module's name, so the attribute shadows the module, and
``import densem.compose as m`` binds the function too.  The module keeps
the name ``densem.compose`` (benchmark tracing finds the composition layer
by it) and is reached through ``importlib.import_module("densem.compose")``
or ``sys.modules``.
"""

from .compose import SpaceRegistry, WordMeaning, compose, compose_kronecker
from .density import (
    DensityMatrix,
    EntailmentVerdict,
    INFINITE,
    Relation,
    classify,
    equivalent,
    fidelity,
    mixture,
    pure,
    relative_entropy,
    representativeness,
    supp_leq,
    von_neumann_entropy,
)
from .errors import (
    DegenerateInputError,
    DensemError,
    LexiconFormatError,
    NumericFailure,
    RegistryError,
    ShapeError,
    TypeParseError,
    UnknownWordError,
)
from .lexicon import (
    Lexicon,
    PairRecord,
    SubsetRecord,
    VerbTable,
    build_from_subsets,
    build_verb_from_pairs,
    load,
    save,
    taxonomy_mix,
)
from .pregroup import (
    PregroupType,
    ReductionDiagram,
    SimpleType,
    format_type,
    is_grammatical,
    parse_type,
    reduce,
)
from .spectral import DEFAULT_TOL, EigenSystem, Tolerance

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DegenerateInputError",
    "DensemError",
    "DensityMatrix",
    "EigenSystem",
    "EntailmentVerdict",
    "INFINITE",
    "Lexicon",
    "LexiconFormatError",
    "NumericFailure",
    "PairRecord",
    "PregroupType",
    "ReductionDiagram",
    "RegistryError",
    "Relation",
    "ShapeError",
    "SimpleType",
    "SpaceRegistry",
    "SubsetRecord",
    "Tolerance",
    "TypeParseError",
    "UnknownWordError",
    "VerbTable",
    "WordMeaning",
    "build_from_subsets",
    "build_verb_from_pairs",
    "classify",
    "compose",
    "compose_kronecker",
    "equivalent",
    "fidelity",
    "format_type",
    "is_grammatical",
    "load",
    "mixture",
    "parse_type",
    "pure",
    "reduce",
    "relative_entropy",
    "representativeness",
    "save",
    "supp_leq",
    "taxonomy_mix",
    "von_neumann_entropy",
]
