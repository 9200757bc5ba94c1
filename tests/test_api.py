"""The public API, pinned as literal lists.

Any change to these names is an API change: it shows up here as a test diff
and belongs in CHANGES.md.
"""

import densem
from densem import spectral

PACKAGE_API = [
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

SPECTRAL_CALLABLES = [
    "EigenSystem",
    "Tolerance",
    "eigh",
    "rank_cutoff",
    "symmetrize",
]


def test_package_all():
    assert sorted(densem.__all__) == PACKAGE_API
    assert all(hasattr(densem, name) for name in densem.__all__)


def test_spectral_public_callables():
    defined_here = sorted(
        name
        for name, obj in vars(spectral).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == spectral.__name__
    )
    assert defined_here == SPECTRAL_CALLABLES
