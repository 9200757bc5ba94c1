"""Exception hierarchy shared across the package."""


class DensemError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DensemError):
    """Operands have incompatible dimensions or malformed shapes."""


class DegenerateInputError(DensemError):
    """Zero vector, zero trace, or otherwise degenerate input."""


class NumericFailure(DensemError):
    """Non-finite (NaN or infinite) input, or the eigensolver failed."""


class TypeParseError(DensemError):
    """A grammar-type string failed to parse.

    Carries the character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RegistryError(DensemError):
    """A basis label or meaning space is unknown to the registry."""


class UnknownWordError(DensemError):
    """A word was requested that the lexicon does not contain."""


class LexiconFormatError(DensemError):
    """A lexicon document violates the file format.

    Carries a path into the offending part of the document.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
