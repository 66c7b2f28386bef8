"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ArtinHolError(Exception):
    """Base class for all domain errors raised by this package."""


class LengthMismatchError(ArtinHolError):
    """Vectors of different ranks were combined."""


class ArithmeticOverflowError(ArtinHolError):
    """A checked 64-bit multiply or add left the representable range."""


class NotInHolError(ArtinHolError):
    """An element required to be holomorphic has negative order."""


class NoRelationError(ArtinHolError):
    """No non-uniqueness witness in a basis larger than its rank: the basis
    is not one of Hol, or the witness failed its check (internal bug)."""


class EngineMismatchError(ArtinHolError):
    """The two Hilbert-basis engines disagreed (internal bug)."""


class IndexOutOfRangeError(ArtinHolError):
    """A 1-based generator index fell outside 1..r."""


class EqualIndicesError(ArtinHolError):
    """Two generator indices that must differ were equal."""


class InvalidSubsetError(ArtinHolError):
    """A subset selector was empty, out of range, or not strictly increasing."""


class RankTooSmallError(ArtinHolError):
    """The operation needs rank >= 2."""


class CapExceededError(ArtinHolError):
    """An enumeration would exceed the configured size cap."""


class MixedPlansError(ArtinHolError):
    """Records from different sweep plans were mixed into one summary."""
