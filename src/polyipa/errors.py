"""Exception and warning types raised across the package."""

from __future__ import annotations

__all__ = [
    "PolyipaError",
    "UnknownSymbolError",
    "UnmappableTokenError",
    "UnknownSegmentError",
    "EmptyStringError",
    "BothEmptyError",
    "DimensionMismatchError",
    "UnknownLanguageError",
    "NoScriptError",
    "EmptyLexiconError",
    "EmptyInputError",
    "NoCandidatesError",
    "InsufficientDataError",
    "CandidateParseError",
    "NonMonotoneScoresError",
    "ConfigError",
    "UnknownTagWarning",
]


class PolyipaError(Exception):
    """Base class for all package errors."""


class UnknownSymbolError(PolyipaError):
    """A character in an IPA string is neither in the inventory nor attachable.

    position is the code-point index into the offending string.
    """

    def __init__(self, position: int, symbol: str, reason: str = "not in inventory"):
        self.position = position
        self.symbol = symbol
        self.reason = reason
        super().__init__(f"unknown symbol {symbol!r} (U+{ord(symbol):04X}) at position {position}: {reason}"
                         if symbol else f"invalid input at position {position}: {reason}")


class UnmappableTokenError(PolyipaError):
    """No chart entry matches at this position of a notation string."""

    def __init__(self, position: int, token: str):
        self.position = position
        self.token = token
        super().__init__(f"no chart entry matches {token!r} at position {position}")


class UnknownSegmentError(PolyipaError):
    """A segment has no feature row, not even for its base symbol."""

    def __init__(self, segment: str):
        self.segment = segment
        super().__init__(f"no feature row for segment {segment!r}")


class EmptyStringError(PolyipaError):
    """An operation that needs at least one segment got an empty string."""


class BothEmptyError(PolyipaError):
    """Normalized distance is undefined when both strings are empty."""


class DimensionMismatchError(PolyipaError):
    """A vector's dimensionality disagrees with the index."""


class UnknownLanguageError(PolyipaError):
    """A language code or name is absent from the registry."""

    def __init__(self, code: str):
        self.code = code
        super().__init__(f"unknown language code or name {code!r}")


class NoScriptError(PolyipaError):
    """Script detection found no script-bearing characters."""


class EmptyLexiconError(PolyipaError):
    """Training requires a non-empty lexicon."""


class EmptyInputError(PolyipaError):
    """Decoding requires a non-empty phoneme sequence."""


class NoCandidatesError(PolyipaError):
    """An evaluation item has an empty candidate list."""


class InsufficientDataError(PolyipaError):
    """The lexicon cannot fill the requested split sizes."""


class CandidateParseError(PolyipaError):
    """A candidate file line is malformed or ranks are not consecutive."""


class NonMonotoneScoresError(PolyipaError):
    """Candidate log scores increase with rank within a block."""


class ConfigError(PolyipaError):
    """A config file is malformed, has unknown keys, or references bad paths."""


class UnknownTagWarning(UserWarning):
    """Decoding saw a tag the model was not trained with."""
