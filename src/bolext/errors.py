"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: UsageError, ParseError and
UnsupportedEnumerationError are operator mistakes or out-of-bounds requests
(exit 2); a failed property is reported through return values, never through
exceptions (exit 1); InternalConsistencyError signals a broken invariant that
should be unreachable on well-formed inputs (exit 2, since no verdict can be
trusted).
"""


class BolextError(Exception):
    """Base class for all package errors."""


class UsageError(BolextError):
    """Dimension/field mismatches and violated operation preconditions."""


class ContainmentError(UsageError):
    """A subspace argument is not contained where it must be."""


class UnsupportedEnumerationError(BolextError):
    """Enumeration over an infinite field or beyond the configured bound."""


class InternalConsistencyError(BolextError):
    """A value escaped an invariant that the construction should guarantee."""


class ParseError(BolextError):
    """A document failed schema or invariant validation at load time."""

    def __init__(self, path, location, message):
        self.path = path
        self.location = location
        self.message = message
        super().__init__(f"{path}: {location}: {message}")
