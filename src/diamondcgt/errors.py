"""Exception types shared across the package."""


class DiamondCgtError(Exception):
    """Base class for package errors."""


class MalformedGameError(DiamondCgtError):
    """A position or store entry violates a structural requirement."""


class GameParseError(DiamondCgtError):
    """Game notation failed to parse.

    Carries the 1-based source position and a hint at what was expected.
    """

    def __init__(self, message, line=None, column=None, expected=None):
        detail = message
        if line is not None:
            detail = "%s (line %d, column %d)" % (message, line, column)
        if expected:
            detail = "%s; expected %s" % (detail, expected)
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


class NonDyadicDenominatorError(GameParseError):
    """A numeric literal has a denominator that is not a power of two."""


class GraphParseError(DiamondCgtError):
    """A graph description file failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "%s (line %d)" % (message, line)
        super().__init__(message)
        self.line = line


class InvalidStateError(DiamondCgtError):
    """A game state on a graph violates token constraints."""


class PreconditionError(DiamondCgtError):
    """An operation was called on arguments outside its stated domain."""


class NotClosedError(DiamondCgtError):
    """A position set is not closed under taking options."""

    def __init__(self, message, member=None, option=None):
        super().__init__(message)
        self.member = member
        self.option = option


class BoundsTooLargeError(DiamondCgtError):
    """An exhaustive sweep was asked to cover more states than its budget."""
