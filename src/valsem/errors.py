"""Exception hierarchy shared by all valsem modules."""


class ValsemError(Exception):
    """Base class for all errors raised by valsem."""


class UsageError(ValsemError):
    """Invalid arguments or preconditions violated by the caller."""


class ParseError(ValsemError):
    """Syntax error in a textual input; the character position is .pos,
    not part of the message."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


class CapExceeded(ValsemError):
    """A search or enumeration exceeded its configured resource cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(f"{message} (cap: {cap})")
        self.cap = cap


class VerificationError(ValsemError):
    """A certificate or consistency check failed."""
