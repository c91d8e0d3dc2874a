"""Exception types shared across the library."""


class LofsError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRange(LofsError):
    """An element index falls outside 0..n-1."""


class ShapeMismatch(LofsError):
    """Composed or compared values do not share the required (co)domains."""


class SizeLimitExceeded(LofsError):
    """A carrier or search space would exceed the configured bound.

    ``what`` names the guard, ``requested`` is the amount it measured and
    ``bound`` the limit that amount exceeds; the message is built from
    the three.
    """

    def __init__(self, what, requested, bound):
        super().__init__(what, requested, bound)
        self.what, self.requested, self.bound = what, requested, bound

    def __str__(self):
        return f"{self.what}: {self.requested} exceeds the bound {self.bound}"


class NotAPoset(LofsError):
    """The operation requires an antisymmetric order."""


class AdjointMissing(LofsError):
    """An adjoint that provably exists could not be computed; this is a bug."""


class InvariantViolation(LofsError):
    """A value failed its construction-time invariants."""


class FormatError(LofsError):
    """A JSON document does not match the shared schemas."""
