"""Exception types shared across the package."""


class CoverLatticeError(Exception):
    """Base class for every domain error raised by this package."""


class ValidationError(CoverLatticeError, ValueError):
    """A value violates a construction invariant (empty pre-image, uncovered feature, ...)."""


class UniverseMismatchError(CoverLatticeError, ValueError):
    """Two values that must share one universe do not."""


class SizeGuardError(CoverLatticeError):
    """A desk-scale bound was exceeded; raise the limit or use a streaming variant."""


def guard_features(what: str, n: int, limit: int | None, default: int) -> int:
    """The feature bound in force, ``limit`` or else ``default``; raise if ``n`` exceeds it."""
    bound = default if limit is None else limit
    if n > bound:
        raise SizeGuardError(f"{what} limited to {bound} features (got {n})")
    return bound


class UnsolvableError(CoverLatticeError):
    """Plan extraction was requested for a problem/cover pair with no guaranteed plan."""


class CycleError(CoverLatticeError):
    """An order relation is not antisymmetric on the given items.

    The offending pair is kept in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SchemaError(CoverLatticeError, ValueError):
    """A document does not match its JSON layout; ``path`` locates the violation."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
