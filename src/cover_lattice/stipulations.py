"""Privacy stipulations: regions a sensor must not resolve too finely.

A reading whose pre-image sits inside the sensitive region certifies that
the world is in that region, so such pre-images (at or below the stated
resolution) are violations.  Star-equivalent covers can disagree here,
which is why the quotient is unusable for stipulated tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Cover
from .errors import UniverseMismatchError, ValidationError

__all__ = ["ComplianceReport", "Stipulation", "class_compliance_report", "complies"]


@dataclass(frozen=True)
class Stipulation:
    """A sensitive feature region, optionally with a resolution threshold.

    A pre-image violates the stipulation when it lies inside ``sensitive``
    and has at most ``max_resolution`` features (unbounded when ``None``;
    ``0`` forbids nothing).
    """

    sensitive: frozenset
    max_resolution: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sensitive", frozenset(self.sensitive))
        if not self.sensitive:
            raise ValidationError("sensitive region must be non-empty")
        for label in self.sensitive:
            if not isinstance(label, str) or not label:
                raise ValidationError("sensitive features must be non-empty strings")
        k = self.max_resolution
        if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 0):
            raise ValidationError("max_resolution must be a non-negative integer")


def _sensitive_mask(c: Cover, s: Stipulation) -> int:
    unknown = s.sensitive - set(c.universe.labels)
    if unknown:
        raise UniverseMismatchError(
            "stipulation mentions features outside the cover's universe: "
            + ", ".join(sorted(unknown))
        )
    return c.universe.mask_of(s.sensitive)


def complies(c: Cover, s: Stipulation) -> bool:
    """True iff no pre-image resolves the sensitive region at forbidden resolution."""
    smask = _sensitive_mask(c, s)
    k = s.max_resolution
    for m in c.masks:
        if m & ~smask == 0 and (k is None or m.bit_count() <= k):
            return False
    return True


@dataclass(frozen=True)
class ComplianceReport:
    """Compliance split of one star-equivalence class.

    ``witness`` holds a (compliant, non-compliant) pair when the class is
    mixed, i.e. when star-equivalence fails to respect the stipulation.
    """

    compliant: tuple[Cover, ...]
    non_compliant: tuple[Cover, ...]
    witness: tuple[Cover, Cover] | None

    @property
    def mixed(self) -> bool:
        return self.witness is not None


def class_compliance_report(c: Cover, s: Stipulation) -> ComplianceReport:
    """Partition the star class of ``c`` by compliance with ``s``."""
    from .star import class_members

    members = sorted(class_members(c), key=lambda m: m.canonical_key)
    good = tuple(m for m in members if complies(m, s))
    bad = tuple(m for m in members if not complies(m, s))
    witness = (good[0], bad[0]) if good and bad else None
    return ComplianceReport(good, bad, witness)
