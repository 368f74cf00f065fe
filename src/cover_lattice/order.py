"""The subsumption order on covers and its semilattice operations.

A cover sits above every cover it is a sub-collection of: dropping
readings never hurts a worst-case plan, so sub-collections inherit
solvability.  The collection union is therefore a greatest lower bound,
while least upper bounds may not exist.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import Cover, RelationTag
from .errors import SizeGuardError, UniverseMismatchError

__all__ = [
    "compare",
    "iter_u_inflation",
    "join",
    "meet",
    "subsumes",
    "u_inflation",
    "upper_covers",
]

U_INFLATION_LIMIT = 20


def _check_universes(a: Cover, b: Cover) -> None:
    if a.universe != b.universe:
        raise UniverseMismatchError("covers are over different universes")


def distinct_covers(covers: Iterable[Cover]) -> list[Cover]:
    """``covers`` without repeats, in first-seen order, all over one universe."""
    items = list(dict.fromkeys(covers))
    for c in items[1:]:
        if c.universe != items[0].universe:
            raise UniverseMismatchError("covers are over different universes")
    return items


def subsumes(a: Cover, b: Cover) -> bool:
    """True iff ``a``'s pre-images are a sub-collection of ``b``'s."""
    _check_universes(a, b)
    return a.mask_set <= b.mask_set


def compare(a: Cover, b: Cover) -> RelationTag:
    """Classify an ordered cover pair under subsumption."""
    _check_universes(a, b)
    if a.mask_set == b.mask_set:
        return RelationTag.EQUAL
    if a.mask_set < b.mask_set:
        return RelationTag.FIRST_SUBSUMES_SECOND
    if b.mask_set < a.mask_set:
        return RelationTag.SECOND_SUBSUMES_FIRST
    return RelationTag.INCOMPARABLE


def meet(a: Cover, b: Cover) -> Cover:
    """Greatest lower bound: the union of the two pre-image collections.

    A pre-image labelled in both covers keeps ``a``'s label.
    """
    _check_universes(a, b)
    return Cover(a.universe, a.mask_set | b.mask_set, {**b.labels, **a.labels})


def join(a: Cover, b: Cover) -> Cover | None:
    """Least upper bound when one exists.

    The intersection of the two collections is the only candidate; it is
    returned when it still covers the universe and ``None`` otherwise (the
    subsumption order is only a meet-semilattice).  Labels merge as in
    ``meet``.
    """
    _check_universes(a, b)
    common = a.mask_set & b.mask_set
    union = 0
    for m in common:
        union |= m
    if union != a.universe.full_mask:
        return None
    return Cover(a.universe, common, {**b.labels, **a.labels})


def upper_covers(covers: Iterable[Cover]) -> set[Cover]:
    """The sub-collection-maximal members of a set of covers.

    These are the members that are not a proper sub-collection of any other
    member; in diagram orientation they bound the set from below.
    """
    items = distinct_covers(covers)
    # Index every pre-image in play so each cover becomes one int; subset
    # tests then run on machine words instead of frozensets.
    bit = {m: i for i, m in enumerate(sorted({m for c in items for m in c.masks}))}
    fams = []
    for c in items:
        fam = 0
        for m in c.masks:
            fam |= 1 << bit[m]
        fams.append((fam, c))
    # Largest first: whatever contains a member contains a maximal one,
    # which is then already kept, so only the kept members are compared.
    fams.sort(key=lambda fc: -len(fc[1].masks))
    kept: list[int] = []
    out = set()
    for fam, c in fams:
        if not any(fam & k == fam for k in kept):
            kept.append(fam)
            out.add(c)
    return out


def iter_u_inflation(c: Cover) -> Iterator[Cover]:
    """Stream every valid cover whose pre-images are a sub-collection of ``c``'s.

    Includes ``c`` itself.  Each cover keeps the labels of the pre-images
    it keeps.  Output size can reach ``2**len(c)``; this streaming form
    carries no guard.
    """
    masks = c.masks
    m = len(masks)
    full = c.universe.full_mask
    universe, labels = c.universe, c.labels
    # suffix[i]: what positions i.. can still contribute, for pruning.
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    chosen: list[int] = []

    def rec(i: int, union: int) -> Iterator[Cover]:
        if union | suffix[i] != full:
            return
        if i == m:
            yield Cover(universe, chosen, labels)
            return
        chosen.append(masks[i])
        yield from rec(i + 1, union | masks[i])
        chosen.pop()
        yield from rec(i + 1, union)

    yield from rec(0, 0)


def u_inflation(c: Cover) -> set[Cover]:
    """Materialized u-inflation; refuses covers with more than ``U_INFLATION_LIMIT`` pre-images."""
    if len(c) > U_INFLATION_LIMIT:
        raise SizeGuardError(
            f"u-inflation of {len(c)} pre-images may produce "
            f"2**{len(c)} covers; use iter_u_inflation to stream"
        )
    return set(iter_u_inflation(c))
