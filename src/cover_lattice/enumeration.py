"""Exhaustive generation of covers, star classes, and partitions at desk scale.

A universe of ``n`` features has ``2**n - 1`` candidate pre-images, so
covers are subsets of that list filtered for coverage.  Each listing and
count is refused past a fixed feature bound; the streams are not guarded.
"""

from __future__ import annotations

from importlib import import_module
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import Cover, FeatureUniverse, bits
from .errors import CycleError, ValidationError, guard_features
from .order import distinct_covers

if TYPE_CHECKING:  # all_classes imports star when it runs
    from .star import StarClass

__all__ = [
    "all_classes",
    "all_covers",
    "all_partitions",
    "class_count",
    "cover_count",
    "hasse_edges",
    "iter_antichain_covers",
    "iter_covers",
]

# Each bound is the largest feature count at which its call finishes in under
# 30 s and 1 GB; the README lists the times measured at each bound.
COVER_ENUM_LIMIT = 4
# A count over n features has 2**n - 1 bits: 2,466 decimal digits at n = 13,
# 4,932 at n = 14, past the 4,300 digits Python converts to str by default.
COUNT_LIMIT = 13
CLASS_ENUM_LIMIT = 5
# Counting walks every covering antichain: 7,785,062 at 6 features (about
# 24 s), about 2.4 * 10**12 at 7.
CLASS_COUNT_LIMIT = 6
# Bell(10) = 115,975 partitions; Bell(11) = 678,570.
PARTITION_ENUM_LIMIT = 10

# The orders hasse_edges draws, each as the layer and name of its relation, so
# that star loads only when one of its orders is drawn.
ORDERS = {
    "subsumption": ("order", "subsumes"),
    "star": ("star", "star_subsumes"),
    "proceeds": ("star", "proceeds"),
}


def iter_covers(universe: FeatureUniverse) -> Iterator[Cover]:
    """Stream every valid cover exactly once, in canonical order.

    Unguarded: ``2**(2**n - 1)`` candidate collections exist, 32,768 at 4
    features and about 2.1 * 10**9 at 5.
    """
    masks = universe.canonical_masks
    full = universe.full_mask
    for k in range(1, len(masks) + 1):
        for combo in combinations(masks, k):
            union = 0
            for m in combo:
                union |= m
            if union == full:
                yield Cover._from_canonical(universe, combo)


def iter_antichain_covers(universe: FeatureUniverse) -> Iterator[Cover]:
    """Stream every covering antichain of non-empty subsets exactly once.

    These are the canonical representatives of the star classes.  A
    depth-first walk over ``canonical_masks`` never picks a mask that
    contains one already chosen, so each cover's pre-images come out in
    canonical order, and the stream is ordered lexicographically by them.
    Unguarded: there are 9 such covers at 3 features, 114 at 4 and 6894
    at 5, and the count grows doubly exponentially.
    """
    full = universe.full_mask
    chosen: list[int] = []

    def rec(candidates: list[int], union: int) -> Iterator[Cover]:
        if union == full:
            yield Cover._from_canonical(universe, tuple(chosen))
        for i, m in enumerate(candidates):
            chosen.append(m)
            yield from rec([x for x in candidates[i + 1:] if x & m != m], union | m)
            chosen.pop()

    yield from rec(list(universe.canonical_masks), 0)


def all_covers(universe: FeatureUniverse) -> tuple[Cover, ...]:
    """Materialize every valid cover in canonical order.

    Refused past ``COVER_ENUM_LIMIT`` features: 4 features give 32,297
    covers, 5 give 2,147,321,017.  Stream with ``iter_covers`` instead.
    """
    guard_features("cover enumeration", universe.n, COVER_ENUM_LIMIT)
    return tuple(iter_covers(universe))


def cover_count(universe: FeatureUniverse) -> int:
    """Number of valid covers, by inclusion-exclusion over uncovered features.

    The collections of non-empty subsets that miss ``k`` given features
    number ``2**(2**(n - k) - 1)``, so no cover is built.  Refused past
    ``COUNT_LIMIT`` features, because the count would no longer print.
    """
    guard_features("cover count", universe.n, COUNT_LIMIT)
    n = universe.n
    return sum((-1) ** k * comb(n, k) * 2 ** (2 ** (n - k) - 1) for k in range(n + 1))


def all_classes(universe: FeatureUniverse) -> set[StarClass]:
    """One star class per star-equivalence class of covers.

    A class is fixed by its closure, and its unique smallest member is the
    inclusion-maximal pre-images of any member: a covering antichain.  So
    the classes are exactly the covering antichains, one closure each.
    Refused past ``CLASS_ENUM_LIMIT`` features: 5 features give 6,894
    classes, 6 give 7,785,062.  Stream with ``iter_antichain_covers``.
    """
    from .star import StarClass, star_closure

    guard_features("class enumeration", universe.n, CLASS_ENUM_LIMIT)
    return {StarClass(rep, star_closure(rep)) for rep in iter_antichain_covers(universe)}


def class_count(universe: FeatureUniverse) -> int:
    """Number of star classes: the covering antichains, counted without closures.

    Refused past ``CLASS_COUNT_LIMIT`` features, because the count still
    walks every class.
    """
    guard_features("class count", universe.n, CLASS_COUNT_LIMIT)
    return sum(1 for _ in iter_antichain_covers(universe))


def _iter_index_partitions(n: int) -> Iterator[tuple[int, ...]]:
    # Blocks as bitmasks; element i either joins an existing block or opens
    # a new one, which yields every set partition exactly once.
    blocks: list[int] = []

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(blocks)
            return
        bit = 1 << i
        for j in range(len(blocks)):
            blocks[j] |= bit
            yield from rec(i + 1)
            blocks[j] &= ~bit
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def all_partitions(universe: FeatureUniverse) -> tuple[Cover, ...]:
    """Every partition of the universe, as covers in canonical order."""
    guard_features("partition enumeration", universe.n, PARTITION_ENUM_LIMIT)
    parts = [Cover(universe, blocks) for blocks in _iter_index_partitions(universe.n)]
    parts.sort(key=lambda c: c.canonical_key)
    return tuple(parts)


def hasse_edges(items: Iterable[Cover], order: str = "subsumption") -> set[tuple[Cover, Cover]]:
    """Transitive-reduction edges of the chosen order on ``items``.

    Edge ``(a, b)`` places ``a`` immediately above ``b`` in the diagram.
    ``star`` and ``proceeds`` are preorders in general, so the relation
    must be antisymmetric on ``items``; a violating pair raises
    ``CycleError`` with the witness attached.
    """
    try:
        layer, name = ORDERS[order]
    except KeyError:
        raise ValidationError(
            f"unknown order {order!r}; choose from {sorted(ORDERS)}"
        ) from None
    rel = getattr(import_module(f"{__package__}.{layer}"), name)
    nodes = distinct_covers(items)
    k = len(nodes)
    rows = []
    for i in range(k):
        row = 0
        for j in range(k):
            if i != j and rel(nodes[i], nodes[j]):
                row |= 1 << j
        rows.append(row)
    if order != "subsumption":
        for i in range(k):
            for j in bits(rows[i]):
                if rows[j] >> i & 1:
                    raise CycleError(
                        f"{order} is not antisymmetric on these items: "
                        f"{nodes[i]} and {nodes[j]} relate in both directions",
                        witness=(nodes[i], nodes[j]),
                    )
    edges = set()
    for i in range(k):
        row = rows[i]
        through = 0
        for j in bits(row):
            through |= rows[j]
        for j in bits(row & ~through):
            edges.add((nodes[i], nodes[j]))
    return edges
