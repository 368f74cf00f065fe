"""Star-closure, its equivalence classes, the combined ordering, and partitions.

The star-closure adds every finer reading (non-empty subset) of each
pre-image until a fixed point is reached.  Goal attainment under
worst-case sensing is driven by the coarsest reading, so closing a cover
this way never changes what it can solve; covers with equal closures form
one equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Cover, FeatureUniverse, bits, preimage_key
from .errors import SizeGuardError, ValidationError, guard_features
from .order import _check_universes, meet

__all__ = [
    "OrderDiagram",
    "StarClass",
    "canonical_rep",
    "class_members",
    "is_partition",
    "partition_slice",
    "proceeds",
    "quotient_meet",
    "refines",
    "star_class",
    "star_closure",
    "star_equivalent",
    "star_subsumes",
]

MAX_PREIMAGE_BITS = 20
MAX_CLASS_EXTRA = 20
# 4,140 partitions at 8 features and every pair of them compared; 21,147 at 9.
PARTITION_SLICE_LIMIT = 8


def star_closure(v: Cover) -> Cover:
    """Downward closure: every non-empty subset of every pre-image of ``v``.

    Idempotent and extensive; refused for a pre-image of more than
    ``MAX_PREIMAGE_BITS`` features, because a pre-image of size ``s``
    contributes ``2**s - 1`` subsets.  Only ``v``'s own pre-images keep
    their labels.  The subsets are sorted by ``preimage_key``, not filtered
    from the universe's ``canonical_masks`` table, because that table grows
    with the universe while the closure grows only with ``v``.
    """
    if v._closure is not None:
        return v._closure
    widest = max(m.bit_count() for m in v.masks)
    if widest > MAX_PREIMAGE_BITS:
        raise SizeGuardError(
            f"a pre-image of size {widest} closes into 2**{widest} subsets "
            f"(limit {MAX_PREIMAGE_BITS})"
        )
    subsets: set[int] = set()
    for m in v.masks:
        s = m
        while s:
            subsets.add(s)
            s = (s - 1) & m
    masks = tuple(sorted(subsets, key=preimage_key))
    closed = Cover._from_canonical(v.universe, masks, v.labels)
    closed._closure = closed
    v._closure = closed
    return closed


def star_equivalent(a: Cover, b: Cover) -> bool:
    """True iff the star-closures coincide."""
    _check_universes(a, b)
    return star_closure(a) == star_closure(b)


def canonical_rep(c: Cover) -> Cover:
    """The inclusion-maximal pre-images of ``c``.

    This antichain is star-equivalent to ``c`` and is the unique smallest
    member of its star-equivalence class; its pre-images keep their labels.
    """
    masks = c.masks
    keep = [m for m in masks if not any(m != o and m & o == m for o in masks)]
    return Cover(c.universe, keep, c.labels)


def class_members(c: Cover) -> set[Cover]:
    """All covers with the same star-closure as ``c``.

    Every member is the canonical representative plus some subset of the
    remaining closure elements, so there are exactly
    ``2**(len(closure) - len(representative))`` of them; refused past
    ``2**MAX_CLASS_EXTRA`` members.
    """
    closed = star_closure(c)
    rep = canonical_rep(c)
    extras = sorted(closed.mask_set - rep.mask_set)
    if len(extras) > MAX_CLASS_EXTRA:
        raise SizeGuardError(
            f"class has 2**{len(extras)} members (limit 2**{MAX_CLASS_EXTRA})"
        )
    members = set()
    base = rep.masks
    for pick in range(1 << len(extras)):
        members.add(Cover(c.universe, base + tuple(extras[i] for i in bits(pick))))
    return members


def star_subsumes(a: Cover, b: Cover) -> bool:
    """Subsumption of the star-closures."""
    _check_universes(a, b)
    return star_closure(a).mask_set <= star_closure(b).mask_set


def proceeds(a: Cover, b: Cover) -> bool:
    """The combined ordering: subsumption, or inclusion of the star-closures.

    Closure is monotone, so subsumption is a special case of closure
    inclusion; the fast path just avoids closing comparable pairs.
    Excluding comparable pairs from the closure clause would break
    transitivity, so it is not done here.  A preorder, not a partial
    order: distinct covers with equal closures relate in both directions.
    """
    _check_universes(a, b)
    if a.mask_set <= b.mask_set:
        return True
    return star_closure(a).mask_set <= star_closure(b).mask_set


@dataclass(frozen=True, slots=True)
class StarClass:
    """A star-equivalence class, named by its canonical representative and shared closure."""

    representative: Cover
    closure: Cover


def star_class(c: Cover) -> StarClass:
    """The star-equivalence class of ``c``."""
    return StarClass(canonical_rep(c), star_closure(c))


def quotient_meet(a: Cover, b: Cover) -> StarClass:
    """Class of the meet; well defined because closure distributes over the collection union."""
    return star_class(meet(a, b))


def is_partition(c: Cover) -> bool:
    """True iff the pre-images are pairwise disjoint."""
    return sum(m.bit_count() for m in c.masks) == c.universe.n


def refines(p: Cover, q: Cover) -> bool:
    """True iff every block of partition ``p`` lies inside a block of partition ``q``."""
    _check_universes(p, q)
    for c in (p, q):
        if not is_partition(c):
            raise ValidationError("refines is defined on partitions only")
    return all(any(bm & qm == bm for qm in q.masks) for bm in p.masks)


@dataclass(frozen=True, slots=True)
class OrderDiagram:
    """Nodes plus the immediate-successor edges of an order's transitive reduction."""

    nodes: tuple[Cover, ...]
    edges: frozenset[tuple[Cover, Cover]]


def partition_slice(universe: FeatureUniverse) -> OrderDiagram:
    """All partitions of the universe under the refinement order.

    Edge ``(p, q)`` means ``p`` is an immediate refinement of ``q``; finer
    partitions sit higher.  Restricted to partitions, refinement agrees
    with the combined cover ordering.
    """
    guard_features("partition slice", universe.n, PARTITION_SLICE_LIMIT)
    from .enumeration import all_partitions, hasse_edges

    parts = all_partitions(universe)
    return OrderDiagram(parts, frozenset(hasse_edges(parts, "proceeds")))
