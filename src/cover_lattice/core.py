"""Universes, covers, and sensor maps.

A sensor over a finite feature set is identified with the cover formed by
the pre-images of its readings.  Feature subsets are bitmasks over the
universe's fixed label order, which keeps every derived structure
deterministic and cheap to compare.  A cover is its pre-image masks plus a
map from mask to reading label for the pre-images whose reading is named;
the names never take part in comparisons.  ``FeatureUniverse.labels_of`` and
``FeatureUniverse.belief_of`` turn a bitmask back into labels, as a tuple in
index order and as a frozenset, from per-byte lookup tables.
``FeatureUniverse.canonical_masks`` lists every subset in ``preimage_key``
order, once per universe.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ValidationError

__all__ = [
    "Cover",
    "FeatureUniverse",
    "RelationTag",
    "SensorMap",
    "bits",
    "invert_sensor_map",
    "make_cover",
    "make_universe",
    "preimage_key",
]


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def preimage_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical pre-image sort key: cardinality, then feature indices."""
    return (mask.bit_count(), bits(mask))


class FeatureUniverse:
    """Ordered set of distinct world-feature labels.

    The label order is fixed at construction and defines the bit layout
    used by every subset in the package: feature ``labels[i]`` is bit ``i``.
    ``labels_of(mask)`` and ``belief_of(mask)`` give a subset's labels as a
    tuple in index order and as a frozenset.  Both read one lookup table per
    byte of the mask, ceil(n/8) tables of at most 256 entries each, built on
    first use: a subset of up to 16 features costs two lookups and one tuple
    concatenation or frozenset union, not a walk over its bits.
    """

    __slots__ = ("labels", "_index", "_byte_labels", "_byte_beliefs", "_canonical")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValidationError("universe needs at least one feature label")
        index: dict[str, int] = {}
        for pos, label in enumerate(labels):
            if not isinstance(label, str) or not label:
                raise ValidationError(f"feature labels must be non-empty strings, got {label!r}")
            if label in index:
                raise ValidationError(f"duplicate label: {label}")
            index[label] = pos
        self.labels = labels
        self._index = index
        self._byte_labels = None
        self._byte_beliefs = None
        self._canonical = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown feature label: {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The labels of the features in ``mask``, in index order."""
        tables = self._byte_labels or self._build_byte_labels()
        out = tables[0][mask & 0xFF]
        i = 0
        while mask := mask >> 8:
            i += 1
            out += tables[i][mask & 0xFF]
        return out

    def belief_of(self, mask: int) -> frozenset[str]:
        """The labels of the features in ``mask``, as a frozenset."""
        tables = self._byte_beliefs or self._build_byte_beliefs()
        belief = tables[0][mask & 0xFF]
        i = 0
        while mask := mask >> 8:
            i += 1
            belief = belief | tables[i][mask & 0xFF]
        return belief

    @property
    def canonical_masks(self) -> tuple[int, ...]:
        """Every non-empty subset in canonical order, built once per universe.

        The singletons come first, in index order.  The table holds
        ``2**n - 1`` ints, so it suits the small universes that enumeration
        and sensor search accept.
        """
        table = self._canonical
        if table is None:
            table = self._canonical = tuple(sorted(range(1, 1 << self.n), key=preimage_key))
        return table

    def _build_byte_labels(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        # Table j maps byte j of a mask to the labels of its set bits; the top
        # table is short when n is not a multiple of 8, so a bit outside the
        # universe raises IndexError.
        tables = []
        for lo in range(0, len(self.labels), 8):
            table = [()]
            for label in self.labels[lo : lo + 8]:
                table += [t + (label,) for t in table]
            tables.append(tuple(table))
        self._byte_labels = tuple(tables)
        return self._byte_labels

    def _build_byte_beliefs(self) -> tuple[tuple[frozenset[str], ...], ...]:
        tables = self._byte_labels or self._build_byte_labels()
        self._byte_beliefs = tuple(tuple(map(frozenset, t)) for t in tables)
        return self._byte_beliefs

    def __eq__(self, other):
        return isinstance(other, FeatureUniverse) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"FeatureUniverse({list(self.labels)!r})"


_NO_LABELS: Mapping[int, str] = MappingProxyType({})


class Cover:
    """Distinct non-empty pre-image masks whose union is the whole universe.

    ``masks`` holds the pre-images in canonical order (cardinality, then
    feature indices) and ``mask_set`` holds them as a frozenset.  ``labels``
    is a read-only map from a pre-image mask to its reading label; it holds
    only labelled pre-images, so it is empty when none is labelled, and a
    label whose mask is not in the cover is dropped.  Equality and hashing
    ignore labels.
    """

    __slots__ = ("universe", "masks", "mask_set", "labels", "_key", "_hash", "_closure")

    def __init__(
        self,
        universe: FeatureUniverse,
        masks: Iterable[int],
        labels: Mapping[int, str] | None = None,
    ):
        items = tuple(masks)
        full = universe.full_mask
        seen: set[int] = set()
        union = 0
        for m in items:
            if m == 0:
                raise ValidationError("empty pre-image")
            if m & ~full:
                raise ValidationError("pre-image not within universe")
            if m in seen:
                raise ValidationError(
                    "duplicate pre-image set: {%s}" % ",".join(universe.labels_of(m))
                )
            seen.add(m)
            union |= m
        if union != full:
            missing = ", ".join(universe.labels_of(full & ~union))
            raise ValidationError(f"uncovered feature(s): {missing}")
        kept = labels and {m: lab for m, lab in labels.items() if m in seen and lab is not None}
        self.universe = universe
        self.masks = tuple(sorted(items, key=preimage_key))
        self.mask_set = frozenset(seen)
        self.labels = MappingProxyType(kept) if kept else _NO_LABELS
        self._key = None
        self._hash = None
        self._closure = None

    @classmethod
    def _from_canonical(
        cls,
        universe: FeatureUniverse,
        masks: tuple[int, ...],
        labels: Mapping[int, str] = _NO_LABELS,
    ) -> "Cover":
        # Trusted fast path: masks already distinct, non-empty, covering, and in
        # canonical order; labels already read-only and keyed by masks present.
        c = cls.__new__(cls)
        c.universe = universe
        c.masks = masks
        c.mask_set = frozenset(masks)
        c.labels = labels
        c._key = None
        c._hash = None
        c._closure = None
        return c

    @property
    def canonical_key(self):
        key = self._key
        if key is None:
            key = (len(self.masks), tuple(preimage_key(m) for m in self.masks))
            self._key = key
        return key

    def sets(self) -> tuple[tuple[str, ...], ...]:
        """The pre-images as label tuples, in canonical order."""
        return tuple(self.universe.labels_of(m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other):
        return (
            isinstance(other, Cover)
            and self.universe == other.universe
            and self.masks == other.masks
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.universe.labels, self.masks))
            self._hash = h
        return h

    def __str__(self):
        return "|".join("{%s}" % ",".join(self.universe.labels_of(m)) for m in self.masks)

    def __repr__(self):
        return f"Cover({self})"


class SensorMap:
    """Many-to-many map from world features to the readings that may occur.

    ``readings`` maps each reading label to the feature set on which the
    reading is possible; every feature must admit at least one reading, so
    the sensor always outputs something.
    """

    __slots__ = ("universe", "readings")

    def __init__(self, universe: FeatureUniverse, readings: Mapping[str, Iterable[str]]):
        if not readings:
            raise ValidationError("sensor map needs at least one reading")
        table: dict[str, int] = {}
        union = 0
        for label, features in readings.items():
            if not isinstance(label, str) or not label:
                raise ValidationError(f"reading labels must be non-empty strings, got {label!r}")
            mask = universe.mask_of(features)
            if mask == 0:
                raise ValidationError(f"reading {label!r} has an empty feature set")
            table[label] = mask
            union |= mask
        if union != universe.full_mask:
            missing = ", ".join(universe.labels_of(universe.full_mask & ~union))
            raise ValidationError(f"feature(s) with no possible reading: {missing}")
        self.universe = universe
        self.readings = dict(sorted(table.items()))

    def __repr__(self):
        body = ", ".join(
            f"{label}->{{{','.join(self.universe.labels_of(mask))}}}"
            for label, mask in self.readings.items()
        )
        return f"SensorMap({body})"


class RelationTag(Enum):
    """How two covers over one universe relate under subsumption."""

    EQUAL = "equal"
    FIRST_SUBSUMES_SECOND = "first-subsumes-second"
    SECOND_SUBSUMES_FIRST = "second-subsumes-first"
    INCOMPARABLE = "incomparable"


def make_universe(labels: Iterable[str]) -> FeatureUniverse:
    """Build a universe from an ordered sequence of distinct labels."""
    return FeatureUniverse(labels)


def make_cover(universe: FeatureUniverse, sets: Iterable[Iterable[str]]) -> Cover:
    """Build a canonical cover from label subsets; duplicate subsets merge.

    Raises ``ValidationError`` for an empty subset, an unknown label, or a
    union that misses part of the universe (the gap is reported by name).
    """
    masks: set[int] = set()
    for subset in sets:
        mask = universe.mask_of(subset)
        if mask == 0:
            raise ValidationError("empty pre-image")
        masks.add(mask)
    return Cover(universe, masks)


def invert_sensor_map(m: SensorMap) -> Cover:
    """The cover formed by the per-reading pre-images.

    Readings with identical pre-images collapse into one pre-image whose
    label concatenates theirs.
    """
    grouped: dict[int, list[str]] = {}
    for label, mask in m.readings.items():
        grouped.setdefault(mask, []).append(label)
    return Cover(m.universe, grouped, {mask: "+".join(labs) for mask, labs in grouped.items()})
