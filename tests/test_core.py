import random
import sys

import pytest

from cover_lattice import (
    Cover,
    SensorMap,
    ValidationError,
    invert_sensor_map,
    make_cover,
    make_universe,
)
from cover_lattice.core import preimage_key

from util import C, as_family, brute_cover_families


def assert_labels_match_bit_walk(u, masks):
    for mask in masks:
        want = tuple(label for i, label in enumerate(u.labels) if mask >> i & 1)
        assert u.labels_of(mask) == want
        assert u.belief_of(mask) == frozenset(want)


class TestLabelTables:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_mask(self, n):
        u = make_universe([f"f{i}" for i in range(n)])
        assert_labels_match_bit_walk(u, range(1 << n))

    @pytest.mark.parametrize("n", [15, 16, 17, 24, 40])
    def test_random_masks(self, n):
        u = make_universe([f"f{i}" for i in range(n)])
        rng = random.Random(n)
        masks = [0, u.full_mask] + [rng.getrandbits(n) for _ in range(300)]
        assert_labels_match_bit_walk(u, masks)

    @pytest.mark.parametrize("n", [3, 8, 14])
    def test_bit_outside_universe(self, n):
        u = make_universe([f"f{i}" for i in range(n)])
        with pytest.raises(IndexError):
            u.labels_of(1 << n)
        with pytest.raises(IndexError):
            u.belief_of(1 << n)

    def test_one_short_table_per_byte_built_on_first_use(self):
        u = make_universe([f"f{i}" for i in range(17)])
        assert u._byte_labels is None and u._byte_beliefs is None
        u.labels_of(5)
        assert u._byte_beliefs is None
        u.belief_of(5)
        assert [len(t) for t in u._byte_labels] == [256, 256, 2]
        assert [len(t) for t in u._byte_beliefs] == [256, 256, 2]


class TestCanonicalOrder:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_table_is_every_mask_by_preimage_key(self, n):
        u = make_universe([f"f{i}" for i in range(n)])
        assert u.canonical_masks == tuple(sorted(range(1, 1 << n), key=preimage_key))
        assert u.canonical_masks is u.canonical_masks


class TestMakeUniverse:
    def test_three_labels(self):
        u = make_universe(["1", "2", "3"])
        assert u.n == 3
        assert u.labels == ("1", "2", "3")

    def test_single_label(self):
        assert make_universe(["x"]).n == 1

    def test_duplicate_label(self):
        with pytest.raises(ValidationError, match="duplicate label"):
            make_universe(["a", "a"])

    def test_empty_sequence(self):
        with pytest.raises(ValidationError):
            make_universe([])

    def test_empty_label(self):
        with pytest.raises(ValidationError):
            make_universe(["a", ""])

    def test_index_layout(self):
        u = make_universe(["x", "y"])
        assert u.mask_of(["x"]) == 1
        assert u.mask_of(["y"]) == 2
        assert u.labels_of(3) == ("x", "y")


class TestMakeCover:
    def test_gps_cover(self, u3):
        c = make_cover(u3, [["1", "2"], ["1", "2", "3"], ["2", "3"]])
        assert len(c) == 3
        assert c.sets() == (("1", "2"), ("2", "3"), ("1", "2", "3"))

    def test_uncovered_feature_reported_by_name(self, u3):
        with pytest.raises(ValidationError, match="uncovered feature.*3"):
            make_cover(u3, [["1"], ["2"]])

    def test_duplicate_sets_merge(self, u2):
        c = make_cover(u2, [["1", "2"], ["2", "1"]])
        assert len(c) == 1

    def test_empty_preimage(self, u2):
        with pytest.raises(ValidationError, match="empty pre-image"):
            make_cover(u2, [["1", "2"], []])

    def test_unknown_label(self, u2):
        with pytest.raises(ValidationError, match="unknown feature label"):
            make_cover(u2, [["1", "q"]])

    def test_canonical_order(self, u3):
        # cardinality first, then feature indices
        c = make_cover(u3, [["1", "2", "3"], ["2", "3"], ["1"]])
        assert c.sets() == (("1",), ("2", "3"), ("1", "2", "3"))

    def test_canonicalization_idempotent(self, u3):
        c = make_cover(u3, [["3", "1"], ["2", "3"], ["1", "2", "3"]])
        again = make_cover(u3, c.sets())
        assert again == c
        assert again.sets() == c.sets()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_accepts_exactly_covering_families(self, n):
        # Exhaustive over every family of non-empty subsets.
        from itertools import combinations

        labels = [str(i + 1) for i in range(n)]
        u = make_universe(labels)
        subsets = [
            set(s) for k in range(1, n + 1) for s in combinations(labels, k)
        ]
        for r in range(0, len(subsets) + 1):
            for family in combinations(subsets, r):
                covering = set().union(*family) == set(labels) if family else False
                if covering:
                    assert make_cover(u, family) is not None
                else:
                    with pytest.raises(ValidationError):
                        make_cover(u, family)

    def test_brute_force_families_match(self, u3, covers3):
        assert {as_family(c) for c in covers3} == brute_cover_families(u3.labels)

    def test_equality_ignores_labels(self, u2):
        a = Cover(u2, [3], {3: "x"})
        b = Cover(u2, [3], {3: "y"})
        assert a == b
        assert hash(a) == hash(b)

    def test_labels_hold_labelled_preimages_only(self, u2):
        c = Cover(u2, [1, 2], {1: "a", 2: None, 3: "stray"})
        assert dict(c.labels) == {1: "a"}
        with pytest.raises(TypeError):
            c.labels[2] = "b"
        assert dict(Cover(u2, [3]).labels) == {}

    def test_trusted_mask_set_is_sized_as_validated(self):
        # A frozenset grown from a tuple holds 728 bytes at 5-7 members, 472 copied from a set.
        u = make_universe([str(i + 1) for i in range(8)])
        for k in range(1, 9):
            c = Cover(u, [1 << i for i in range(k - 1)] + [u.full_mask >> (k - 1) << (k - 1)])
            trusted = Cover._from_canonical(u, c.masks)
            assert trusted.mask_set == c.mask_set
            assert sys.getsizeof(trusted.mask_set) == sys.getsizeof(c.mask_set)

    def test_text_rendering(self, u3):
        assert str(C(u3, "12", "23")) == "{1,2}|{2,3}"


class TestSensorMap:
    def test_gps_inversion(self, u3):
        gps = SensorMap(u3, {"1": ["1", "2"], "2": ["1", "2", "3"], "3": ["2", "3"]})
        cover = invert_sensor_map(gps)
        assert cover == C(u3, "12", "123", "23")
        assert [cover.labels.get(m) for m in cover.masks] == ["1", "3", "2"]

    def test_identity_map(self, u3):
        perfect = SensorMap(u3, {"1": ["1"], "2": ["2"], "3": ["3"]})
        assert invert_sensor_map(perfect) == C(u3, "1", "2", "3")

    def test_constant_map(self, u3):
        blind = SensorMap(u3, {"any": ["1", "2", "3"]})
        assert invert_sensor_map(blind) == C(u3, "123")

    def test_duplicate_preimages_concatenate_labels(self, u2):
        m = SensorMap(u2, {"b": ["1", "2"], "a": ["2", "1"]})
        cover = invert_sensor_map(m)
        assert len(cover) == 1
        assert cover.labels[cover.masks[0]] == "a+b"

    def test_reading_with_empty_feature_set(self, u2):
        with pytest.raises(ValidationError, match="empty feature set"):
            SensorMap(u2, {"r": []})

    def test_feature_without_reading(self, u2):
        with pytest.raises(ValidationError, match="no possible reading"):
            SensorMap(u2, {"r": ["1"]})

    def test_inversion_always_yields_valid_cover(self, u3):
        # every valid map produces a valid cover by construction
        from itertools import product

        subsets = [["1"], ["2"], ["3"], ["1", "2"], ["2", "3"], ["1", "2", "3"]]
        for a, b in product(subsets, repeat=2):
            if set(a) | set(b) == {"1", "2", "3"}:
                cover = invert_sensor_map(SensorMap(u3, {"x": a, "y": b}))
                assert cover.universe == u3
