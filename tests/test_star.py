import random

import pytest

from cover_lattice import (
    Cover,
    SizeGuardError,
    StarClass,
    ValidationError,
    canonical_rep,
    class_members,
    is_partition,
    make_cover,
    make_universe,
    meet,
    partition_slice,
    proceeds,
    quotient_meet,
    refines,
    star_class,
    star_closure,
    star_equivalent,
    star_subsumes,
    subsumes,
)

from cover_lattice.core import preimage_key
from util import C


class TestStarClosure:
    def test_pair_universe(self, u2):
        assert star_closure(C(u2, "12")) == C(u2, "1", "2", "12")

    def test_singletons_already_closed(self, u3):
        c = C(u3, "1", "2", "3")
        assert star_closure(c) == c

    def test_mixed_cover(self, u4):
        c = C(u4, "12", "23", "4")
        assert star_closure(c) == C(u4, "1", "2", "3", "4", "12", "23")

    def test_idempotent_extensive_monotone(self, covers3):
        for c in covers3:
            closed = star_closure(c)
            assert c.mask_set <= closed.mask_set
            assert star_closure(closed) == closed
        for a in covers3:
            ca = star_closure(a).mask_set
            for b in covers3:
                if a.mask_set <= b.mask_set:
                    assert ca <= star_closure(b).mask_set

    def test_labels_only_original_preimages(self, u3):
        m = u3.mask_of
        c = Cover(u3, [m("12"), m("23")], {m("12"): "a", m("23"): "b"})
        closed = star_closure(c)
        assert closed == C(u3, "1", "2", "3", "12", "23")
        assert dict(closed.labels) == {m("12"): "a", m("23"): "b"}

    def test_wide_universe_in_canonical_order(self):
        # A closure sorts its own subsets; it never lists the 2**40 - 1 masks.
        u = make_universe([str(i) for i in range(40)])
        pairs = [[str(i), str(i + 1)] for i in range(0, 40, 2)]
        c = make_cover(u, pairs + [["0", "9", "17"], ["3", "39"]])
        labelled = Cover(u, c.masks, {u.mask_of(["3", "39"]): "r"})
        closed = star_closure(labelled)
        assert len(closed) == 40 + 20 + 4 + 1  # singletons, pairs, the triple closed, {3,39}
        assert closed.masks == Cover(u, reversed(closed.masks)).masks
        assert dict(closed.labels) == {u.mask_of(["3", "39"]): "r"}

    @staticmethod
    def subsets(masks):
        return {s for m in masks for s in range(1, m + 1) if s & m == s}

    @pytest.mark.parametrize("seed", range(24))
    def test_masks_in_preimage_key_order(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        u = make_universe([str(i) for i in range(n)])
        full = (1 << n) - 1
        masks = {rng.randint(1, full) for _ in range(rng.randint(1, 6))}
        covered = 0
        for m in masks:
            covered |= m
        c = Cover(u, [*masks, *(1 << i for i in range(n) if not covered >> i & 1)])
        assert star_closure(c).masks == tuple(sorted(self.subsets(c.masks), key=preimage_key))

    def test_sixteen_feature_preimage_in_preimage_key_order(self):
        u = make_universe([str(i) for i in range(17)])
        c = Cover(u, [0xFFFF, 1 << 16])
        closed = star_closure(c)
        assert len(closed) == 2**16
        assert closed.masks == tuple(sorted(self.subsets(c.masks), key=preimage_key))

    def test_size_guard(self):
        u = make_universe([str(i) for i in range(21)])
        wide = make_cover(u, [[str(i) for i in range(21)]])
        with pytest.raises(SizeGuardError):
            star_closure(wide)

    def test_meet_congruence(self, covers3):
        # closure of the meet is the union of the closures, exhaustively
        closures = {c: star_closure(c).mask_set for c in covers3}
        for a in covers3:
            for b in covers3:
                assert star_closure(meet(a, b)).mask_set == closures[a] | closures[b]


class TestStarEquivalence:
    def test_adding_finer_reading(self, u2):
        assert star_equivalent(C(u2, "12"), C(u2, "12", "1"))

    def test_partition_vs_blind(self, u2):
        assert not star_equivalent(C(u2, "1", "2"), C(u2, "12"))

    def test_reflexive(self, u3):
        c = C(u3, "12", "23")
        assert star_equivalent(c, c)


class TestCanonicalRep:
    def test_drops_dominated_preimage(self, u3):
        assert canonical_rep(C(u3, "1", "12", "23")) == C(u3, "12", "23")

    def test_keeps_labels_of_kept_preimages(self, u3):
        m = u3.mask_of
        c = Cover(u3, [m("1"), m("12"), m("23")], {m("1"): "low", m("12"): "x", m("23"): "y"})
        rep = canonical_rep(c)
        assert rep == C(u3, "12", "23")
        assert dict(rep.labels) == {m("12"): "x", m("23"): "y"}

    def test_antichain_fixed_point(self, u3):
        c = C(u3, "1", "2", "3")
        assert canonical_rep(c) == c

    def test_rep_of_closure_of_blind(self, u3):
        assert canonical_rep(star_closure(C(u3, "123"))) == C(u3, "123")

    def test_rep_properties_exhaustive(self, covers3):
        for c in covers3:
            rep = canonical_rep(c)
            masks = rep.masks
            assert not any(a != b and a & b == a for a in masks for b in masks)
            assert star_equivalent(rep, c)

    def test_rep_is_unique_minimum_of_class(self, u3):
        for c in (C(u3, "12", "23"), C(u3, "123"), C(u3, "1", "2", "3")):
            rep = canonical_rep(c)
            members = class_members(c)
            smallest = [m for m in members if len(m) == min(len(x) for x in members)]
            assert smallest == [rep]


class TestClassMembers:
    def test_four_members(self, u2):
        c = C(u2, "12")
        assert class_members(c) == {
            C(u2, "12"),
            C(u2, "12", "1"),
            C(u2, "12", "2"),
            C(u2, "12", "1", "2"),
        }

    def test_closed_cover_is_alone(self, u2):
        assert class_members(C(u2, "1", "2")) == {C(u2, "1", "2")}

    def test_members_span_multiple_layers(self, u2):
        sizes = {len(m) for m in class_members(C(u2, "12"))}
        assert len(sizes) >= 2

    def test_members_share_closure(self, u3):
        c = C(u3, "12", "23")
        closed = star_closure(c)
        members = class_members(c)
        assert len(members) == 1 << (len(closed) - len(canonical_rep(c)))
        assert all(star_closure(m) == closed for m in members)


class TestStarSubsumes:
    def test_incomparable_with_ordered_closures(self, u3):
        assert star_subsumes(C(u3, "1", "23"), C(u3, "12", "23"))

    def test_finer_partition_star_subsumes_coarser(self, u3):
        assert star_subsumes(C(u3, "1", "2", "3"), C(u3, "12", "3"))

    def test_negative_direction(self, u3):
        assert not star_subsumes(C(u3, "12", "3"), C(u3, "1", "2", "3"))


class TestProceeds:
    def test_via_closure_inclusion(self, u3):
        assert proceeds(C(u3, "1", "23"), C(u3, "12", "23"))

    def test_via_subsumption(self, u3):
        assert proceeds(C(u3, "123"), C(u3, "1", "123"))

    def test_antisymmetry_failure_witness(self, u2):
        a = C(u2, "12", "1")
        b = C(u2, "12", "2")
        assert a != b
        assert proceeds(a, b) and proceeds(b, a)

    def test_reflexive_and_transitive_exhaustive(self, covers3):
        rel = {}
        for a in covers3:
            for b in covers3:
                rel[(a, b)] = proceeds(a, b)
        for a in covers3:
            assert rel[(a, a)]
        for (a, b), ab in rel.items():
            if not ab:
                continue
            for c in covers3:
                if rel[(b, c)]:
                    assert rel[(a, c)]

    def test_antisymmetric_on_canonical_reps(self, u3):
        from cover_lattice import all_classes

        reps = [sc.representative for sc in all_classes(u3)]
        for a in reps:
            for b in reps:
                if a != b:
                    assert not (proceeds(a, b) and proceeds(b, a))


class TestQuotientMeet:
    def test_equivalent_inputs_same_class(self, u2):
        a = C(u2, "12")
        b = C(u2, "12", "1")
        assert star_class(a) == star_class(b)
        assert quotient_meet(a, b) == star_class(a)

    def test_idempotent(self, u3):
        c = C(u3, "12", "23")
        assert quotient_meet(c, c) == star_class(c)

    def test_rep_is_maximal_antichain_of_union(self, u3):
        result = quotient_meet(C(u3, "1", "2", "3"), C(u3, "123"))
        assert result.representative == C(u3, "123")

    def test_well_defined_on_classes(self, u2):
        a1, a2 = C(u2, "12"), C(u2, "12", "1")
        b = C(u2, "1", "2")
        assert quotient_meet(a1, b) == quotient_meet(a2, b)

    def test_is_starclass(self, u3):
        assert isinstance(quotient_meet(C(u3, "123"), C(u3, "123")), StarClass)


class TestPartitions:
    def test_is_partition(self, u3):
        assert is_partition(C(u3, "1", "23"))
        assert not is_partition(C(u3, "12", "23"))
        assert is_partition(C(u3, "123"))

    def test_refines(self, u3):
        assert refines(C(u3, "1", "2", "3"), C(u3, "12", "3"))
        assert not refines(C(u3, "12", "3"), C(u3, "1", "2", "3"))
        p = C(u3, "12", "3")
        assert refines(p, p)

    def test_refines_rejects_non_partition(self, u3):
        with pytest.raises(ValidationError):
            refines(C(u3, "12", "23"), C(u3, "123"))

    def test_slice_n3(self, u3):
        diagram = partition_slice(u3)
        assert len(diagram.nodes) == 5
        finest = C(u3, "1", "2", "3")
        blind = C(u3, "123")
        two_blocks = [C(u3, "3", "12"), C(u3, "2", "13"), C(u3, "1", "23")]
        expected = {(finest, q) for q in two_blocks} | {(q, blind) for q in two_blocks}
        assert diagram.edges == expected

    def test_slice_n1(self, u1):
        diagram = partition_slice(u1)
        assert len(diagram.nodes) == 1
        assert not diagram.edges

    def test_partitions_subsumption_incomparable(self, u3):
        parts = partition_slice(u3).nodes
        for p in parts:
            for q in parts:
                if p != q:
                    assert not subsumes(p, q)

    def test_slice_matches_orderings(self, u4):
        parts = partition_slice(u4).nodes
        assert len(parts) == 15
        for p in parts:
            for q in parts:
                assert refines(p, q) == star_subsumes(p, q) == proceeds(p, q)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_slice_is_reduction_of_refinement(self, n):
        # direct O(P^3) transitive reduction of the refinement order
        u = make_universe([str(i + 1) for i in range(n)])
        diagram = partition_slice(u)
        parts = diagram.nodes
        strict = {(a, b) for a in parts for b in parts if a != b and refines(a, b)}
        expected = {
            (a, b)
            for a, b in strict
            if not any((a, c) in strict and (c, b) in strict for c in parts if c not in (a, b))
        }
        assert diagram.edges == expected

    def test_slice_guard(self):
        # Refused before anything of size 2**n is built.
        for n in (11, 40):
            u = make_universe([str(i) for i in range(n)])
            with pytest.raises(
                SizeGuardError, match=rf"partition enumeration limited to 10 features \(got {n}\)"
            ):
                partition_slice(u)
