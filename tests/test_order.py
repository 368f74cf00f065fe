import pytest

from cover_lattice import (
    Cover,
    RelationTag,
    SizeGuardError,
    UniverseMismatchError,
    all_covers,
    compare,
    iter_u_inflation,
    join,
    make_cover,
    make_universe,
    meet,
    subsumes,
    u_inflation,
    upper_covers,
)

from util import C


class TestSubsumes:
    def test_adjacent_diagram_nodes(self, u3):
        assert subsumes(C(u3, "123"), C(u3, "1", "123"))

    def test_reflexive(self, u3):
        c = C(u3, "1", "2", "3")
        assert subsumes(c, c)

    def test_disjoint_collections(self, u3):
        assert not subsumes(C(u3, "1", "2", "3"), C(u3, "12", "23"))

    def test_universe_mismatch(self, u2, u3):
        with pytest.raises(UniverseMismatchError):
            subsumes(C(u2, "12"), C(u3, "123"))


class TestCompare:
    def test_first_subsumes_second(self, u3):
        assert compare(C(u3, "123"), C(u3, "1", "123")) is RelationTag.FIRST_SUBSUMES_SECOND

    def test_second_subsumes_first(self, u3):
        assert compare(C(u3, "1", "123"), C(u3, "123")) is RelationTag.SECOND_SUBSUMES_FIRST

    def test_incomparable(self, u3):
        assert compare(C(u3, "1", "23"), C(u3, "12", "23")) is RelationTag.INCOMPARABLE

    def test_equal(self, u2):
        assert compare(C(u2, "12"), C(u2, "12")) is RelationTag.EQUAL


class TestMeet:
    def test_collection_union(self, u3):
        assert meet(C(u3, "1", "123"), C(u3, "13", "123")) == C(u3, "1", "13", "123")

    def test_idempotent(self, u3):
        c = C(u3, "12", "23")
        assert meet(c, c) == c

    def test_partition_with_blind(self, u3):
        assert meet(C(u3, "1", "2", "3"), C(u3, "123")) == C(u3, "1", "2", "3", "123")


class TestJoin:
    def test_absent_when_intersection_uncovers(self, u3):
        assert join(C(u3, "1", "2", "3"), C(u3, "12", "23")) is None

    def test_present_when_intersection_covers(self, u3):
        assert join(C(u3, "12", "123"), C(u3, "23", "123")) == C(u3, "123")

    def test_idempotent(self, u3):
        c = C(u3, "1", "23")
        assert join(c, c) == c


class TestUpperCovers:
    def test_drops_common_subcollection(self, u3):
        s = {C(u3, "123"), C(u3, "1", "123"), C(u3, "23", "123")}
        assert upper_covers(s) == {C(u3, "1", "123"), C(u3, "23", "123")}

    def test_singleton(self, u3):
        c = C(u3, "1", "23")
        assert upper_covers({c}) == {c}

    def test_empty_input(self):
        assert upper_covers([]) == set()

    def test_all_covers_collapse_to_full_family(self, u3, covers3):
        full = C(u3, "1", "2", "3", "12", "13", "23", "123")
        assert upper_covers(covers3) == {full}

    def test_universe_mismatch(self, u2, u3):
        with pytest.raises(UniverseMismatchError):
            upper_covers([C(u2, "12"), C(u3, "123")])


class TestUInflation:
    def test_enumerates_valid_subcollections(self, u3):
        c = C(u3, "1", "2", "3", "12")
        expected = {
            C(u3, "1", "2", "3", "12"),
            C(u3, "1", "2", "3"),
            C(u3, "1", "12", "3"),
            C(u3, "2", "12", "3"),
            C(u3, "12", "3"),
        }
        assert u_inflation(c) == expected

    def test_keeps_labels_of_kept_preimages(self, u3):
        masks = [u3.mask_of(s) for s in ("1", "2", "3", "12")]
        labels = dict(zip(masks, "abcd"))
        got = list(iter_u_inflation(Cover(u3, masks, labels)))
        assert len(got) == 5
        for d in got:
            assert dict(d.labels) == {m: labels[m] for m in d.masks}

    def test_blind_cover_is_alone(self, u3):
        c = C(u3, "123")
        assert u_inflation(c) == {c}

    def test_every_preimage_required(self, u3):
        c = C(u3, "1", "23")
        assert u_inflation(c) == {c}

    def test_matches_subsumption_definition(self, u3, covers3):
        # u_inflation(c) = every valid cover subsuming c, exhaustively
        for c in covers3:
            assert u_inflation(c) == {d for d in covers3 if subsumes(d, c)}

    def test_duality_with_upper_covers_small(self, u2):
        for c in all_covers(u2):
            assert upper_covers(u_inflation(c)) == {c}

    def test_guard_and_streaming(self):
        u5 = make_universe(list("abcde"))
        big = make_cover(
            u5, [s for s in _all_subsets("abcde")]
        )
        assert len(big) == 31
        with pytest.raises(SizeGuardError):
            u_inflation(big)
        stream = iter_u_inflation(big)
        assert next(stream) == big  # include-first search yields the cover itself


def _all_subsets(labels):
    from itertools import combinations

    for k in range(1, len(labels) + 1):
        for s in combinations(labels, k):
            yield list(s)


class TestLawsExhaustiveSmall:
    def test_semilattice_laws_n2(self, u2):
        covers = all_covers(u2)
        for a in covers:
            assert subsumes(a, a)
            for b in covers:
                if subsumes(a, b) and subsumes(b, a):
                    assert a == b
                m = meet(a, b)
                assert subsumes(a, m) and subsumes(b, m)
                for d in covers:
                    if subsumes(a, d) and subsumes(b, d):
                        assert subsumes(m, d)
                j = join(a, b)
                uppers = [d for d in covers if subsumes(d, a) and subsumes(d, b)]
                if j is None:
                    assert not uppers
                else:
                    assert all(subsumes(d, j) for d in uppers) and j in uppers
                for c in covers:
                    if subsumes(a, b) and subsumes(b, c):
                        assert subsumes(a, c)
