import pytest

from cover_lattice import (
    CycleError,
    SizeGuardError,
    ValidationError,
    all_classes,
    all_covers,
    all_partitions,
    canonical_rep,
    class_count,
    cover_count,
    hasse_edges,
    is_partition,
    iter_antichain_covers,
    iter_covers,
    make_universe,
    star_closure,
    subsumes,
)

from cover_lattice import enumeration
from cover_lattice.core import preimage_key

from util import C, as_family, bell_number, brute_cover_families, cover_count_formula


class TestAllCovers:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 5), (3, 109)])
    def test_counts(self, n, count):
        u = make_universe([str(i + 1) for i in range(n)])
        covers = all_covers(u)
        assert len(covers) == count == cover_count_formula(n)

    def test_count_matches_formula_and_enumeration(self):
        for n in range(1, 14):
            u = make_universe([str(i + 1) for i in range(n)])
            assert cover_count(u) == cover_count_formula(n)
            if n <= 4:
                assert cover_count(u) == len(all_covers(u))

    def test_count_guards(self):
        # the count is a closed formula, so it is not bound by the listing's 4
        assert cover_count(make_universe([str(i) for i in range(5)])) == 2147321017
        # past 13 features the count would no longer print
        with pytest.raises(SizeGuardError, match=r"cover count limited to 13 features \(got 14\)"):
            cover_count(make_universe([str(i) for i in range(14)]))

    def test_n1_single_cover(self, u1):
        assert all_covers(u1) == (C(u1, "1"),)

    def test_matches_brute_force(self, u2, u3, covers3):
        assert {as_family(c) for c in all_covers(u2)} == brute_cover_families(u2.labels)
        assert {as_family(c) for c in covers3} == brute_cover_families(u3.labels)

    def test_unique_and_canonically_ordered(self, covers3):
        assert len(set(covers3)) == len(covers3)
        keys = [c.canonical_key for c in covers3]
        assert keys == sorted(keys)

    def test_guard_and_stream_flag(self):
        # the listing is guarded; the stream is not, like the other streams
        u5 = make_universe(list("abcde"))
        with pytest.raises(SizeGuardError, match=r"cover enumeration limited to 4 features \(got 5\)"):
            all_covers(u5)
        first = next(iter_covers(u5))
        assert first.universe == u5 and first.masks == (u5.full_mask,)


class TestAllClasses:
    def test_n2_classes(self, u2):
        reps = {sc.representative for sc in all_classes(u2)}
        assert reps == {C(u2, "12"), C(u2, "1", "2")}

    def test_n3_class_count(self, u3):
        assert len(all_classes(u3)) == 9

    def test_grouping_matches_closures(self, u3, covers3):
        by_closure = {}
        for c in covers3:
            by_closure.setdefault(star_closure(c), []).append(c)
        classes = all_classes(u3)
        assert len(classes) == len(by_closure)
        assert {sc.closure for sc in classes} == set(by_closure)
        # class sizes sum to the cover count
        assert sum(len(v) for v in by_closure.values()) == 109

    def test_representatives_are_covering_antichains(self, u3):
        for sc in all_classes(u3):
            rep = sc.representative
            assert canonical_rep(rep) == rep
            masks = rep.masks
            assert not any(a != b and a & b == a for a in masks for b in masks)
            assert star_closure(rep) == sc.closure


class TestClassCount:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_all_classes(self, n):
        u = make_universe([str(i + 1) for i in range(n)])
        assert class_count(u) == len(all_classes(u))

    def test_guarded_like_all_classes(self):
        # Both are guarded, each at its own bound: the listing at 5 features,
        # the count, which builds no closure, at 6.
        with pytest.raises(SizeGuardError, match=r"class enumeration limited to 5 features \(got 6\)"):
            all_classes(make_universe(list("abcdef")))
        assert class_count(make_universe(list("abcde"))) == 6894

    @pytest.mark.parametrize("n", [7, 30])
    def test_refused_past_six_whatever_the_limit(self, n, monkeypatch):
        # 7 features have about 2.4 * 10**12 classes: a count cannot finish.
        # A walk that starts fails at once instead of hanging.
        def walk(universe):
            raise AssertionError("class_count started walking the classes")

        monkeypatch.setattr(enumeration, "iter_antichain_covers", walk)
        with pytest.raises(SizeGuardError, match=rf"class count limited to 6 features \(got {n}\)"):
            class_count(make_universe([str(i) for i in range(n)]))


class TestIterAntichainCovers:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_antichain_members_of_all_covers(self, n):
        u = make_universe([str(i + 1) for i in range(n)])
        got = list(iter_antichain_covers(u))
        assert len(set(got)) == len(got)
        expected = {
            c
            for c in iter_covers(u)
            if not any(a != b and a & b == a for a in c.masks for b in c.masks)
        }
        assert set(got) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_order(self, n):
        u = make_universe([str(i + 1) for i in range(n)])
        keys = []
        for c in iter_antichain_covers(u):
            key = tuple(preimage_key(m) for m in c.masks)
            assert list(key) == sorted(key)
            assert c == C(u, *("".join(s) for s in c.sets()))
            keys.append(key)
        assert keys == sorted(keys)

    def test_count_at_five_features(self):
        u5 = make_universe([str(i + 1) for i in range(5)])
        assert sum(1 for _ in iter_antichain_covers(u5)) == 6894


class TestAllPartitions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bell_counts(self, n):
        u = make_universe([str(i + 1) for i in range(n)])
        parts = all_partitions(u)
        assert len(parts) == bell_number(n)
        assert len(set(parts)) == len(parts)

    def test_outputs_are_partitions(self, u4):
        assert all(is_partition(p) for p in all_partitions(u4))

    def test_guard(self):
        u11 = make_universe([str(i) for i in range(11)])
        with pytest.raises(SizeGuardError, match=r"partition enumeration limited to 10 features \(got 11\)"):
            all_partitions(u11)


class TestHasseEdges:
    def test_chain_of_two_edges(self, u3):
        top = C(u3, "123")
        mid = C(u3, "1", "123")
        bot = C(u3, "1", "2", "123")
        edges = hasse_edges({top, mid, bot}, "subsumption")
        assert edges == {(top, mid), (mid, bot)}

    def test_single_item_no_edges(self, u3):
        assert hasse_edges({C(u3, "123")}) == set()

    def test_empty_input(self):
        assert hasse_edges([]) == set()

    def test_partitions_under_proceeds_match_refinement(self, u3):
        from cover_lattice import partition_slice, refines

        parts = partition_slice(u3).nodes
        edges = hasse_edges(parts, "proceeds")
        assert edges == set(partition_slice(u3).edges)
        # top of the diagram is the finest partition
        tops = {a for a, _ in edges} - {b for _, b in edges}
        assert tops == {C(u3, "1", "2", "3")}
        strict = {(a, b) for a in parts for b in parts if a != b and refines(a, b)}
        assert edges <= strict

    def test_partitions_under_subsumption_are_degenerate(self, u3):
        parts = all_partitions(u3)
        assert hasse_edges(parts, "subsumption") == set()

    def test_reachability_closure_equals_relation(self, covers3):
        sample = covers3[::9]
        edges = hasse_edges(sample, "subsumption")
        succ = {c: set() for c in sample}
        for a, b in edges:
            succ[a].add(b)
        for a in sample:
            reach = set()
            stack = [a]
            while stack:
                x = stack.pop()
                for y in succ[x]:
                    if y not in reach:
                        reach.add(y)
                        stack.append(y)
            for b in sample:
                assert ((b in reach) or a == b) == subsumes(a, b)

    def test_proceeds_antisymmetry_violation_rejected(self, u2):
        a = C(u2, "12", "1")
        b = C(u2, "12", "2")
        with pytest.raises(CycleError) as excinfo:
            hasse_edges({a, b}, "proceeds")
        assert set(excinfo.value.witness) == {a, b}

    def test_star_cycle_also_rejected(self, u2):
        with pytest.raises(CycleError):
            hasse_edges({C(u2, "12"), C(u2, "12", "1")}, "star")

    def test_unknown_order(self, u2):
        with pytest.raises(ValidationError):
            hasse_edges({C(u2, "12")}, "alphabetical")
