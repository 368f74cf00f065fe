import random

import pytest

from cover_lattice import (
    Cover,
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
    partition_count,
    proceeds,
    star_closure,
    star_subsumes,
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

    def test_unique_and_canonically_ordered(self, covers3, u4):
        for covers in (covers3, all_covers(u4)):
            assert len(set(covers)) == len(covers)
            keys = [c.canonical_key for c in covers]
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
        keys = [p.canonical_key for p in parts]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_count_without_listing(self, n):
        assert partition_count(make_universe([str(i + 1) for i in range(n)])) == bell_number(n)

    def test_outputs_are_partitions(self, u4):
        assert all(is_partition(p) for p in all_partitions(u4))

    def test_guard(self):
        u11 = make_universe([str(i) for i in range(11)])
        with pytest.raises(SizeGuardError, match=r"partition enumeration limited to 10 features \(got 11\)"):
            all_partitions(u11)


class TestHasseEdges:
    def test_closure_guard_before_any_closure(self):
        # Each cover holds a 20-feature pre-image: 2**20 - 1 subsets, plus one.
        u = make_universe([str(i + 1) for i in range(21)])
        wide = [Cover(u, [u.full_mask ^ 1 << i, 1 << i]) for i in range(4)]
        for order in ("star", "proceeds"):
            with pytest.raises(
                SizeGuardError,
                match=r"hasse diagram limited to 3145728 closure subsets \(got 4194304\)",
            ):
                hasse_edges(wide, order)
        assert all(c._closure is None for c in wide)
        assert hasse_edges(wide, "subsumption") == set()

    def test_closure_guard_admits_its_bound(self, monkeypatch, u3):
        items = [C(u3, "12", "3"), C(u3, "1", "23")]  # 3 + 1 + 1 + 3 subsets
        monkeypatch.setattr(enumeration, "HASSE_CLOSURE_LIMIT", 8)
        assert hasse_edges(items, "star") == set()
        monkeypatch.setattr(enumeration, "HASSE_CLOSURE_LIMIT", 7)
        with pytest.raises(SizeGuardError, match=r"limited to 7 closure subsets \(got 8\)"):
            hasse_edges(items, "proceeds")

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_partitions_under_proceeds_match_refinement(self, n):
        # hasse_edges under proceeds is the oracle for the slice's block merges
        from cover_lattice import partition_slice, refines

        u = make_universe([str(i + 1) for i in range(n)])
        diagram = partition_slice(u)
        parts = diagram.nodes
        edges = hasse_edges(parts, "proceeds")
        assert edges == set(diagram.edges)
        # top of the diagram is the finest partition
        tops = {a for a, _ in edges} - {b for _, b in edges}
        assert tops == ({C(u, *u.labels)} if n > 1 else set())
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

    @pytest.mark.parametrize("order", ["star", "proceeds"])
    def test_cycle_names_the_first_cover_with_an_equal_later_one(self, u3, order):
        # The A's and the B's are star-equivalent pairs; B2 is the first cover
        # whose set was seen before, yet A1 is the first that has a twin.
        a1, b1, b2, a2 = C(u3, "123"), C(u3, "12", "3"), C(u3, "1", "12", "3"), C(u3, "1", "123")
        with pytest.raises(CycleError) as excinfo:
            hasse_edges([a1, b1, b2, a2], order)
        assert str(excinfo.value) == (
            f"{order} is not antisymmetric on these items: "
            "{1,2,3} and {1}|{1,2,3} relate in both directions"
        )
        assert excinfo.value.witness == (a1, a2)

    def test_single_cover_is_not_closed(self):
        u21 = make_universe([str(i) for i in range(21)])
        wide = Cover(u21, [u21.full_mask])
        with pytest.raises(SizeGuardError):
            star_closure(wide)
        assert hasse_edges([wide, wide], "star") == set()

    def test_edge_guard(self, u3, monkeypatch):
        chain = [C(u3, "123"), C(u3, "1", "123"), C(u3, "1", "2", "123")]
        monkeypatch.setattr(enumeration, "HASSE_EDGE_LIMIT", 1)
        with pytest.raises(SizeGuardError, match=r"^hasse diagram limited to 1 edges \(got more\)$"):
            hasse_edges(chain)
        monkeypatch.setattr(enumeration, "HASSE_EDGE_LIMIT", 2)
        assert len(hasse_edges(chain)) == 2


def brute_reduction(items, relation):
    """Edges of ``relation`` on distinct ``items`` that no third item lies between."""
    above = {(a, b) for a in items for b in items if a != b and relation(a, b)}
    return {(a, b) for a, b in above if not any((a, c) in above and (c, b) in above for c in items)}


def one_per_class(covers):
    return list({star_closure(c): c for c in reversed(covers)}.values())


class TestHasseOracle:
    """The bit-column diagram against a reduction of the public predicates."""

    @pytest.fixture(scope="class")
    def inputs(self, covers3, u4):
        covers4 = all_covers(u4)
        return {
            "covers3": list(covers3),
            "representatives4": list(iter_antichain_covers(u4)),
            **{f"sample{seed}": random.Random(seed).sample(covers4, 40) for seed in range(6)},
        }

    @pytest.mark.parametrize(
        "name", ["covers3", "representatives4", *(f"sample{seed}" for seed in range(6))]
    )
    def test_matches_brute_force(self, inputs, name):
        items = inputs[name]
        assert hasse_edges(items, "subsumption") == brute_reduction(items, subsumes)
        classes = one_per_class(items)  # star and proceeds need distinct closures
        star = hasse_edges(classes, "star")
        assert star == brute_reduction(classes, star_subsumes)
        assert star == hasse_edges(classes, "proceeds")
        assert star == brute_reduction(classes, proceeds)
