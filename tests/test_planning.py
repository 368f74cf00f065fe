import random

import pytest

from cover_lattice import (
    Cover,
    FeatureUniverse,
    PlanningProblem,
    Policy,
    SizeGuardError,
    UniverseMismatchError,
    UnsolvableError,
    ValidationError,
    canonical_masks,
    extract_policy,
    find_policy_counterexample,
    make_problem,
    make_universe,
    maximal_solvable_covers,
    solvable,
    star_closure,
    subsumes,
    u_inflation,
    verify_policy,
    winning_beliefs,
)

from cover_lattice import planning
from cover_lattice._kernel import rank_table
from cover_lattice.planning import MAX_STATES

from util import (
    C,
    andor_solvable,
    class_walk_maximal_solvable_covers,
    corridor_problem,
    exhaustive_maximal_solvable_covers,
    random_problem,
    sparse_problem,
    sweep_rank_table,
)


def B(*labels):
    return frozenset(labels)


class TestProblemConstruction:
    def test_make_problem_from_labels(self, u3):
        p = make_problem(
            u3,
            ["right"],
            {"1": {"right": ["2"]}, "2": {"right": ["3"]}, "3": {"right": ["3"]}},
            ["1", "2", "3"],
            ["3"],
        )
        assert p.initial == 7 and p.goal == 4
        assert p.transitions == ((2, 4, 4),)

    def test_missing_transition(self, u2):
        with pytest.raises(ValidationError, match="transition undefined"):
            make_problem(u2, ["a"], {"1": {"a": ["1"]}}, ["1"], ["2"])

    def test_empty_successor_set(self, u2):
        with pytest.raises(ValidationError, match="empty successor"):
            PlanningProblem(u2, ("a",), ((1, 0),), 1, 2)

    def test_empty_goal(self, u2):
        with pytest.raises(ValidationError, match="goal"):
            PlanningProblem(u2, ("a",), ((1, 2),), 1, 0)

    def test_no_actions_rejected(self, u3):
        with pytest.raises(ValidationError, match="at least one action required"):
            PlanningProblem(u3, (), (), 1, 4)


class TestWinningBeliefs:
    def test_idle_action_only_goal_beliefs_win(self, u3):
        p = PlanningProblem(u3, ("stay",), ((1, 2, 4),), 1, 4)
        assert winning_beliefs(p, C(u3, "123")) == {B("3")}

    def test_right_march_blind_all_beliefs_win(self, right_march, u3):
        win = winning_beliefs(right_march, C(u3, "123"))
        assert len(win) == 7

    def test_right_march_matches_andor_oracle(self, right_march, u3):
        blind = C(u3, "123")
        win = winning_beliefs(right_march, blind)
        for b in range(1, 8):
            restarted = PlanningProblem(
                u3, right_march.actions, right_march.transitions, b, right_march.goal
            )
            assert (frozenset(u3.labels_of(b)) in win) == andor_solvable(restarted, blind)

    def test_junction_blind_loses_initial(self, junction, u4):
        win = winning_beliefs(junction, C(u4, "1234"))
        assert B("1", "3") not in win
        assert B("1") in win and B("3") in win

    def test_universe_mismatch(self, junction, u3):
        with pytest.raises(UniverseMismatchError):
            winning_beliefs(junction, C(u3, "123"))

    @pytest.mark.parametrize(
        "x",
        [B("1"), {"1"}, B("1", "3"), {"2", "3"}, B("9"), B("1", "9"), B(), set(), "1", "12", 1, 5, None],
    )
    def test_membership_agrees_with_a_real_set(self, junction, u4, x):
        # Only a non-empty set of known labels can be a member: a str is not
        # read label by label, and an int is not taken for a mask.
        win = winning_beliefs(junction, C(u4, "1234"))
        assert (x in win) == (x in set(win))

    def test_len_and_comparisons_with_a_real_set(self, junction, u4):
        win = winning_beliefs(junction, C(u4, "1234"))
        want = {B("1"), B("2"), B("3"), B("1", "2"), B("2", "3")}
        assert len(win) == len(want) == 5
        assert win == want and want == win
        assert not (win != want) and not (want != win)
        other = want - {B("1")}
        assert win != other and other != win
        assert win >= other and other <= win and not win <= other
        assert win <= want <= win and want >= win

    def test_set_operators_return_plain_sets(self, junction, u4):
        win = winning_beliefs(junction, C(u4, "1234"))
        some = {B("1"), B("4")}
        for got, want in (
            (win & some, {B("1")}),
            (some & win, {B("1")}),
            (win | some, set(win) | {B("4")}),
            (win - some, set(win) - {B("1")}),
            (win ^ some, set(win) - {B("1")} | {B("4")}),
        ):
            assert type(got) is set and got == want

    def test_result_is_read_only_and_unhashable(self, junction, u4):
        win = winning_beliefs(junction, C(u4, "1234"))
        with pytest.raises(TypeError):
            hash(win)
        assert not hasattr(win, "add")
        assert "5 of the 15 beliefs" in repr(win)

    def test_beliefs_decoded_only_on_iteration(self, monkeypatch, junction, u4):
        calls = []
        belief_of = FeatureUniverse.belief_of

        def counted(self, mask):
            calls.append(mask)
            return belief_of(self, mask)

        monkeypatch.setattr(FeatureUniverse, "belief_of", counted)
        win = winning_beliefs(junction, C(u4, "1", "2", "3", "4"))
        assert calls == []
        assert B("1", "3") in win and B("4") not in win
        assert calls == []
        beliefs = list(win)
        assert len(calls) == len(win) == len(beliefs) == len(set(beliefs))
        assert calls == sorted(calls)

    @pytest.mark.parametrize("n", [9, 12, 13, 14])
    def test_matches_sweep_oracle_labels(self, n):
        # The label sets equal the ones built from the sweep oracle's table
        # one frozenset(labels_of(b)) at a time.
        u = make_universe([str(i + 1) for i in range(n)])
        rng = random.Random(n)
        readings = {rng.randint(1, u.full_mask) for _ in range(3)}
        rest = u.full_mask
        for r in readings:
            rest &= ~r
        covers = ([1 << i for i in range(n)], [u.full_mask], sorted(readings | {rest} - {0}))
        corridor = corridor_problem(u, goal_right=n % 2 == 0)
        for p in (corridor, sparse_problem(u, n), sparse_problem(u, n + 1)):
            post = list(p._tables[0])
            for masks in covers:
                ranks = sweep_rank_table(n, p.goal, masks, len(p.actions), post)
                want = {frozenset(u.labels_of(b)) for b in range(1, 1 << n) if ranks[b] >= 0}
                got = winning_beliefs(p, Cover(u, masks))
                assert got == want and len(got) == len(want)

    def test_every_belief_wins_at_max_states(self):
        # At MAX_STATES a corridor under singleton readings is won from every
        # belief.  The sweep oracle takes seconds at this size, so the label
        # sets are built from the kernel's own table (the kernel is checked
        # against the sweep up to 14 states).
        n = MAX_STATES
        u = make_universe([str(i + 1) for i in range(n)])
        p = corridor_problem(u)
        masks = [1 << i for i in range(n)]
        post, index = p._tables
        ranks = rank_table(n, p.goal, masks, len(p.actions), post, index)
        want = {frozenset(u.labels_of(b)) for b in range(1, 1 << n) if ranks[b] >= 0}
        got = winning_beliefs(p, Cover(u, masks))
        assert len(got) == len(want) == (1 << n) - 1
        assert got == want

    def test_state_count_guard(self):
        u = make_universe([str(i) for i in range(17)])
        p = PlanningProblem(u, ("a",), (tuple(1 << i for i in range(17)),), 1, 1)
        from cover_lattice import make_cover

        blind = make_cover(u, [[str(i) for i in range(17)]])
        with pytest.raises(SizeGuardError):
            winning_beliefs(p, blind)


class TestSolvable:
    def test_junction_full_partition(self, junction, u4):
        assert solvable(junction, C(u4, "1", "2", "3", "4"))

    def test_junction_blind(self, junction, u4):
        assert not solvable(junction, C(u4, "1234"))

    def test_junction_pairing(self, junction, u4):
        assert solvable(junction, C(u4, "14", "23"))

    def test_initial_inside_goal_under_every_cover(self, u2):
        p = PlanningProblem(u2, ("a",), ((2, 1),), 1, 3)
        from cover_lattice import all_covers

        assert all(solvable(p, c) for c in all_covers(u2))


class TestExtractPolicy:
    def test_junction_pairing_policy(self, junction, u4):
        pol = extract_policy(junction, C(u4, "14", "23"))
        assert pol.action_of == {B("1"): "left", B("3"): "right"}
        assert pol.rank_of[B("1", "3")] == 1
        assert pol.rank_of[B("2")] == 0

    def test_initial_inside_goal_empty_policy(self, u2):
        p = PlanningProblem(u2, ("a",), ((2, 1),), 1, 1)
        pol = extract_policy(p, C(u2, "12"))
        assert pol.action_of == {}
        assert pol.rank_of == {B("1"): 0}

    def test_right_march_open_loop(self, right_march, u3):
        pol = extract_policy(right_march, C(u3, "123"))
        assert pol.action_of == {B("1", "2", "3"): "right", B("2", "3"): "right"}

    def test_unsolvable_raises(self, junction, u4):
        with pytest.raises(UnsolvableError):
            extract_policy(junction, C(u4, "1234"))

    def test_ranks_strictly_decrease(self, junction, u4):
        # certificate property along one-step execution
        cover = C(u4, "1", "2", "3", "4")
        pol = extract_policy(junction, cover)
        mask_of = u4.mask_of
        for b, rank in pol.rank_of.items():
            bm = mask_of(b)
            if not bm & ~junction.goal:
                assert rank == 0


class TestVerifyPolicy:
    def test_accepts_extracted_policies(self, junction, u4):
        for cover in (C(u4, "1", "2", "3", "4"), C(u4, "14", "23")):
            pol = extract_policy(junction, cover)
            assert verify_policy(junction, cover, pol)

    def test_rejects_all_left_with_trace(self, junction, u4):
        beliefs = [B("1"), B("2"), B("3"), B("4"), B("1", "3"), B("2", "4"), B("1", "2", "3", "4")]
        bad = Policy({b: "left" for b in beliefs}, {})
        blind = C(u4, "1234")
        assert not verify_policy(junction, blind, bad)
        failure = find_policy_counterexample(junction, blind, bad)
        assert failure.reason == "cycle"
        assert failure.belief == B("2", "4")  # the branch through junction 3 -> sink 4
        assert failure.steps[0].belief == B("1", "3")
        assert failure.steps[0].action == "left"

    def test_missing_action_reported(self, junction, u4):
        pol = Policy({B("1", "3"): "left"}, {})
        failure = find_policy_counterexample(junction, C(u4, "1234"), pol)
        assert failure.reason == "cycle" or failure.reason == "missing-action"
        bad = Policy({}, {})
        failure = find_policy_counterexample(junction, C(u4, "1234"), bad)
        assert failure.reason == "missing-action"
        assert failure.belief == B("1", "3")

    def test_empty_policy_when_initial_inside_goal(self, u2):
        p = PlanningProblem(u2, ("a",), ((2, 1),), 1, 1)
        assert verify_policy(p, C(u2, "12"), Policy({}, {}))

    def test_unknown_action_rejected(self, junction, u4):
        with pytest.raises(ValidationError):
            verify_policy(junction, C(u4, "1234"), Policy({B("1"): "up"}, {}))


class TestSolvableOracles:
    def test_right_march_all_covers_match_andor(self, right_march, covers3):
        for c in covers3:
            assert solvable(right_march, c) == andor_solvable(right_march, c)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_problems_match_andor(self, u3, covers3, seed):
        p = random_problem(u3, seed)
        for c in covers3:
            assert solvable(p, c) == andor_solvable(p, c)

    def test_junction_spot_check_andor(self, junction, u4):
        for c in (C(u4, "1234"), C(u4, "1", "2", "3", "4"), C(u4, "14", "23")):
            assert solvable(junction, c) == andor_solvable(junction, c)

    def test_solvable_iff_extracted_policy_verifies(self, right_march, u3, covers3):
        for c in covers3[:30]:
            if solvable(right_march, c):
                assert verify_policy(right_march, c, extract_policy(right_march, c))
            else:
                with pytest.raises(UnsolvableError):
                    extract_policy(right_march, c)


class TestSemanticTheorems:
    @pytest.mark.parametrize("seed", range(5))
    def test_plan_entailment_spot(self, u3, covers3, seed):
        p = random_problem(u3, seed)
        results = {c: solvable(p, c) for c in covers3}
        for a in covers3:
            if not results[a]:
                continue
            for b in covers3:
                if subsumes(b, a):
                    assert results[b]

    @pytest.mark.parametrize("seed", range(5))
    def test_star_invariance_spot(self, u3, covers3, seed):
        p = random_problem(u3, seed)
        for c in covers3:
            assert solvable(p, c) == solvable(p, star_closure(c))

    def test_belief_monotonicity_junction(self, junction, u4):
        from cover_lattice import all_partitions

        covers = list(all_partitions(u4)) + [C(u4, "1234"), C(u4, "14", "23")]
        for c in covers:
            win = {u4.mask_of(b) for b in winning_beliefs(junction, c)}
            for b in win:
                sub = (b - 1) & b
                while sub:
                    assert sub in win
                    sub = (sub - 1) & b


class TestMaximalSolvableCovers:
    def test_right_march_collapses_to_full_family(self, right_march, u3):
        full = C(u3, "1", "2", "3", "12", "13", "23", "123")
        assert maximal_solvable_covers(right_march) == {full}

    def test_initial_inside_goal_full_family(self, u2):
        p = PlanningProblem(u2, ("a",), ((2, 1),), 1, 3)
        assert maximal_solvable_covers(p) == {C(u2, "1", "2", "12")}

    def test_guard(self):
        u = make_universe([str(i) for i in range(6)])
        p = PlanningProblem(u, ("a",), (tuple(1 << i for i in range(6)),), 1, 1)
        with pytest.raises(SizeGuardError):
            maximal_solvable_covers(p)

    @pytest.mark.parametrize("n_actions", [1, 2, 3])
    @pytest.mark.parametrize("n,seeds", [(2, range(10)), (3, range(10)), (4, (3, 4))])
    def test_matches_exhaustive_search(self, n, seeds, n_actions):
        u = make_universe([str(i + 1) for i in range(n)])
        for seed in seeds:
            p = random_problem(u, seed, n_actions)
            assert maximal_solvable_covers(p) == exhaustive_maximal_solvable_covers(p)

    def test_five_features(self):
        u = make_universe([str(i + 1) for i in range(5)])
        p = random_problem(u, 6, 2)
        got = maximal_solvable_covers(p)
        assert len(got) == 5
        for c in got:
            assert solvable(p, c)
            for m in canonical_masks(u):
                if m not in c.mask_set:
                    assert not solvable(p, Cover(u, c.masks + (m,)))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [random_problem, sparse_problem])
    def test_matches_class_walk_at_five_features(self, make, seed):
        u = make_universe([str(i + 1) for i in range(5)])
        p = make(u, seed)
        assert maximal_solvable_covers(p) == class_walk_maximal_solvable_covers(p)

    def test_junction_matches_class_walk(self, junction):
        assert maximal_solvable_covers(junction) == class_walk_maximal_solvable_covers(junction)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("make", [random_problem, sparse_problem])
    @pytest.mark.parametrize("n", [6, 7])
    def test_border_beyond_the_class_walk(self, n, make, seed):
        u = make_universe([str(i + 1) for i in range(n)])
        p = make(u, seed)
        got = maximal_solvable_covers(p, limit=n)
        if not got:
            assert not solvable(p, Cover(u, canonical_masks(u)[:n]))
        for c in got:
            assert solvable(p, c)
            assert star_closure(c) is c
            for other in got:
                assert c == other or not subsumes(c, other)
            for m in canonical_masks(u):
                below = [m ^ 1 << i for i in range(n) if m >> i & 1 and m != 1 << i]
                if m not in c.mask_set and all(b in c.mask_set for b in below):
                    assert not solvable(p, Cover(u, c.masks + (m,)))

    @pytest.mark.parametrize("make", [random_problem, sparse_problem])
    def test_kernel_calls_at_five_features(self, make, monkeypatch):
        ranked = []

        def counting(n, goal, masks, *rest):
            ranked.append(masks)
            return rank_table(n, goal, masks, *rest)

        monkeypatch.setattr(planning, "rank_table", counting)
        u = make_universe([str(i + 1) for i in range(5)])
        for seed in range(6):
            ranked.clear()
            maximal_solvable_covers(make(u, seed))
            assert 1 <= len(ranked) <= 100
            assert len(set(ranked)) == len(ranked)  # no complex is ranked twice

    @pytest.mark.slow
    def test_junction_validated_against_brute_force(self, junction, u4):
        from cover_lattice import iter_covers

        covers = list(iter_covers(u4))
        solvable_covers = [c for c in covers if solvable(junction, c)]
        got = maximal_solvable_covers(junction)

        # definitional maximality scan, independent of the single-extension shortcut
        fams = {c: frozenset(c.mask_set) for c in solvable_covers}
        expected = {
            c
            for c in solvable_covers
            if not any(d is not c and fams[c] < fams[d] for d in solvable_covers)
        }
        assert got == expected

        # antichain of solvable covers
        for a in got:
            assert solvable(junction, a)
            for b in got:
                if a != b:
                    assert not subsumes(a, b)

        # u-inflation of the result regenerates the full solvable set
        regenerated = set()
        for c in got:
            regenerated |= u_inflation(c)
        assert regenerated == set(solvable_covers)

        # no solvable cover may contain a reading covering both junctions:
        # sensing it at the initial belief leaves {1,3}, which has no safe action
        both = u4.mask_of(["1", "3"])
        for c in solvable_covers:
            assert not any(m & both == both for m in c.masks)


class TestEmptySearchResult:
    def test_unsolvable_even_with_perfect_sensing(self, u2):
        # state 2 is an absorbing non-goal sink and the start belief sits in it
        p = PlanningProblem(u2, ("a",), ((1, 2),), 2, 1)
        assert not solvable(p, C(u2, "1", "2"))
        assert maximal_solvable_covers(p) == set()


class TestRankCertificates:
    @pytest.mark.parametrize("seed", range(4))
    def test_policy_ranks_strictly_decrease_along_branches(self, u3, covers3, seed):
        p = random_problem(u3, seed)
        for c in covers3[::11]:
            if not solvable(p, c):
                continue
            pol = extract_policy(p, c)
            mask_of = u3.mask_of
            ranks = {mask_of(b): r for b, r in pol.rank_of.items()}
            actions = {mask_of(b): a for b, a in pol.action_of.items()}
            for bm, rank in ranks.items():
                if not bm & ~p.goal:
                    assert rank == 0
                    continue
                for r in c.masks:
                    br = bm & r
                    if not br:
                        continue
                    a_idx = p.actions.index(actions[br])
                    nxt = 0
                    probe = br
                    while probe:
                        low = probe & -probe
                        nxt |= p.transitions[a_idx][low.bit_length() - 1]
                        probe ^= low
                    assert ranks[nxt] < rank
