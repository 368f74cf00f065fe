"""Certificate and oracle checks for the belief-ranking kernel."""

import math
import random

import pytest

from cover_lattice import (
    Cover,
    UnsolvableError,
    all_covers,
    extract_policy,
    iter_antichain_covers,
    make_cover,
    make_universe,
    solvable,
)
from cover_lattice import planning
from cover_lattice._kernel import byte_tables, post_of, rank_levels, reach_ranks, subset_bits

from util import (
    corridor_problem,
    funnel_problem,
    random_problem,
    rank_list,
    sparse_problem,
    sweep_rank_table,
    walk_post,
)


def _random_masks(universe, rng, k_max=6):
    # Random readings, completed to a cover by one reading over the rest.
    full = universe.full_mask
    masks = {rng.randint(1, full) for _ in range(rng.randint(1, k_max))}
    union = 0
    for m in masks:
        union |= m
    if union != full:
        masks.add(full & ~union)
    return sorted(masks)


def _workload():
    cases = []
    for n, seeds in ((2, range(3)), (3, range(6)), (4, range(4))):
        u = make_universe([str(i + 1) for i in range(n)])
        covers = all_covers(u)
        for seed in seeds:
            p = random_problem(u, seed, n_actions=1 + seed % 3)
            for c in covers[:: max(1, len(covers) // 40)]:
                cases.append((p, list(c.masks)))
    for n in (5, 6, 8):
        u = make_universe([str(i + 1) for i in range(n)])
        for seed in range(3):
            rng = random.Random(1000 * n + seed)
            p = random_problem(u, seed, n_actions=2)
            for _ in range(4):
                cases.append((p, _random_masks(u, rng)))
    return cases


def _large_workload():
    # Deep and sparse problems at 10-12 states under singleton, blind and random covers.
    cases = []
    for n in (10, 11, 12):
        u = make_universe([str(i + 1) for i in range(n)])
        rng = random.Random(n)
        singletons = [1 << i for i in range(n)]
        for p in (corridor_problem(u, goal_right=n % 2 == 0), sparse_problem(u, n)):
            for masks in (singletons, [u.full_mask], _random_masks(u, rng, 4)):
                cases.append((p, masks))
    return cases


def _antichain_workload():
    # Every covering-antichain representative at n <= 4, on a few problems each.
    cases = []
    for n in range(1, 5):
        u = make_universe([str(i + 1) for i in range(n)])
        reps = list(iter_antichain_covers(u))
        for seed in range(3):
            p = random_problem(u, 50 + seed, n_actions=1 + seed % 3)
            cases += [(p, list(c.masks)) for c in reps]
    return cases


@pytest.fixture(scope="module")
def workload():
    return _workload()


def _ranks(p, masks, until=0):
    n = p.universe.n
    return rank_list(n, rank_levels(n, p.goal, masks, p._tables[1], until))


def _assert_certified(p, masks, ranks):
    # The table is a self-certifying fixpoint.
    rows = p.transitions
    assert len(ranks) == 1 << p.universe.n and ranks[0] == -1
    for b in range(1, 1 << p.universe.n):
        k = ranks[b]
        if k == 0:
            assert not b & ~p.goal
        elif k > 0:
            assert b & ~p.goal
            for r in masks:
                br = b & r
                if br:
                    assert any(0 <= ranks[walk_post(row, br)] < k for row in rows)
        else:
            assert any(
                all(ranks[walk_post(row, b & r)] < 0 for row in rows) for r in masks if b & r
            )


def _assert_early_return_exact(p, masks, full):
    # The early return ranks the initial belief exactly; every entry it set is final.
    early = _ranks(p, masks, until=p.initial)
    assert early[p.initial] == full[p.initial]
    assert all(v == full[b] for b, v in enumerate(early) if v >= 0)


def test_rank_certificates(workload):
    for p, masks in workload:
        _assert_certified(p, masks, _ranks(p, masks))


def _assert_matches_sweep(cases):
    for p, masks in cases:
        full = _ranks(p, masks)
        assert full == sweep_rank_table(p.universe.n, p.goal, masks, p.transitions), (p, masks)
        _assert_early_return_exact(p, masks, full)
        cover = make_cover(p.universe, [p.universe.labels_of(m) for m in masks])
        assert solvable(p, cover) == (full[p.initial] >= 0)


def test_matches_sweep_oracle(workload):
    _assert_matches_sweep(workload)


def test_matches_sweep_oracle_on_deep_problems():
    _assert_matches_sweep(_large_workload())


def test_matches_sweep_oracle_on_every_antichain():
    _assert_matches_sweep(_antichain_workload())


def test_matches_sweep_oracle_on_funnels():
    # Under blind sensing every newly ranked belief holding the goal is
    # maximal, so each level looks up the most strong preimages.
    cases = []
    for n in range(2, 11):
        u = make_universe([str(i + 1) for i in range(n)])
        pairs = [0b11 << i for i in range(n - 1)]
        for masks in ([u.full_mask], [1 << i for i in range(n)], pairs):
            cases.append((funnel_problem(u), masks))
    _assert_matches_sweep(cases)


def test_running_union_is_a_down_set(workload):
    # The push marks only the strong preimages of each level's maximal
    # beliefs; that reaches every safe belief only if the ranked beliefs
    # are closed under taking sub-beliefs.
    for p, masks in workload:
        n = p.universe.n
        union = 0
        for level in rank_levels(n, p.goal, masks, p._tables[1]):
            union |= level
            for b in range(1, 1 << n):
                if union >> b & 1:
                    for i in range(n):
                        sub = b & ~(1 << i)
                        assert sub == b or sub == 0 or union >> sub & 1, (p, masks, b)


def _policy_items(p, cover):
    try:
        pol = extract_policy(p, cover)
    except UnsolvableError:
        return None
    return list(pol.action_of.items()), list(pol.rank_of.items())


def test_policy_from_early_stop_matches_full_table(workload, monkeypatch):
    # extract_policy ranks only what the initial belief reaches and stops at
    # it; the policy, its ranks and their insertion order must equal those
    # read off the full table.
    cases = [
        (p, Cover(p.universe, masks))
        for p, masks in workload + _large_workload() + _antichain_workload()
    ]
    early = [_policy_items(p, c) for p, c in cases]
    full_tables = []

    def full_table(p, masks):
        full_tables.append(_ranks(p, masks))
        return full_tables[-1]

    monkeypatch.setattr(planning, "_initial_ranks", full_table)
    assert early == [_policy_items(p, c) for p, c in cases]
    assert len(full_tables) == len(cases)
    assert all(len(t) == 1 << p.universe.n for t, (p, _) in zip(full_tables, cases))
    assert None in early and any(e is not None for e in early)


def _reach_cases():
    # Random, sparse and corridor problems at n = 1-10 under singletons, blind,
    # overlapping pairs and random covers.
    cases = []
    for n in range(1, 11):
        u = make_universe([str(i + 1) for i in range(n)])
        rng = random.Random(7000 + n)
        problems = [random_problem(u, 70 + seed, n_actions=1 + seed % 3) for seed in range(3)]
        problems += [corridor_problem(u, goal_right=True), corridor_problem(u, goal_right=False)]
        if n >= 4:  # sparse_problem draws an initial belief of up to 4 states
            problems += [sparse_problem(u, seed) for seed in range(3)]
        pairs = [0b11 << i for i in range(n - 1)] or [1]
        covers = [[1 << i for i in range(n)], [u.full_mask], pairs]
        covers += [_random_masks(u, rng) for _ in range(2)]
        cases += [(p, masks) for p in problems for masks in covers]
    return cases


def _reachable(p, masks):
    # Every pre-sensing belief some execution from the initial belief meets.
    seen = {p.initial}
    stack = [p.initial]
    while stack:
        b = stack.pop()
        if not b & ~p.goal:
            continue
        for r in masks:
            if b & r:
                for row in p.transitions:
                    x = walk_post(row, b & r)
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
    return seen


def test_reach_ranks_match_full_table():
    cases = _reach_cases()
    handed_over = 0
    for p, masks in cases:
        images = p._tables[0]
        full = _ranks(p, masks)
        ranks = reach_ranks(p.goal, masks, images, p.initial, math.inf)
        assert ranks[p.initial] == full[p.initial], (p, masks)
        assert all(full[b] == k for b, k in ranks.items()), (p, masks)
        top = full[p.initial]
        reached = _reachable(p, masks)
        assert set(ranks) <= reached
        for b in reached - set(ranks):
            assert full[b] == -1 or 0 <= top <= full[b], (p, masks, b)
        # The real budget either hands over or gives the same ranks.
        budgeted = reach_ranks(p.goal, masks, images, p.initial, planning._reach_budget(p))
        if budgeted is None:
            handed_over += 1
        else:
            assert budgeted == ranks
    assert 0 < handed_over < len(cases) // 2


def _counting_rank_levels(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return rank_levels(*args)

    monkeypatch.setattr(planning, "rank_levels", counting)
    return calls


@pytest.mark.parametrize("goal_right", [True, False])
def test_widest_corridor_ranks_no_table(goal_right, monkeypatch):
    # Solving and extracting a policy at MAX_STATES states rank only the
    # reachable beliefs: no full table under singletons or blind sensing.
    u = make_universe([str(i + 1) for i in range(planning.MAX_STATES)])
    p = corridor_problem(u, goal_right=goal_right)
    calls = _counting_rank_levels(monkeypatch)
    singletons = make_cover(u, [[label] for label in u.labels])
    blind = make_cover(u, [u.labels])
    assert solvable(p, singletons) and solvable(p, blind)
    assert max(extract_policy(p, singletons).rank_of.values()) == u.n - 1
    assert max(extract_policy(p, blind).rank_of.values()) == u.n - 1
    assert calls == []


def test_hand_over_gives_the_same_answers(monkeypatch):
    # The full complex at 6 features has 63 readings, so exploring costs more
    # than the budget, A * 2^5 exploring steps, and the call hands over to
    # rank_levels once.  So does the 1,023-reading complex on a 10-state
    # corridor, where exploring alone measured 5 times slower than the table.
    u = make_universe([str(i + 1) for i in range(6)])
    complex_ = Cover(u, u.canonical_masks)
    cases = [(sparse_problem(u, seed), complex_) for seed in range(20)]
    u10 = make_universe([str(i + 1) for i in range(10)])
    cases += [(corridor_problem(u10, goal_right=right), Cover(u10, u10.canonical_masks))
              for right in (True, False)]
    want = []
    for p, c in cases:
        budget = planning._reach_budget(p)
        assert reach_ranks(p.goal, c.masks, p._tables[0], p.initial, budget) is None
        want.append((_ranks(p, c.masks)[p.initial] >= 0, _policy_items(p, c)))
    calls = _counting_rank_levels(monkeypatch)
    for (p, c), (wins, _) in zip(cases, want):
        calls.clear()
        assert solvable(p, c) == wins
        assert len(calls) == 1 and calls[0][-1] == p.initial
        calls.clear()
        _policy_items(p, c)
        assert len(calls) == 1 and calls[0][-1] == p.initial
    assert any(wins for wins, _ in want) and not all(wins for wins, _ in want)
    monkeypatch.setattr(planning, "_initial_ranks", lambda p, masks: _ranks(p, masks))
    assert [_policy_items(p, c) for p, c in cases] == [items for _, items in want]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 12, planning.MAX_STATES])
def test_strong_preimage_tables(n):
    # pre_a(x), the AND of entry a over the bytes of x, is {s : T_a[s] ⊆ x},
    # and post_of(images, x), the OR over the bytes of x, is the union of
    # T_a[s] over the states s of x.
    u = make_universe([str(i + 1) for i in range(n)])
    for p in (random_problem(u, n, n_actions=3), corridor_problem(u)):
        images, strong = byte_tables(n, p.transitions)
        assert len(images) == len(strong) == (n + 7) // 8
        for x in range(1 << n):
            pres = [u.full_mask] * len(p.actions)
            for j, table in enumerate(strong):
                pres = [pre & t for pre, t in zip(pres, table[x >> 8 * j & 255])]
            want = [sum(1 << s for s, succ in enumerate(row) if not succ & ~x) for row in p.transitions]
            assert pres == want, (p, x)
            assert post_of(images, x) == tuple(walk_post(row, x) for row in p.transitions), (p, x)


@pytest.mark.parametrize("goal_right", [True, False])
def test_widest_corridor(goal_right):
    # MAX_STATES states: 2^16-bit belief sets, ranks 0 to 15 under both covers.
    u = make_universe([str(i + 1) for i in range(planning.MAX_STATES)])
    p = corridor_problem(u, goal_right=goal_right)
    for masks in ([1 << i for i in range(u.n)], [u.full_mask]):
        full = _ranks(p, masks)
        assert max(full) == u.n - 1
        _assert_certified(p, masks, full)
        _assert_early_return_exact(p, masks, full)


def test_one_state_world():
    u = make_universe(["1"])
    for n_actions in (1, 2):
        p = random_problem(u, n_actions, n_actions=n_actions)
        full = _ranks(p, [1])
        assert full == [-1, 0]
        _assert_certified(p, [1], full)
        _assert_early_return_exact(p, [1], full)


@pytest.mark.parametrize("n", range(7))
def test_subset_bits_brute_force(n):
    for mask in range(1 << n):
        want = sum(1 << b for b in range(1 << n) if not b & ~mask)
        assert subset_bits(mask) == want


def test_no_action_world():
    ranks = rank_list(3, rank_levels(3, 4, [7], byte_tables(3, ())[1]))
    assert ranks == [-1, -1, -1, -1, 0, -1, -1, -1]


def test_backend_report():
    from cover_lattice import KERNEL_BACKEND

    assert KERNEL_BACKEND == "pure"
