"""Certificate and oracle checks for the belief-ranking kernel."""

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
from cover_lattice._kernel import predecessor_index, rank_table

from util import corridor_problem, random_problem, sparse_problem, sweep_rank_table


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
    post, index = p._tables
    return rank_table(p.universe.n, p.goal, masks, len(p.actions), post, index, until)


def test_rank_certificates(workload):
    # Every output must be a self-certifying fixpoint.
    for p, masks in workload:
        acount = len(p.actions)
        post = p._tables[0]
        ranks = _ranks(p, masks)
        for b in range(1, 1 << p.universe.n):
            k = ranks[b]
            if k == 0:
                assert not b & ~p.goal
            elif k > 0:
                assert b & ~p.goal
                for r in masks:
                    br = b & r
                    if br:
                        assert any(
                            0 <= ranks[post[br * acount + a]] < k for a in range(acount)
                        )
            else:
                assert any(
                    all(ranks[post[(b & r) * acount + a]] < 0 for a in range(acount))
                    for r in masks
                    if b & r
                )


def _assert_matches_sweep(cases):
    for p, masks in cases:
        n, acount = p.universe.n, len(p.actions)
        post = p._tables[0]
        full = _ranks(p, masks)
        assert full == sweep_rank_table(n, p.goal, masks, acount, list(post)), (p, masks)
        # The early return ranks the initial belief exactly; every entry it set is final.
        early = _ranks(p, masks, until=p.initial)
        assert early[p.initial] == full[p.initial]
        assert all(v == full[b] for b, v in enumerate(early) if v >= 0)
        cover = make_cover(p.universe, [p.universe.labels_of(m) for m in masks])
        assert solvable(p, cover) == (full[p.initial] >= 0)


def test_matches_sweep_oracle(workload):
    _assert_matches_sweep(workload)


def test_matches_sweep_oracle_on_deep_problems():
    _assert_matches_sweep(_large_workload())


def test_matches_sweep_oracle_on_every_antichain():
    _assert_matches_sweep(_antichain_workload())


def _policy_items(p, cover):
    try:
        pol = extract_policy(p, cover)
    except UnsolvableError:
        return None
    return list(pol.action_of.items()), list(pol.rank_of.items())


def test_policy_from_early_stop_matches_full_table(workload, monkeypatch):
    # extract_policy stops ranking at the initial belief; the policy, its
    # ranks and their insertion order must equal those read off the full table.
    cases = [
        (p, Cover(p.universe, masks))
        for p, masks in workload + _large_workload() + _antichain_workload()
    ]
    early = [_policy_items(p, c) for p, c in cases]
    full_ranks = planning._ranks
    monkeypatch.setattr(planning, "_ranks", lambda p, c, until=0: full_ranks(p, c))
    assert early == [_policy_items(p, c) for p, c in cases]
    assert None in early and any(e is not None for e in early)


def test_index_inverts_post(workload):
    for p, _ in workload[:: 10]:
        n, acount = p.universe.n, len(p.actions)
        post, (start, preds) = p._tables
        for x in range(1 << n):
            want = [y for y in range(1, 1 << n) for a in range(acount) if post[y * acount + a] == x]
            assert list(preds[start[x] : start[x + 1]]) == want


def test_no_action_world():
    ranks = rank_table(3, 4, [7], 0, [], predecessor_index(3, 0, []))
    assert ranks == [-1, -1, -1, -1, 0, -1, -1, -1]


def test_backend_report():
    from cover_lattice import KERNEL_BACKEND

    assert KERNEL_BACKEND == "pure"
