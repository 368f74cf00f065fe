"""Certificate checks for the belief-ranking kernel."""

import random

import pytest

from cover_lattice import all_covers, make_universe
from cover_lattice._kernel import rank_table
from cover_lattice.planning import _post_list

from util import random_problem


def _random_masks(universe, rng):
    # Random readings, completed to a cover by one reading over the rest.
    full = universe.full_mask
    masks = {rng.randint(1, full) for _ in range(rng.randint(1, 6))}
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


@pytest.fixture(scope="module")
def workload():
    return _workload()


def test_rank_certificates(workload):
    # Every output must be a self-certifying fixpoint.
    for p, masks in workload:
        acount = len(p.actions)
        post = _post_list(p)
        ranks = rank_table(p.universe.n, p.goal, masks, acount, post)
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


def test_no_action_world():
    ranks = rank_table(3, 4, [7], 0, [])
    assert ranks == [-1, -1, -1, -1, 0, -1, -1, -1]


def test_backend_report():
    from cover_lattice import KERNEL_BACKEND

    assert KERNEL_BACKEND == "pure"
