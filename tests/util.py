"""Shared helpers and independent oracles for the test suite.

Oracles here deliberately avoid the package's own machinery: covers are
re-derived with ``itertools`` over frozensets, solvability with a top-down
AND-OR path search, counts with closed-form formulas.  The exceptions are the
sensor-search oracles, which use the package's enumeration and kernel but not
its border search: ``exhaustive_maximal_solvable_covers`` ranks every cover,
and ``class_walk_maximal_solvable_covers`` ranks one cover per star class.
``sweep_rank_table`` is the level-sweep fixpoint the package's worklist
kernel replaced, kept as that kernel's full-table oracle.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from cover_lattice import (
    Cover,
    PlanningProblem,
    canonical_masks,
    iter_antichain_covers,
    iter_covers,
    make_cover,
    solvable,
    star_closure,
    upper_covers,
)


def C(universe, *sets: str) -> Cover:
    """Cover from compact strings of single-character labels, e.g. C(u, "12", "23")."""
    return make_cover(universe, [list(s) for s in sets])


def cover_count_formula(n: int) -> int:
    """Inclusion-exclusion count of covers over an n-element universe."""
    return sum((-1) ** k * comb(n, k) * 2 ** (2 ** (n - k) - 1) for k in range(n + 1))


def bell_number(n: int) -> int:
    """Number of set partitions, via the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def brute_cover_families(labels) -> set[frozenset[frozenset[str]]]:
    """Every family of non-empty label subsets whose union is the label set."""
    labels = tuple(labels)
    subsets = [
        frozenset(s) for k in range(1, len(labels) + 1) for s in combinations(labels, k)
    ]
    out = set()
    for r in range(1, len(subsets) + 1):
        for family in combinations(subsets, r):
            if frozenset().union(*family) == frozenset(labels):
                out.add(frozenset(family))
    return out


def as_family(cover: Cover) -> frozenset[frozenset[str]]:
    return frozenset(frozenset(s) for s in cover.sets())


def fam_bits(index: dict[int, int], cover: Cover) -> int:
    """Cover as one integer: bit i set iff pre-image ``index``-ed i is present."""
    fam = 0
    for m in cover.masks:
        fam |= 1 << index[m]
    return fam


def exhaustive_maximal_solvable_covers(problem: PlanningProblem) -> set[Cover]:
    """Maximal solvable covers by ranking every cover (guarded at 4 features).

    A solvable cover is maximal iff no single-pre-image extension of it is
    solvable, because solvable covers are closed under covering
    sub-collections.
    """
    index = {m: i for i, m in enumerate(canonical_masks(problem.universe))}
    by_fam = {
        fam_bits(index, c): c for c in iter_covers(problem.universe) if solvable(problem, c)
    }
    return {
        c
        for fam, c in by_fam.items()
        if not any(
            not fam >> j & 1 and (fam | 1 << j) in by_fam for j in range(len(index))
        )
    }


def class_walk_maximal_solvable_covers(problem: PlanningProblem) -> set[Cover]:
    """Maximal solvable covers by ranking every star class (6894 at 5 features).

    Solvability is star-invariant, so each class is ranked once, on its
    covering-antichain representative, and the answer is the
    sub-collection-maximal closures of the solvable classes.
    """
    return upper_covers(
        star_closure(rep)
        for rep in iter_antichain_covers(problem.universe)
        if solvable(problem, rep)
    )


def random_problem(universe, seed: int, n_actions: int = 2) -> PlanningProblem:
    rng = random.Random(seed)
    full = universe.full_mask
    actions = tuple(f"a{i}" for i in range(n_actions))
    transitions = tuple(
        tuple(rng.randint(1, full) for _ in range(universe.n)) for _ in actions
    )
    return PlanningProblem(universe, actions, transitions, rng.randint(1, full), rng.randint(1, full))


def corridor_problem(universe, goal_right: bool = True) -> PlanningProblem:
    """Deterministic left/right corridor started everywhere; the goal is one end.

    Every rank from 0 to n - 1 occurs, so sweeps run the full depth.
    """
    n = universe.n
    left = tuple(1 << max(i - 1, 0) for i in range(n))
    right = tuple(1 << min(i + 1, n - 1) for i in range(n))
    goal = 1 << (n - 1) if goal_right else 1
    return PlanningProblem(universe, ("left", "right"), (left, right), universe.full_mask, goal)


def sparse_problem(universe, seed: int) -> PlanningProblem:
    """One or two successors per state and action, a goal of one or two states."""
    rng = random.Random(seed)
    n = universe.n
    actions = tuple(f"a{i}" for i in range(2 + seed % 2))

    def succ() -> int:
        m = 1 << rng.randrange(n)
        return m | 1 << rng.randrange(n) if rng.random() < 0.3 else m

    transitions = tuple(tuple(succ() for _ in range(n)) for _ in actions)
    goal = sum(1 << s for s in rng.sample(range(n), rng.choice((1, 2))))
    initial = sum(1 << s for s in rng.sample(range(n), rng.randint(2, 4)))
    return PlanningProblem(universe, actions, transitions, initial, goal)


def andor_solvable(problem: PlanningProblem, cover: Cover) -> bool:
    """Top-down AND-OR search over execution paths with visited-set pruning.

    Independent oracle for the bottom-up ranking kernel.  A belief repeated
    along the current path is a losing branch; results are memoized per
    (belief, path) pair, which is sound because the path fully determines
    the subtree.
    """
    goal = problem.goal
    acount = len(problem.actions)
    trans = problem.transitions
    readings = cover.masks

    def post(b: int, a: int) -> int:
        out = 0
        row = trans[a]
        while b:
            low = b & -b
            out |= row[low.bit_length() - 1]
            b ^= low
        return out

    memo: dict[tuple[int, frozenset], bool] = {}

    def win(b: int, path: frozenset) -> bool:
        if not b & ~goal:
            return True
        if b in path:
            return False
        key = (b, path)
        cached = memo.get(key)
        if cached is not None:
            return cached
        deeper = path | {b}
        result = all(
            any(win(post(b & r, a), deeper) for a in range(acount))
            for r in readings
            if b & r
        )
        memo[key] = result
        return result

    return win(problem.initial, frozenset())


def sweep_rank_table(n, goal_mask, preimage_masks, n_actions, post):
    """Steps-to-goal rank for every belief bitmask in ``range(1 << n)``.

    ``post[b * n_actions + a]`` is the belief reached from post-sensing
    belief ``b`` under action ``a``, with nondeterminism folded into the
    union.  Rank 0 marks beliefs inside the goal and -1 marks beliefs from
    which the goal cannot be guaranteed.  Sweep ``k`` admits a belief when
    every intersecting reading leaves some action into a belief ranked
    strictly below ``k``, so ranks equal the fixpoint level and strictly
    decrease along every adversarial execution branch.
    """
    size = 1 << n
    not_goal = ~goal_mask
    rank = [-1] * size
    for b in range(1, size):
        if not b & not_goal:
            rank[b] = 0
    pres = list(preimage_masks)
    actions = range(n_actions)
    k = 0
    changed = True
    while changed:
        changed = False
        k += 1
        for b in range(1, size):
            if rank[b] >= 0:
                continue
            for r in pres:
                br = b & r
                if not br:
                    continue
                base = br * n_actions
                for a in actions:
                    rs = rank[post[base + a]]
                    if 0 <= rs < k:
                        break
                else:
                    break  # this reading has no safe action: b stays unranked
            else:
                rank[b] = k
                changed = True
    return rank
