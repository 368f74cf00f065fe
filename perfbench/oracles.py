"""Independent correctness oracles for the benchmark.

Nothing here imports ``cover_lattice``: feature sets are bitmasks over the
benchmark's own label order, solvability is a forward AND-OR search with a
least fixpoint over the reachable beliefs, policies are checked by their
own simulation, and counts come from closed forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

# Star classes are the covering antichains; these are the known counts.
STAR_CLASS_COUNTS = {1: 1, 2: 2, 3: 9, 4: 114}


@dataclass(frozen=True)
class Problem:
    """A planning problem in the benchmark's own encoding.

    ``trans[a][s]`` is the successor mask of state ``s`` under action ``a``;
    bit ``i`` of every mask is ``labels[i]``.
    """

    labels: tuple[str, ...]
    actions: tuple[str, ...]
    trans: tuple[tuple[int, ...], ...]
    initial: int
    goal: int

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1

    def to_doc(self) -> dict:
        return {
            "states": list(self.labels),
            "actions": list(self.actions),
            "transition": {
                s: {a: names(self.labels, self.trans[ai][si]) for ai, a in enumerate(self.actions)}
                for si, s in enumerate(self.labels)
            },
            "initial": names(self.labels, self.initial),
            "goal": names(self.labels, self.goal),
        }


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def names(labels, mask: int) -> list[str]:
    return [labels[i] for i in bits(mask)]


def mask_of(labels, subset) -> int:
    index = {lab: i for i, lab in enumerate(labels)}
    out = 0
    for lab in subset:
        out |= 1 << index[lab]
    return out


def family_of(labels, sets) -> frozenset[int]:
    """Label subsets (as the program prints them) to a family of masks."""
    return frozenset(mask_of(labels, s) for s in sets)


def canon_key(mask: int) -> tuple[int, list[int]]:
    return (mask.bit_count(), bits(mask))


def canonical(family) -> list[int]:
    return sorted(family, key=canon_key)


def is_cover(family, full: int) -> bool:
    union = 0
    for m in family:
        if m == 0 or m & ~full:
            return False
        union |= m
    return union == full


def closure(family) -> frozenset[int]:
    out = set()
    for m in family:
        s = m
        while s:
            out.add(s)
            s = (s - 1) & m
    return frozenset(out)


def antichain(family) -> frozenset[int]:
    return frozenset(a for a in family if not any(a != b and a & b == a for b in family))


@lru_cache(maxsize=None)
def all_covers(n: int) -> tuple[frozenset[int], ...]:
    full = (1 << n) - 1
    masks = list(range(1, full + 1))
    out = []
    for k in range(1, len(masks) + 1):
        for combo in combinations(masks, k):
            if is_cover(combo, full):
                out.append(frozenset(combo))
    return tuple(out)


def cover_count(n: int) -> int:
    """Inclusion-exclusion count of covers of an n-element set."""
    return sum((-1) ** k * comb(n, k) * 2 ** (2 ** (n - k) - 1) for k in range(n + 1))


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def partitions(n: int) -> list[frozenset[int]]:
    out = []

    def rec(i: int, blocks: list[int]) -> None:
        if i == n:
            out.append(frozenset(blocks))
            return
        for j in range(len(blocks)):
            blocks[j] |= 1 << i
            rec(i + 1, blocks)
            blocks[j] &= ~(1 << i)
        blocks.append(1 << i)
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def refinement_edges(parts) -> set[tuple[frozenset[int], frozenset[int]]]:
    """(p, q) where q merges exactly two blocks of p: the covering pairs."""
    present = set(parts)
    edges = set()
    for p in parts:
        blocks = sorted(p)
        for a, b in combinations(blocks, 2):
            q = frozenset((p - {a, b}) | {a | b})
            if q in present:
                edges.add((p, q))
    return edges


# ---------------------------------------------------------------------------
# planning


def _post(prob: Problem, belief: int, a: int) -> int:
    row = prob.trans[a]
    out = 0
    for s in bits(belief):
        out |= row[s]
    return out


def solvable(prob: Problem, readings, start: int | None = None) -> bool:
    """Forward AND-OR search: is ``start`` winning when the adversary senses with ``readings``?

    Explores every pre-sensing belief reachable from ``start``, then takes
    the least fixpoint of "inside the goal, or every meeting reading leaves
    an action into a winning belief".
    """
    start = prob.initial if start is None else start
    goal = prob.goal
    acts = range(len(prob.actions))
    readings = tuple(readings)
    succ: dict[int, list[tuple[int, ...]]] = {}
    seen = {start}
    stack = [start]
    while stack:
        b = stack.pop()
        if not b & ~goal:
            continue
        rows = []
        for r in readings:
            br = b & r
            if br:
                row = tuple(_post(prob, br, a) for a in acts)
                rows.append(row)
                for nb in row:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        succ[b] = rows
    win = {b for b in seen if not b & ~goal}
    changed = True
    while changed and start not in win:
        changed = False
        for b, rows in succ.items():
            if b not in win and all(any(nb in win for nb in row) for row in rows):
                win.add(b)
                changed = True
    return start in win


def policy_wins(prob: Problem, readings, action_of: dict[int, int]) -> bool:
    """Does the policy (post-sensing belief mask -> action index) win from the initial belief?

    Every adversarial branch must reach the goal: no reachable post-sensing
    belief may lack an action, and the reachable graph must be acyclic.
    """
    goal = prob.goal
    succ: dict[int, list[int]] = {}
    seen = {prob.initial}
    stack = [prob.initial]
    while stack:
        b = stack.pop()
        if not b & ~goal:
            continue
        out = []
        for r in readings:
            br = b & r
            if not br:
                continue
            a = action_of.get(br)
            if a is None:
                return False
            nb = _post(prob, br, a)
            out.append(nb)
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
        succ[b] = out
    good = {b for b in seen if not b & ~goal}
    changed = True
    while changed:
        changed = False
        for b, out in succ.items():
            if b not in good and all(nb in good for nb in out):
                good.add(b)
                changed = True
    return prob.initial in good


@lru_cache(maxsize=None)
def covering_antichains(n: int) -> tuple[frozenset[int], ...]:
    """Covers whose pre-images are pairwise incomparable: one per star class."""
    full = (1 << n) - 1
    masks = range(1, full + 1)
    out = []

    def rec(start: int, chosen: list[int]) -> None:
        if chosen and is_cover(chosen, full):
            out.append(frozenset(chosen))
        for m in masks[start:]:
            if all(m & c != m and m & c != c for c in chosen):
                chosen.append(m)
                rec(m, chosen)
                chosen.pop()

    rec(0, [])
    return tuple(out)


def maximal_solvable(prob: Problem) -> set[frozenset[int]]:
    """The maximal solvable covers of ``prob``, found without the program.

    Up to three features every cover is tried.  With four, only the star
    closures of the 114 covering antichains are: adding a subset of a
    pre-image only offers the adversary a smaller belief, so a cover and its
    closure are equally solvable, and every maximal solvable cover is a closure.
    """
    if prob.n <= 3:
        candidates = all_covers(prob.n)
    else:
        candidates = [closure(a) for a in covering_antichains(prob.n)]
    wins = [f for f in candidates if solvable(prob, f)]
    return {f for f in wins if not any(f < g for g in wins)}


def maximal_ok(prob: Problem, found, expected: set[frozenset[int]]) -> str | None:
    """Check a claimed set of maximal solvable covers; return a reason on failure.

    Each returned cover is judged on its own (solvable, no solvable
    one-pre-image extension); the whole answer must equal ``expected``
    from ``maximal_solvable``, so a dropped or extra cover fails too.
    """
    found = list(found)
    for fam in found:
        if not is_cover(fam, prob.full):
            return "returned family is not a cover"
        if not solvable(prob, fam):
            return "returned cover is not solvable"
        for m in range(1, prob.full + 1):
            if m not in fam and solvable(prob, fam | {m}):
                return "a one-pre-image extension is solvable"
    got = set(found)
    if len(got) != len(found) or got != expected:
        return (f"{len(found)} covers returned, {len(expected)} expected; "
                f"{len(expected - got)} missing, {len(got - expected)} unexpected")
    return None


# ---------------------------------------------------------------------------
# text formats


def parse_cover_text(labels, text: str) -> frozenset[int]:
    """``{1,2}|{2,3}`` -> family of masks (the CLI's canonical cover string)."""
    out = set()
    for part in text.strip().split("|"):
        inner = part.strip()
        if not (inner.startswith("{") and inner.endswith("}")):
            raise ValueError(f"bad cover text: {text!r}")
        out.add(mask_of(labels, [x for x in inner[1:-1].split(",") if x]))
    return frozenset(out)


def is_canonical_text(labels, text: str) -> bool:
    masks = []
    for part in text.strip().split("|"):
        masks.append(mask_of(labels, [x for x in part.strip()[1:-1].split(",") if x]))
    return masks == canonical(masks)


def json_round_trip(text: str):
    """Parse JSON output and require the two-space canonical rendering to reproduce it."""
    doc = json.loads(text)
    if json.dumps(doc, indent=2) + "\n" != text:
        raise ValueError("JSON output is not in canonical two-space layout")
    return doc
