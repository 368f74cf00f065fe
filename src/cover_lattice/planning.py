"""Worst-case nondeterministic planning in belief space.

The execution loop is: test the goal, sense, act, repeat.  The adversary
picks any reading whose pre-image meets the current belief and resolves
every transition, so sensing intersects the belief with the reading's
pre-image and acting unions the successor sets.  A cover's operational
value is exactly the set of beliefs from which this game is winnable.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping

from ._kernel import post_table, predecessor_index, rank_table
from .core import Cover, FeatureUniverse, bits
from .errors import (
    SizeGuardError,
    UniverseMismatchError,
    UnsolvableError,
    ValidationError,
    guard_features,
)

__all__ = [
    "Belief",
    "PlanningProblem",
    "Policy",
    "PolicyFailure",
    "TraceStep",
    "extract_policy",
    "find_policy_counterexample",
    "make_problem",
    "maximal_solvable_covers",
    "solvable",
    "verify_policy",
    "winning_beliefs",
]

MAX_STATES = 16
SEARCH_LIMIT = 5

Belief = frozenset


@dataclass(frozen=True)
class PlanningProblem:
    """States (= world features), nondeterministic actions, initial belief, goal region.

    ``transitions[a][s]`` is the successor-set bitmask of state ``s`` under
    action ``actions[a]`` and must be non-empty for every pair; model an
    unavailable action as a self-loop or a sink.  At least one action is
    required.
    """

    universe: FeatureUniverse
    actions: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    goal: int

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "transitions", tuple(tuple(row) for row in self.transitions))
        full = self.universe.full_mask
        n = self.universe.n
        if not self.actions:
            raise ValidationError("at least one action required")
        if len(set(self.actions)) != len(self.actions):
            raise ValidationError("duplicate action label")
        for a in self.actions:
            if not isinstance(a, str) or not a:
                raise ValidationError(f"action labels must be non-empty strings, got {a!r}")
        if len(self.transitions) != len(self.actions):
            raise ValidationError("one transition row per action required")
        for label, row in zip(self.actions, self.transitions):
            if len(row) != n:
                raise ValidationError(
                    f"action {label!r} must define successors for all {n} states"
                )
            for s, succ in enumerate(row):
                if succ == 0:
                    raise ValidationError(
                        f"empty successor set for state {self.universe.labels[s]!r} "
                        f"under action {label!r}"
                    )
                if succ & ~full:
                    raise ValidationError("successor set not within universe")
        for name, mask in (("initial", self.initial), ("goal", self.goal)):
            if mask == 0:
                raise ValidationError(f"{name} belief must be non-empty")
            if mask & ~full:
                raise ValidationError(f"{name} belief not within universe")

    @cached_property
    def _tables(self):
        """The kernel's per-problem tables: ``post`` and its predecessor index."""
        post = post_table(self.universe.n, self.transitions)
        return post, predecessor_index(self.universe.n, len(self.actions), post)

    @property
    def initial_states(self) -> Belief:
        return self.universe.belief_of(self.initial)

    @property
    def goal_states(self) -> Belief:
        return self.universe.belief_of(self.goal)


def make_problem(
    universe: FeatureUniverse | Iterable[str],
    actions: Iterable[str],
    transition: Mapping[str, Mapping[str, Iterable[str]]],
    initial: Iterable[str],
    goal: Iterable[str],
) -> PlanningProblem:
    """Build a problem from label-keyed data.

    ``transition[state][action]`` lists the possible successor states and
    must be defined for every state/action pair.
    """
    if not isinstance(universe, FeatureUniverse):
        universe = FeatureUniverse(universe)
    actions = tuple(actions)
    rows = []
    for a in actions:
        row = []
        for state in universe.labels:
            try:
                successors = transition[state][a]
            except (KeyError, TypeError):
                raise ValidationError(
                    f"transition undefined for state {state!r} and action {a!r}"
                ) from None
            row.append(universe.mask_of(successors))
        rows.append(tuple(row))
    return PlanningProblem(
        universe, actions, tuple(rows), universe.mask_of(initial), universe.mask_of(goal)
    )


@dataclass(frozen=True)
class Policy:
    """Belief-indexed plan with a steps-to-goal certificate.

    ``action_of`` is keyed by post-sensing beliefs.  ``rank_of`` ranks
    every belief reachable at the top of the execution loop; ranks
    strictly decrease along adversarial branches until the belief enters
    the goal.
    """

    action_of: Mapping[Belief, str]
    rank_of: Mapping[Belief, int]


@dataclass(frozen=True)
class TraceStep:
    """One adversarial round: pre-sensing belief, reading received, action taken."""

    belief: Belief
    reading: Belief
    action: str | None


@dataclass(frozen=True)
class PolicyFailure:
    """Counterexample branch: the rounds taken and the belief where execution breaks."""

    reason: str  # "missing-action" or "cycle"
    steps: tuple[TraceStep, ...]
    belief: Belief


def _check_pair(p: PlanningProblem, c: Cover) -> None:
    if p.universe != c.universe:
        raise UniverseMismatchError("cover and problem are over different universes")
    _check_states(p)


def _check_states(p: PlanningProblem) -> None:
    if p.universe.n > MAX_STATES:
        raise SizeGuardError(
            f"belief fixpoint limited to {MAX_STATES} states (got {p.universe.n})"
        )


def _ranks(p: PlanningProblem, masks: tuple[int, ...], until: int = 0) -> list[int]:
    post, index = p._tables
    return rank_table(p.universe.n, p.goal, masks, len(p.actions), post, index, until)


class _WinningBeliefs(Set):
    """Read-only set of the winning beliefs, read from a full rank table.

    Nothing is decoded up front: ``len`` counts ranked entries, ``in`` looks
    up one mask, and iteration decodes each ranked belief with ``belief_of``,
    in ascending mask order, every time it runs.  The comparisons and set
    operators are the ``Set`` mixins, and the operators return plain sets.
    """

    __slots__ = ("_universe", "_ranks")

    def __init__(self, universe: FeatureUniverse, ranks: list[int]):
        self._universe = universe
        self._ranks = ranks

    @classmethod
    def _from_iterable(cls, it):
        return set(it)

    def __len__(self):
        return len(self._ranks) - self._ranks.count(-1)

    def __contains__(self, belief):
        # Only a non-empty set of known labels is a belief.  Without the type
        # check, mask_of would read a str such as "12" label by label.
        if not isinstance(belief, (set, frozenset)) or not belief:
            return False
        try:
            mask = self._universe.mask_of(belief)
        except ValidationError:
            return False
        return self._ranks[mask] >= 0

    def __iter__(self):
        belief_of = self._universe.belief_of
        for b, r in enumerate(self._ranks):
            if r >= 0:
                yield belief_of(b)

    def __repr__(self):
        n = self._universe.n
        return f"<winning beliefs: {len(self)} of the {(1 << n) - 1} beliefs over {n} states>"


def winning_beliefs(p: PlanningProblem, c: Cover) -> AbstractSet[Belief]:
    """Beliefs from which some policy guarantees reaching the goal under ``c``.

    The result is a read-only set view over the rank table.  ``len`` and
    ``in`` decode nothing, but each iteration decodes every winning belief
    again, and so does comparing the view with a set of the same size.
    ``set(winning_beliefs(p, c))`` gives a mutable copy; take it once if the
    beliefs are to be read more than once.
    """
    _check_pair(p, c)
    return _WinningBeliefs(p.universe, _ranks(p, c.masks))


def solvable(p: PlanningProblem, c: Cover) -> bool:
    """True iff the initial belief is winning under ``c``."""
    _check_pair(p, c)
    return _ranks(p, c.masks, until=p.initial)[p.initial] >= 0


def extract_policy(p: PlanningProblem, c: Cover) -> Policy:
    """Rank-greedy policy for a solvable problem/cover pair.

    At each post-sensing belief the action minimizing the successor rank
    is chosen, ties broken by action order, so ranks strictly decrease
    along every adversarial branch.  Raises ``UnsolvableError`` when the
    initial belief is not winning.

    Ranking stops once the initial belief is ranked, at some ``k``.  That
    is exact: every entry below ``k`` is final by then, an entry not yet set
    ranks at least ``k``, and every belief the policy reaches after the
    initial one, like the best successor at each choice, ranks below ``k``.
    """
    _check_pair(p, c)
    ranks = _ranks(p, c.masks, until=p.initial)
    if ranks[p.initial] < 0:
        raise UnsolvableError("no guaranteed plan under this cover")
    acount = len(p.actions)
    post = p._tables[0]
    goal = p.goal
    belief = p.universe.belief_of
    chosen: dict[int, int] = {}
    action_of: dict[Belief, str] = {}
    rank_of: dict[Belief, int] = {belief(p.initial): ranks[p.initial]}
    seen = {p.initial}
    stack = [p.initial]
    while stack:
        b = stack.pop()
        if not b & ~goal:
            continue
        for r in c.masks:
            br = b & r
            if not br:
                continue
            a_idx = chosen.get(br)
            if a_idx is None:
                base = br * acount
                best_rank = None
                for a in range(acount):
                    ra = ranks[post[base + a]]
                    if ra >= 0 and (best_rank is None or ra < best_rank):
                        best_rank = ra
                        a_idx = a
                assert a_idx is not None, "reachable post-sensing belief has no safe action"
                chosen[br] = a_idx
                action_of[belief(br)] = p.actions[a_idx]
            nb = post[br * acount + a_idx]
            if nb not in seen:
                seen.add(nb)
                rank_of[belief(nb)] = ranks[nb]
                stack.append(nb)
    return Policy(action_of, rank_of)


def find_policy_counterexample(
    p: PlanningProblem, c: Cover, pol: Policy
) -> PolicyFailure | None:
    """Adversarial branch on which ``pol`` fails, or ``None`` if it always wins.

    Exhaustive traversal over readings with on-path cycle detection; a
    repeated belief means that branch never reaches the goal.  Independent
    of the ranking kernel, so it doubles as that kernel's oracle.
    """
    _check_pair(p, c)
    mask_of = p.universe.mask_of
    belief = p.universe.belief_of
    amap: dict[int, int] = {}
    for b, a in pol.action_of.items():
        try:
            a_idx = p.actions.index(a)
        except ValueError:
            raise ValidationError(f"policy uses unknown action {a!r}") from None
        amap[mask_of(b)] = a_idx
    acount = len(p.actions)
    post = p._tables[0]
    goal = p.goal

    def make_frame(b: int) -> list:
        return [b, [(r, b & r) for r in c.masks if b & r], 0]

    def trace(frames) -> tuple[TraceStep, ...]:
        steps = []
        for fb, branches, idx in frames:
            r, br = branches[idx]
            a_idx = amap.get(br)
            steps.append(
                TraceStep(belief(fb), belief(r), None if a_idx is None else p.actions[a_idx])
            )
        return tuple(steps)

    if not p.initial & ~goal:
        return None
    good: set[int] = set()
    frames = [make_frame(p.initial)]
    onpath = {p.initial}
    while frames:
        frame = frames[-1]
        b, branches, i = frame
        if i == len(branches):
            good.add(b)
            onpath.discard(b)
            frames.pop()
            if frames:
                frames[-1][2] += 1
            continue
        br = branches[i][1]
        a_idx = amap.get(br)
        if a_idx is None:
            return PolicyFailure("missing-action", trace(frames), belief(br))
        nb = post[br * acount + a_idx]
        if not nb & ~goal or nb in good:
            frame[2] += 1
            continue
        if nb in onpath:
            return PolicyFailure("cycle", trace(frames), belief(nb))
        frames.append(make_frame(nb))
        onpath.add(nb)
    return None


def verify_policy(p: PlanningProblem, c: Cover, pol: Policy) -> bool:
    """True iff every adversarial branch from the initial belief reaches the goal."""
    return find_policy_counterexample(p, c, pol) is None


def maximal_solvable_covers(p: PlanningProblem, *, limit: int | None = None) -> set[Cover]:
    """Sub-collection-maximal covers under which the problem stays solvable.

    Solvability is star-invariant, and worst-case sensing only loses plans
    when readings are added, so the solvable covers are closed under
    covering sub-collections.  A maximal one therefore equals its own
    star-closure: a complex, a down-closed set of pre-images that holds
    every singleton.  The solvable complexes form a down-set, and the
    answer is its maximal elements, each returned as a closure (its own
    ``star_closure``) without labels.  Applying u-inflation to the result
    regenerates the full solvable set.

    The search walks the border of that down-set by Dualize and Advance
    (Gunopulos, Khardon, Mannila & Toivonen, PODS 1997).  *Grow* turns a
    solvable complex into a maximal one in one pass over the faces in
    canonical order: a face whose one-smaller subfaces are all present is
    kept if the complex stays solvable.  A rejected face stays rejected,
    since unsolvability is closed upwards.  *Dualize*: a solvable complex
    under none of the maximal complexes M_1 ... M_k found so far holds, for
    each i, a minimal face outside M_i.  So the candidates are the
    singletons plus the down-closure of one such face per M_i, kept
    inclusion-minimal as each M_i arrives (Berge's transversal product).  A
    solvable candidate grows into M_{k+1}; when none is solvable, the border
    is complete.  A complex is ranked on its facets, once at most, and
    never when it contains a complex already found unsolvable.
    """
    guard_features("cover search", p.universe.n, limit, SEARCH_LIMIT)
    _check_states(p)
    u = p.universe
    n = u.n
    # A complex is one int: bit i is set iff it holds face table[i].
    table = u.canonical_masks
    faces = range(n, len(table))  # the faces that are not singletons
    position = dict(zip(table, range(len(table))))
    below = [0] * len(table)  # below[i]: the one-smaller subfaces of face i
    for i in faces:
        f = table[i]
        for j in bits(f):
            below[i] |= 1 << position[f ^ 1 << j]
    unsolvable: list[int] = []

    def solvable_complex(cx: int, facets: int) -> bool:
        if any(bad & ~cx == 0 for bad in unsolvable):
            return False
        masks = tuple(table[i] for i in bits(facets))
        if _ranks(p, masks, until=p.initial)[p.initial] < 0:
            unsolvable.append(cx)
            return False
        return True

    def facets_of(cx: int) -> int:
        facets = cx
        for i in bits(cx):
            facets &= ~below[i]
        return facets

    def grow(cx: int) -> int:
        facets = facets_of(cx)
        for i in faces:
            sub = below[i]
            if cx >> i & 1 or sub & ~cx:
                continue
            bigger, wider = cx | 1 << i, facets & ~sub | 1 << i
            if solvable_complex(bigger, wider):
                cx, facets = bigger, wider
        return cx

    def down(i: int) -> int:
        f = s = table[i]
        cx = 0
        while s:
            cx |= 1 << position[s]
            s = (s - 1) & f
        return cx

    def minimal(cxs) -> list[int]:
        # Smallest first, so that whatever holds a kept complex comes after it.
        kept: list[int] = []
        for cx in sorted(set(cxs), key=int.bit_count):
            if not any(k & ~cx == 0 for k in kept) and not any(b & ~cx == 0 for b in unsolvable):
                kept.append(cx)
        return kept

    found: list[int] = []
    candidates = [(1 << n) - 1]  # the singletons
    while candidates:
        start = candidates.pop(0)
        if not solvable_complex(start, facets_of(start)):
            continue
        top = grow(start)
        found.append(top)
        # A candidate under top takes one minimal face outside it, with that
        # face's subfaces; the other candidates already hold such a face.
        outside = [down(i) for i in faces if not top >> i & 1 and not below[i] & ~top]
        under = [cx for cx in [start, *candidates] if not cx & ~top]
        candidates = minimal(
            [cx for cx in candidates if cx & ~top] + [cx | d for cx in under for d in outside]
        )
    answers = set()
    for top in found:
        c = Cover._from_canonical(u, tuple(table[i] for i in bits(top)))
        c._closure = c
        answers.add(c)
    return answers
