"""The belief-ranking kernel: the worst-case fixpoint behind every plan.

The worst-case fixpoint gives a cover its operational meaning.
``rank_table`` ranks every belief, for ``winning_beliefs`` and the sensor
search; ``reach_ranks`` ranks only the beliefs the initial belief reaches,
for ``solvable`` and ``extract_policy``.  Both are plain Python.  ``BACKEND``
names the implementation and is re-exported as
``cover_lattice.KERNEL_BACKEND``.

A problem is prepared once: ``post_table`` folds its transitions into the
belief reached from every post-sensing belief under every action, and
``predecessor_index`` inverts that table.  Each cover is then ranked by a
level-synchronous attractor, the AND-OR game construction (Zielonka, TCS
1998) computed a set at a time, as in symbolic model checking (Burch,
Clarke, McMillan, Dill & Hwang, LICS 1990).  A set of beliefs is one Python
int, bit ``b`` for belief ``b``.  Rank 0 is the beliefs inside the goal, and
level ``k`` turns the beliefs of rank ``k`` into those of rank ``k + 1``:

1. Every post-sensing belief ``y`` with an action into a belief of rank
   ``k`` that was not yet safe becomes safe, at value ``k``, its cheapest
   action.  This push walks the predecessor index belief by belief.
2. For each reading ``r``, the newly safe beliefs inside ``r`` are spread
   over the features outside ``r``, one ``d |= d << (1 << i)`` per such
   feature ``i``.  That adds every belief ``b`` with ``b & r`` newly safe:
   sensing ``r`` at ``b`` leaves ``b & r``, so ``r`` is resolved at ``b``.
   Each reading's set starts as the beliefs it misses.
3. The AND of those sets over all readings holds the beliefs whose every
   intersecting reading is resolved.
4. Each of them not yet ranked takes rank ``k + 1``: the last of its
   readings to resolve is its worst one.

The ranks are the fixpoint levels of the textbook sweep (rank ``k`` iff
every intersecting reading has an action into rank below ``k``).  A call
costs levels * readings * features shift-ors on 2^n-bit ints, each one
pass in C, plus O(2^n * A) interpreted predecessor pushes and one rank
store per belief, for ``A`` actions.  No step of the fan-out over the
readings runs once per belief in Python.

Levels come in increasing rank, and a level is computed whole before any
of its beliefs is ranked, so an entry is final the moment it is set.
``until`` uses this: each level is tested for that belief once, before it
is ranked, and the call returns at the first level that holds it, with
only that belief's entry set from the level.  Every entry of lower rank is
then set and exact, and every entry still -1 ranks at least as high or not
at all.  ``winning_beliefs`` ranks every belief, and the sensor search
stops at the initial belief.

``solvable`` and ``extract_policy`` need only the beliefs the initial belief
can reach, often a few dozen of the 2^n.  ``reach_ranks`` explores that part
forward, then runs the same level-synchronous attractor backward over it,
one belief at a time, and stops once the initial belief is ranked: a local
fixpoint (Liu & Smolka, ICALP 1998), as in AND-OR heuristic search (Hansen
& Zilberstein, AIJ 2001).  A belief's rank depends only on the beliefs it
reaches, so every belief it ranks gets its ``rank_table`` rank.  Exploring
costs one unit per reading intersected and one per post lookup.  Past the
caller's budget it returns ``None``, and the caller ranks the full table.
``solvable`` and ``extract_policy`` pass ``A * 2^(n-1)``, half a full
table's predecessor pushes: on covers of hundreds of readings over a wide
reachable part, exploring alone measured up to 28 times slower than the
table, and the hand-over keeps such calls near the table's time.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

__all__ = [
    "BACKEND",
    "Ranks",
    "post_table",
    "predecessor_index",
    "rank_table",
    "reach_ranks",
    "subset_bits",
]

BACKEND: str = "pure"


def post_table(n, transitions):
    """``post[b * A + a]``: the belief reached from belief ``b`` under action ``a``.

    ``transitions[a][s]`` is the successor-set bitmask of state ``s`` under
    action ``a``; nondeterminism folds into the union over the belief.
    """
    acount = len(transitions)
    post = [0] * ((1 << n) * acount)
    for b in range(1, 1 << n):
        low = b & -b
        s = low.bit_length() - 1
        rest_base = (b ^ low) * acount
        base = b * acount
        for a in range(acount):
            post[base + a] = post[rest_base + a] | transitions[a][s]
    return array("l", post)


def predecessor_index(n, n_actions, post):
    """Compressed rows of ``post`` inverted: who reaches each belief in one action.

    Returns ``(start, preds)``: the post-sensing beliefs ``y`` with
    ``post[y * n_actions + a] == x`` for some action ``a`` are
    ``preds[start[x]:start[x + 1]]``, in increasing order.  A ``y`` that
    reaches ``x`` under several actions is listed once per action.
    """
    size = 1 << n
    counts = [0] * (size + 1)
    for x in post[n_actions:]:
        counts[x + 1] += 1
    total = 0
    for x in range(size + 1):
        total += counts[x]
        counts[x] = total
    start = array("l", counts)
    preds = array("l", [0]) * total
    fill = counts  # the next free slot of each row, starting at the row's start
    for i, x in enumerate(post[n_actions:], n_actions):
        preds[fill[x]] = i // n_actions
        fill[x] += 1
    return start, preds


def subset_bits(mask):
    """The set of every subset of ``mask``: bit ``b`` is set iff ``b & ~mask == 0``.

    The empty belief, bit 0, is included.  Each feature of ``mask`` doubles
    the set with one shift-or.
    """
    bits = 1
    while mask:
        low = mask & -mask
        bits |= bits << low
        mask ^= low
    return bits


@lru_cache(maxsize=256)
def _mask_sets(mask, full):
    """The beliefs inside ``mask``, the beliefs missing it, and the features
    outside it, as shift amounts ``1 << i``.

    Every ranking reads these for its goal and each of its readings, so they
    are cached: at most 256 masks, two 8 KB sets each at 16 states.
    """
    comp = full & ~mask
    lows = tuple(1 << i for i in range(full.bit_length()) if comp >> i & 1)
    return subset_bits(mask), subset_bits(comp), lows


def rank_table(n, goal_mask, preimage_masks, n_actions, post, index, until=0):
    """Steps-to-goal rank for every belief bitmask in ``range(1 << n)``.

    The readings' pre-images ``preimage_masks`` cover the ``n`` states.
    ``post[b * n_actions + a]`` is the belief reached from post-sensing
    belief ``b`` under action ``a``, with nondeterminism folded into the
    union; ``index`` is ``predecessor_index(n, n_actions, post)``.  Rank 0
    marks beliefs inside the goal and -1 marks beliefs from which the goal
    cannot be guaranteed.  A belief of rank ``k > 0`` has, for every
    intersecting reading, an action into a belief ranked strictly below
    ``k``, so ranks strictly decrease along every adversarial execution
    branch.

    When ``until`` names a belief, the call returns as soon as that belief
    is ranked; other entries of its rank or higher then read -1.  The
    default, 0, is never ranked, so every belief is.
    """
    start, preds = index
    size = 1 << n
    full = size - 1
    rank = [-1] * size
    inside = []  # per reading: the beliefs it contains
    outside = []  # per reading: the features it misses, as shift amounts
    resolved = []  # per reading: the beliefs it misses or leaves safe
    for r in preimage_masks:
        sub, missing, lows = _mask_sets(r, full)
        inside.append(sub)
        resolved.append(missing)
        outside.append(lows)
    readings = range(len(inside))
    # ASCII "1" at index ``full - y`` once post-sensing belief ``y`` is safe.
    flags = bytearray(b"0") * size
    safe = 0
    ranked = _mask_sets(goal_mask, full)[0]  # bit 0 stays set: the empty belief is never ranked
    new = ranked ^ 1
    k = 0
    while new:
        if new >> until & 1:
            rank[until] = k
            return rank
        # "0b" and the bits of ``new``, most significant first: belief ``top - i`` at index ``i``.
        bits = bin(new)
        top = len(bits) - 1
        i = bits.find("1")
        while i >= 0:
            x = top - i
            rank[x] = k
            for y in preds[start[x] : start[x + 1]]:
                flags[full - y] = 49
            i = bits.find("1", i + 1)
        fresh = int(flags, 2) & ~safe
        if not fresh:
            break
        safe |= fresh
        new = ~ranked
        for j in readings:
            d = fresh & inside[j]
            if d:
                for low in outside[j]:
                    d |= d << low
                resolved[j] |= d
            new &= resolved[j]
        ranked |= new
        k += 1
    return rank


class Ranks(dict):
    """Ranks keyed by belief bitmask; a belief that is not a key reads -1."""

    __slots__ = ()

    def __missing__(self, belief):
        return -1


def reach_ranks(goal_mask, preimage_masks, n_actions, post, initial, budget):
    """``rank_table``'s ranks on the beliefs ``initial`` reaches, up to its own.

    The arguments mean what they mean for ``rank_table``.  Each pre-sensing
    belief ``b`` outside the goal leads to its post-sensing beliefs
    ``b & r``, and each of those to ``post[y * n_actions + a]``.  The result
    maps each belief ranked below ``initial``, and ``initial`` if it is
    winning, to its ``rank_table`` rank; every other belief reads -1, and
    ranks at least as high as ``initial`` or not at all.

    Exploring costs one unit per reading intersected and one per post
    lookup.  Past ``budget`` units the call returns ``None`` at once.
    """
    not_goal = ~goal_mask
    readings = len(preimage_masks)
    parents = {}  # post-sensing y -> the pre-sensing beliefs that sense into it
    preds = {}  # pre-sensing x -> the post-sensing beliefs with an action into it
    need = {}  # pre-sensing b outside the goal -> its post-sensing beliefs not yet safe
    level = []  # the reached beliefs inside the goal: rank 0
    seen = {initial}
    stack = [initial]
    units = 0
    while stack:
        b = stack.pop()
        if not b & not_goal:
            level.append(b)
            continue
        units += readings
        ys = {b & r for r in preimage_masks}
        ys.discard(0)
        need[b] = len(ys)
        for y in ys:
            above = parents.get(y)
            if above is not None:
                above.append(b)
                continue
            parents[y] = [b]
            units += n_actions
            base = y * n_actions
            for x in set(post[base : base + n_actions]):
                below = preds.get(x)
                if below is None:
                    preds[x] = [y]
                else:
                    below.append(y)
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        if units > budget:
            return None
    ranks = Ranks()
    safe = set()
    k = 0
    while level:
        for b in level:
            ranks[b] = k
        if initial in ranks:
            break
        # A post-sensing belief turns safe at its cheapest action's rank, k;
        # a belief whose last one turns safe here ranks k + 1.
        up = []
        for x in level:
            for y in preds.get(x, ()):
                if y not in safe:
                    safe.add(y)
                    for b in parents[y]:
                        need[b] -= 1
                        if not need[b]:
                            up.append(b)
        level = up
        k += 1
    return ranks
