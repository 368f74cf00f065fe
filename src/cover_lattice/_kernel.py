"""The belief-ranking kernel: the worst-case fixpoint behind every plan.

The worst-case fixpoint gives a cover its operational meaning.
``rank_levels`` ranks every belief, for ``winning_beliefs`` and the sensor
search; ``reach_ranks`` ranks only the beliefs the initial belief reaches,
for ``solvable`` and ``extract_policy``.  Both are plain Python.  ``BACKEND``
names the implementation and is re-exported as
``cover_lattice.KERNEL_BACKEND``.

A problem is prepared once: ``byte_tables`` tabulates, per byte of a belief
``x`` and per action, the successors of ``x``'s states in that byte, ORed
over the bytes by ``post_of`` for ``reach_ranks`` and the policy code, and
the states whose successors lie inside ``x`` on that byte, ANDed by
``rank_levels``: 2^8 entries per byte and action, however many states.
Each cover is then ranked by a level-synchronous attractor, the AND-OR game
construction (Zielonka, TCS 1998) computed a set at a time, as in symbolic
model checking (Burch, Clarke, McMillan, Dill & Hwang, LICS 1990).  A set
of beliefs is one Python int, bit ``b`` for belief ``b``, and the result is
one such int per rank.  Rank 0 is the beliefs inside the goal, and level
``k`` turns the beliefs of rank ``k`` into those of rank ``k + 1``:

1. A sub-belief is never harder to win from, so the beliefs ranked so far
   form a down-set (Bertoli, Cimatti, Roveri & Traverso, AIJ 2006).  Its
   new maximal beliefs are those of rank ``k`` with no ranked one-larger
   superset, found with one shift-and per feature.
2. ``post`` is a union over states, so a post-sensing belief ``y`` has an
   action ``a`` into the down-set iff ``y`` lies inside the strong preimage
   ``pre_a(m) = {s : T_a[s] ⊆ m}`` of one of its maximal beliefs ``m``
   (Cimatti, Pistore, Roveri & Traverso, AIJ 2003).  Each new maximal
   belief's ``pre_a`` is the AND of one table entry per byte, and is marked
   in a flag per belief.  Down-closing the marks, one shift-or per feature,
   gives every safe post-sensing belief; those not safe before become safe
   at value ``k``, their cheapest action's.
3. For each reading ``r``, the newly safe beliefs inside ``r`` are spread
   over the features outside ``r``, one ``d |= d << (1 << i)`` per such
   feature ``i``.  That adds every belief ``b`` with ``b & r`` newly safe:
   sensing ``r`` at ``b`` leaves ``b & r``, so ``r`` is resolved at ``b``.
   Each reading's set starts as the beliefs it misses.
4. The AND of those sets over all readings, less the beliefs already
   ranked, is rank ``k + 1``: the last reading of each to resolve is its
   worst one.

The ranks are the fixpoint levels of the textbook sweep (rank ``k`` iff
every intersecting reading has an action into rank below ``k``).  A call
costs levels * (2n + readings * features) shift-ors on 2^n-bit ints, each
one pass in C, plus maximal beliefs * A * ceil(n/8) interpreted table
lookups, for ``A`` actions.  Nothing runs once per belief in Python.  The
lookups are the most when nearly every new belief is maximal, as under blind
sensing with one action per state into the goal: about A * 2^(n-1) of them.

Levels come in increasing rank and each is computed whole, so a level is
final the moment it is returned.  ``until`` uses this: each level is tested
for that belief once, and the call returns with the first level that holds
it as its last.  Every belief of lower rank is then in a level, and a belief
in none ranks at least as high or not at all.  ``winning_beliefs`` ranks
every belief, and the sensor search stops at the initial belief.

``solvable`` and ``extract_policy`` need only the beliefs the initial belief
can reach, often a few dozen of the 2^n.  ``reach_ranks`` explores that part
forward, then runs the same level-synchronous attractor backward over it,
one belief at a time, and stops once the initial belief is ranked: a local
fixpoint (Liu & Smolka, ICALP 1998), as in AND-OR heuristic search (Hansen
& Zilberstein, AIJ 2001).  A belief's rank depends only on the beliefs it
reaches, so every belief it ranks gets its ``rank_levels`` rank.  Exploring
costs one unit per reading intersected and ``A`` per post-sensing belief
looked up.  Past the caller's budget it returns ``None``, and the caller
ranks the full levels.  ``solvable`` and ``extract_policy`` pass
``A * 2^(n-1)`` exploring steps: on covers of hundreds of readings over a
wide reachable part, exploring alone measured up to 28 times slower than
the full table, and the hand-over keeps such calls near the table's time.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, or_

__all__ = [
    "BACKEND",
    "Ranks",
    "byte_tables",
    "post_of",
    "rank_levels",
    "reach_ranks",
    "subset_bits",
]

BACKEND: str = "pure"


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


def byte_tables(n, transitions):
    """Byte tables of every action's images and strong preimages: ``(images, strong)``.

    ``transitions[a][s]`` is the successor-set bitmask of state ``s`` under
    action ``a``.  Table ``j`` of each maps byte ``j`` of a belief ``x`` to
    one entry per action: in ``images`` the union of ``T_a[s]`` over ``x``'s
    states in that byte, in ``strong`` the states whose successors lie inside
    ``x`` on that byte, which ANDed over the bytes give the strong preimage
    ``pre_a(x) = {s : T_a[s] ⊆ x}`` (the idiom of ``FeatureUniverse.belief_of``).
    """
    images, strong = [], []
    for lo in range(0, n, 8):
        width = min(8, n - lo)
        size = 1 << width
        per_action = []
        for row in transitions:
            # Mark the byte's states at their bits and every state at its
            # successors' byte, then close upwards: v ORs its subsets' entries.
            image, pre = [0] * size, [0] * size
            for i in range(width):
                image[1 << i] = row[lo + i]
            for s, succ in enumerate(row):
                pre[succ >> lo & size - 1] |= 1 << s
            for i in range(width):
                bit = 1 << i
                for v in range(bit, size):
                    if v & bit:
                        image[v] |= image[v ^ bit]
                        pre[v] |= pre[v ^ bit]
            per_action.append((image, pre))
        images.append(tuple(tuple(t[v] for t, _ in per_action) for v in range(size)))
        strong.append(tuple(tuple(t[v] for _, t in per_action) for v in range(size)))
    return tuple(images), tuple(strong)


def post_of(images, y):
    """The beliefs reached from post-sensing belief ``y``, one per action.

    ``images`` is the first table of ``byte_tables``, ORed over the bytes of
    ``y`` up to its highest non-zero one: nondeterminism folds into the union.
    """
    posts = images[0][y & 255]
    y >>= 8
    j = 1
    while y:
        posts = tuple(map(or_, posts, images[j][y & 255]))
        y >>= 8
        j += 1
    return posts


@lru_cache(maxsize=64)
def _feature_sets(n):
    """Per feature ``i``: its shift amount ``1 << i`` and the beliefs that hold it."""
    full = (1 << n) - 1
    every = subset_bits(full)
    return tuple((1 << i, every ^ subset_bits(full ^ 1 << i)) for i in range(n))


def rank_levels(n, goal_mask, preimage_masks, strong, until=0):
    """The beliefs of each rank, rank 0 first, one bitset int per rank.

    Bit ``b`` of ``levels[k]`` is set iff belief ``b`` has rank ``k``: the
    readings' pre-images ``preimage_masks`` cover the ``n`` states, ``strong``
    is the second table of ``byte_tables(n, transitions)``, and rank 0 holds
    the non-empty beliefs inside the goal.  A belief of rank ``k > 0`` has,
    for every intersecting reading, an action into a belief ranked strictly
    below ``k``, so ranks strictly decrease along every adversarial execution
    branch.  A belief in no level cannot guarantee the goal.

    When ``until`` names a belief, the call returns with the first level that
    holds it, whole, as its last level; every belief of higher rank is then
    in no level.  The default, 0, is never ranked, so every level is
    returned.
    """
    size = 1 << n
    full = size - 1
    inside = []  # per reading: the beliefs it contains
    outside = []  # per reading: the features it misses, as shift amounts
    resolved = []  # per reading: the beliefs it misses or leaves safe
    for r in preimage_masks:
        sub, missing, lows = _mask_sets(r, full)
        inside.append(sub)
        resolved.append(missing)
        outside.append(lows)
    readings = range(len(inside))
    features = _feature_sets(n)
    low_table = strong[0]
    high = tuple(zip(range(8, n, 8), strong[1:]))  # (shift, table) of every other byte
    # ASCII "1" at index ``full - y`` once post-sensing belief ``y`` is the
    # strong preimage of a ranked belief under some action.
    flags = bytearray(b"0") * size
    safe = 1  # the post-sensing beliefs with an action into a ranked belief, and bit 0
    ranked = _mask_sets(goal_mask, full)[0]  # bit 0 stays set: the empty belief is never ranked
    new = ranked ^ 1
    levels = []
    while new:
        levels.append(new)
        if new >> until & 1:
            break
        # The ranked beliefs are a down-set, so the post-sensing beliefs with
        # an action into them are the subsets of the strong preimages of its
        # maximal beliefs.  Those already maximal before this level were
        # marked then; the new ones are those with no one-larger superset.
        tops = new
        for low, holds in features:
            tops &= ~((ranked & holds) >> low)
        # "0b" and the bits of ``tops``, most significant first: belief ``top - i`` at index ``i``.
        bits = bin(tops)
        top = len(bits) - 1
        i = bits.find("1")
        while i >= 0:
            m = top - i
            pres = low_table[m & 255]
            for shift, table in high:
                pres = map(and_, pres, table[m >> shift & 255])
            for pre in pres:
                flags[full - pre] = 49
            i = bits.find("1", i + 1)
        closure = int(flags, 2)
        for low, holds in features:
            closure |= (closure & holds) >> low
        fresh = closure & ~safe
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
    return levels


class Ranks(dict):
    """Ranks keyed by belief bitmask; a belief that is not a key reads -1."""

    __slots__ = ()

    def __missing__(self, belief):
        return -1


def reach_ranks(goal_mask, preimage_masks, images, initial, budget):
    """``rank_levels``' ranks on the beliefs ``initial`` reaches, up to its own.

    ``goal_mask`` and ``preimage_masks`` mean what they mean for
    ``rank_levels``, and ``images`` is the first table of ``byte_tables``.
    Each pre-sensing belief ``b`` outside the goal leads to its post-sensing
    beliefs ``b & r``, and each of those to its ``post_of(images, y)``, the
    belief reached under each action.  The result maps each belief ranked
    below ``initial``, and ``initial`` if it is winning, to its
    ``rank_levels`` rank; every other belief reads -1, and ranks at least as
    high as ``initial`` or not at all.

    Exploring costs one unit per reading intersected and ``A`` per
    post-sensing belief looked up.  Past ``budget`` units it returns ``None``.
    """
    not_goal = ~goal_mask
    readings = len(preimage_masks)
    n_actions = len(images[0][0])
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
            # Two actions into one x list y twice under it; the backward pass skips the second.
            for x in post_of(images, y):
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
