"""The belief-ranking kernel: the worst-case fixpoint behind every plan.

``rank_table`` is the one computation that gives a cover its operational
meaning; ``solvable``, ``winning_beliefs``, ``extract_policy`` and the sensor
search all read its table.  It is plain Python.  ``BACKEND`` names the
implementation and is re-exported as ``cover_lattice.KERNEL_BACKEND``.

A problem is prepared once: ``post_table`` folds its transitions into the
belief reached from every post-sensing belief under every action, and
``predecessor_index`` inverts that table.  Each cover is then ranked by a
layered worklist attractor, the AND-OR game construction (Zielonka, TCS
1998).  Beliefs leave a FIFO queue in non-decreasing rank order.  When a
ranked belief ``x`` is dequeued, every post-sensing belief ``y`` with an
action into ``x`` that was not yet safe becomes safe at value ``rank[x]``,
its cheapest action.  That resolves the reading ``r`` for every belief
``b = y | z`` with ``z`` outside ``r``, since sensing ``r`` at ``b`` leaves
``y``.  A belief whose intersecting readings are all resolved takes rank
``rank[x] + 1``: the last of its readings to resolve is its worst one.  The
ranks are the fixpoint levels of the textbook sweep (rank ``k`` iff every
intersecting reading has an action into rank below ``k``), but each belief
is ranked once instead of being re-tested on every sweep: a call costs
O(2^n * (A + m)) for ``A`` actions and ``m`` readings, against
O(depth * 2^n * m * A) for the sweeps.

Because ranks are assigned in non-decreasing order, a belief's entry is
final the moment it is set.  ``until`` uses this: the call returns as soon
as that belief is ranked, and every entry set by then is exact.  ``solvable``
and ``extract_policy`` stop at the initial belief; ``winning_beliefs`` ranks
every belief.
"""

from __future__ import annotations

from array import array

__all__ = ["BACKEND", "post_table", "predecessor_index", "rank_table"]

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
    is ranked; entries not yet reached then read -1.  The default, 0, is
    never ranked, so every belief is.
    """
    start, preds = index
    size = 1 << n
    full = size - 1
    m = len(preimage_masks)
    rank = [-1] * size
    # Readings of each belief not yet resolved; a count that reaches 0 ranks it.
    count = [m] * size
    # The post-sensing beliefs some reading can leave, until each turns safe.
    live = bytearray(size)
    for r in preimage_masks:
        comp = full & ~r
        z = comp
        while z:
            count[z] -= 1
            z = (z - 1) & comp
        y = r
        while y:
            live[y] = 1
            y = (y - 1) & r
    queue = array("l", [0]) * size
    tail = 0
    g = goal_mask
    while g:
        rank[g] = 0
        count[g] = m + 1  # one more than it can lose: never reaches 0
        queue[tail] = g
        tail += 1
        g = (g - 1) & goal_mask
    if rank[until] >= 0:
        return rank
    head = 0
    while head < tail:
        x = queue[head]
        head += 1
        k = rank[x] + 1
        for y in preds[start[x] : start[x + 1]]:
            if not live[y]:
                continue
            live[y] = 0
            for r in preimage_masks:
                if y & r != y:
                    continue
                comp = full & ~r
                z = comp
                while True:
                    b = y | z
                    c = count[b] - 1
                    count[b] = c
                    if not c:
                        rank[b] = k
                        queue[tail] = b
                        tail += 1
                        if b == until:
                            return rank
                    if not z:
                        break
                    z = (z - 1) & comp
    return rank
