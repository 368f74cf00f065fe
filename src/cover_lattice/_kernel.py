"""The belief-ranking kernel: the worst-case fixpoint behind every plan.

``rank_table`` is the one computation that gives a cover its operational
meaning; ``solvable``, ``winning_beliefs``, ``extract_policy`` and the sensor
search all read its table.  It is plain Python.  ``BACKEND`` names the
implementation and is re-exported as ``cover_lattice.KERNEL_BACKEND``.
"""

from __future__ import annotations

__all__ = ["BACKEND", "rank_table"]

BACKEND: str = "pure"


def rank_table(n, goal_mask, preimage_masks, n_actions, post):
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
