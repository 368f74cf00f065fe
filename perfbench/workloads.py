"""Seeded op lists for the ``search``, ``plan`` and ``cli`` workloads.

``search_inputs`` and ``plan_inputs`` draw a workload's inputs from a seeded
``random.Random`` and compute the oracle's expectations; ``search_ops`` and
``plan_ops`` then bind them to a freshly imported package.  ``build_cli``
writes the cli workload's documents and returns its ops.  Every op's ``run``
calls the program and its ``check`` judges the answer with ``oracles`` only.
The program sees nothing but the generated inputs.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracles as O

SIZES = {
    # search: 3-feature ops carry the median, 4-feature ops the tail (10 of 50).
    # Six of the ten 4-feature ops are the junction world under a seeded
    # relabelling, so p90 lands inside that cluster whatever the seed draws.
    # A run makes at least two passes, so every p90 has ten samples beyond it.
    "full": {
        "search": {"n3": 40, "junction": 6, "n4": 4},
        # 42 pairs x 5 ops.  The 84 verify ops are fastest; next come the 36
        # kernel ops of the two 10-state corridors, where the median sits, and
        # the top 36 are the two 14-state corridors, where p90 sits.  Sparse
        # problems (seed-dependent depth) stay between the two clusters.
        "plan": {"problems": (("corridor", 10), ("corridor", 10), ("corridor", 12), ("sparse", 12),
                              ("sparse", 13), ("corridor", 14), ("corridor", 14))},
        "cli": {"cheap": 40, "heavy": 1, "max_n": 4, "parts_n": 6, "extras": 12, "sample": 8192},
    },
    "smoke": {
        "search": {"n3": 4, "junction": 1, "n4": 0},
        "plan": {"problems": (("corridor", 5), ("sparse", 6))},
        "cli": {"cheap": 10, "heavy": 1, "max_n": 3, "parts_n": 4, "extras": 4, "sample": 32},
    },
}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    argv: list[str] = field(default_factory=list)  # cli ops: the subcommand line
    problem: object = None  # in-process ops: the program's problem, for warm-up


def to_program(cl, prob: O.Problem):
    doc = prob.to_doc()
    return cl.make_problem(prob.labels, prob.actions, doc["transition"], doc["initial"], doc["goal"])


def cover_for(cl, universe, labels, family):
    return cl.make_cover(universe, [O.names(labels, m) for m in O.canonical(family)])


# ---------------------------------------------------------------------------
# problem generators


def junction(rng: random.Random) -> O.Problem:
    """Two junctions feeding a goal and a sink, under a seeded relabelling."""
    a, b, c, d = rng.sample(range(4), 4)
    left = [0] * 4
    right = [0] * 4
    left[a], right[a] = 1 << b, 1 << d
    left[b] = right[b] = 1 << b
    left[c], right[c] = 1 << d, 1 << b
    left[d] = right[d] = 1 << d
    rows = {"left": tuple(left), "right": tuple(right)}
    actions = ("left", "right") if rng.random() < 0.5 else ("right", "left")
    return O.Problem(("1", "2", "3", "4"), actions, tuple(rows[x] for x in actions),
                     (1 << a) | (1 << c), 1 << b)


def dense_problem(rng: random.Random, n: int, n_actions: int) -> O.Problem:
    """Random successor sets; redrawn until full observation can reach the goal."""
    labels = tuple(str(i + 1) for i in range(n))
    full = (1 << n) - 1
    singletons = [1 << i for i in range(n)]
    while True:
        trans = tuple(tuple(rng.randint(1, full) for _ in range(n)) for _ in range(n_actions))
        goal = rng.randint(1, full)
        initial = rng.randint(1, full)
        prob = O.Problem(labels, tuple(f"a{i}" for i in range(n_actions)), trans, initial, goal)
        if initial & ~goal and O.solvable(prob, singletons):
            return prob


def corridor(n: int, goal_right: bool) -> O.Problem:
    """Deterministic left/right corridor; the goal is one end, the start belief is everywhere."""
    labels = tuple(str(i + 1) for i in range(n))
    left = tuple(1 << max(i - 1, 0) for i in range(n))
    right = tuple(1 << min(i + 1, n - 1) for i in range(n))
    goal = 1 << (n - 1) if goal_right else 1
    return O.Problem(labels, ("left", "right"), (left, right), (1 << n) - 1, goal)


def sparse_problem(rng: random.Random, n: int) -> O.Problem:
    """One or two successors per state and action; redrawn until full observation wins."""
    labels = tuple(str(i + 1) for i in range(n))
    n_actions = 2 + n % 2
    singletons = [1 << i for i in range(n)]
    while True:
        trans = []
        for _ in range(n_actions):
            row = []
            for _ in range(n):
                succ = 1 << rng.randrange(n)
                if rng.random() < 0.3:
                    succ |= 1 << rng.randrange(n)
                row.append(succ)
            trans.append(tuple(row))
        goal = 0
        for s in rng.sample(range(n), rng.choice((1, 2))):
            goal |= 1 << s
        initial = 0
        for s in rng.sample(range(n), rng.randint(2, 4)):
            initial |= 1 << s
        prob = O.Problem(labels, tuple(f"a{i}" for i in range(n_actions)), tuple(trans), initial, goal)
        if initial & ~goal and O.solvable(prob, singletons):
            return prob


def random_cover(rng: random.Random, n: int, k_max: int = 4, density: float = 0.4,
                 k_min: int = 1) -> frozenset[int]:
    full = (1 << n) - 1
    masks = set()
    for _ in range(rng.randint(k_min, k_max)):
        m = 0
        for i in range(n):
            if rng.random() < density:
                m |= 1 << i
        if m:
            masks.add(m)
    union = 0
    for m in masks:
        union |= m
    for i in range(n):
        if not union >> i & 1:
            if masks and rng.random() < 0.5:
                target = rng.choice(sorted(masks))
                masks.discard(target)
                masks.add(target | 1 << i)
            else:
                masks.add(1 << i)
            union |= 1 << i
    return frozenset(masks)


def overlapping_pairs(rng: random.Random, n: int) -> frozenset[int]:
    order = rng.sample(range(n), n)
    return frozenset((1 << order[i]) | (1 << order[i + 1]) for i in range(n - 1))


# ---------------------------------------------------------------------------
# search


def search_inputs(rng: random.Random, size: str) -> list[tuple[O.Problem, set]]:
    """Seeded problems, each with the oracle's maximal solvable covers."""
    spec = SIZES[size]["search"]
    probs = [junction(rng) for _ in range(spec["junction"])]
    probs += [dense_problem(rng, 4, 1 + i % 3) for i in range(spec["n4"])]
    probs += [dense_problem(rng, 3, 1 + i % 3) for i in range(spec["n3"])]
    rng.shuffle(probs)
    return [(prob, O.maximal_solvable(prob)) for prob in probs]


def search_ops(cl, inputs) -> list[Op]:
    ops = []
    for prob, expected in inputs:
        program = to_program(cl, prob)

        def check(found, prob=prob, expected=expected):
            return O.maximal_ok(prob, [O.family_of(prob.labels, c.sets()) for c in found], expected)

        ops.append(Op(f"search.n{prob.n}", lambda p=program: cl.maximal_solvable_covers(p), check,
                      problem=program))
    return ops


def warm_inprocess(cl, ops: list[Op]) -> None:
    """Fill the per-problem transition cache with one ranking per distinct problem."""
    seen = set()
    for op in ops:
        p = op.problem
        if id(p) in seen:
            continue
        seen.add(id(p))
        cl.solvable(p, cl.make_cover(p.universe, [[lab] for lab in p.universe.labels]))


# ---------------------------------------------------------------------------
# plan


@dataclass
class PlanPair:
    """One problem/cover pair and the oracle's verdicts on it."""

    family: frozenset[int]
    readings: list[int]
    wins: bool
    samples: list[tuple[int, bool]]  # (belief, winning?) for sampled beliefs


def plan_inputs(rng: random.Random, size: str) -> list[tuple[O.Problem, list[PlanPair]]]:
    probs, corridor_sizes = [], set()
    for kind, n in SIZES[size]["plan"]["problems"]:
        if kind == "sparse":
            probs.append(sparse_problem(rng, n))
        else:  # a repeated size takes the other end, so no problem is repeated
            probs.append(corridor(n, goal_right=n not in corridor_sizes))
            corridor_sizes.add(n)
    # Problems keep their listed order: peak RSS depends on the allocation history.
    out = []
    for prob in probs:
        n = prob.n
        families = [
            frozenset(1 << i for i in range(n)),  # first: always solvable, its policy is reused
            frozenset([prob.full]),
            overlapping_pairs(rng, n),
            overlapping_pairs(rng, n),
            random_cover(rng, n, k_min=4, k_max=4, density=0.3),
            random_cover(rng, n, k_min=4, k_max=4, density=0.3),
        ]
        pairs = []
        for fam in families:
            readings = O.canonical(fam)
            beliefs = [prob.initial, prob.goal] + [rng.randint(1, prob.full) for _ in range(4)]
            pairs.append(PlanPair(fam, readings, O.solvable(prob, readings),
                                  [(b, O.solvable(prob, readings, b)) for b in beliefs]))
        out.append((prob, pairs))
    return out


def plan_ops(cl, inputs) -> list[Op]:
    ops = []
    for prob, pairs in inputs:
        program = to_program(cl, prob)
        shared: dict = {}
        for pair in pairs:
            ops += _plan_ops(cl, prob, program, pair, shared)
    return ops


def _plan_ops(cl, prob, program, pair: PlanPair, shared) -> list[Op]:
    """Five ops per problem/cover pair, whatever its answer, so the latency mix is fixed.

    ``extract_policy`` must raise ``UnsolvableError`` on an unsolvable pair; the two
    ``verify_policy`` ops then judge the singleton cover's policy and a copy with one
    action removed, each against the oracle's verdict.
    """
    labels, readings, wins = prob.labels, pair.readings, pair.wins
    cover = cover_for(cl, program.universe, labels, pair.family)
    slot: dict = {}
    unsolvable = object()

    def masks(action_of):
        return {O.mask_of(labels, b): prob.actions.index(a) for b, a in action_of.items()}

    def arm(pol):
        dropped = dict(pol.action_of)
        first = next(prob.initial & r for r in readings if prob.initial & r)
        dropped.pop(frozenset(O.names(labels, first)), None)
        slot.update(policy=pol, ok=O.policy_wins(prob, readings, masks(pol.action_of)),
                    corrupt=cl.Policy(dropped, pol.rank_of), corrupt_ok=O.policy_wins(prob, readings, masks(dropped)))

    def check_solvable(result):
        return None if result is wins else f"solvable returned {result!r}, oracle says {wins}"

    def check_winning(result):
        got = {O.mask_of(labels, b) for b in result}
        if (prob.initial in got) != wins:
            return "winning set disagrees with solvability of the initial belief"
        for b, ok in pair.samples:
            if (b in got) != ok:
                return f"belief {O.names(labels, b)} winning={b in got}, oracle says {ok}"
        return None

    def extract():
        try:
            return cl.extract_policy(program, cover)
        except cl.UnsolvableError:
            return unsolvable

    def check_extract(pol):
        if not wins:
            if pol is not unsolvable:
                return "extract_policy returned a policy for an unsolvable pair"
            arm(shared["singleton_policy"])
            return None
        if pol is unsolvable:
            return "extract_policy raised on a solvable pair"
        arm(pol)
        if not slot["ok"]:
            return "extracted policy fails the oracle simulation"
        shared.setdefault("singleton_policy", pol)
        return None

    def check_verify(result):
        return None if result is slot["ok"] else f"verify_policy said {result}, oracle {slot['ok']}"

    def check_corrupt(result):
        want = slot["corrupt_ok"]
        return None if result is want else f"verify_policy said {result} on a corrupted policy, oracle {want}"

    ops = [
        Op("plan.solvable", lambda: cl.solvable(program, cover), check_solvable),
        Op("plan.winning_beliefs", lambda: cl.winning_beliefs(program, cover), check_winning),
        Op("plan.extract_policy", extract, check_extract),
        Op("plan.verify_policy", lambda: cl.verify_policy(program, cover, slot["policy"]), check_verify),
        Op("plan.verify_policy", lambda: cl.verify_policy(program, cover, slot["corrupt"]), check_corrupt),
    ]
    for op in ops:
        op.problem = program
    return ops


# ---------------------------------------------------------------------------
# cli


def cover_doc(labels, family) -> dict:
    return {"universe": list(labels), "cover": [O.names(labels, m) for m in O.canonical(family)]}


def covers_doc(labels, families) -> dict:
    return {"universe": list(labels), "count": len(families),
            "covers": [[O.names(labels, m) for m in O.canonical(f)] for f in families]}


def family_key(family):
    return (len(family), [O.canon_key(m) for m in O.canonical(family)])


class CliDocs:
    """Writes the input documents of the cli workload under ``workdir``."""

    def __init__(self, workdir: str):
        self.dir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, doc, raw: str | None = None) -> str:
        self.count += 1
        path = os.path.join(self.dir, f"d{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw if raw is not None else json.dumps(doc))
        return path


def _status(want_rc: int, check_out: Callable[[str], str | None], error: bool = False):
    """Exit status as documented (0/1/2), no traceback, an ``error:`` line iff ``error``."""
    def check(res):
        rc, out, err = res
        if "Traceback" in err:
            return "traceback on stderr"
        if rc != want_rc:
            return f"exit status {rc}, expected {want_rc}: {err.strip()[:200]}"
        if error != err.startswith("error:"):
            return f"stderr {err.strip()[:80]!r} does not match the expected outcome"
        return check_out(out)
    return check


def _lines(expected: list[str]):
    def check_out(out):
        got = out.splitlines()
        return None if got == expected else f"output {got[:3]} != {expected[:3]}"
    return check_out


def _cover_line(labels, family):
    def check_out(out):
        text = out.strip()
        if O.parse_cover_text(labels, text) != family:
            return f"cover {text!r} differs from the oracle"
        if not O.is_canonical_text(labels, text):
            return f"cover {text!r} is not in canonical order"
        return None
    return check_out


def build_cli(rng: random.Random, size: str, workdir: str) -> list[Op]:
    spec = SIZES[size]["cli"]
    docs = CliDocs(workdir)
    ops: list[Op] = []
    cheap = [_cli_validate, _cli_compare, _cli_meet, _cli_join, _cli_star, _cli_class,
             _cli_proceeds, _cli_solve, _cli_stipulation]
    for i in range(spec["cheap"]):
        ops.append(cheap[i % len(cheap)](rng, docs, i // len(cheap)))
    heavy = _cli_heavy(rng, docs, spec)
    for _ in range(spec["heavy"]):
        ops += heavy
    rng.shuffle(ops)
    return ops


def _universe(rng, lo=3, hi=5):
    n = rng.randint(lo, hi)
    return tuple(str(i + 1) for i in range(n))


def _cli_validate(rng, docs, k):
    labels = _universe(rng)
    n = len(labels)
    if k % 3 == 2:
        path = docs.write(None, raw='{"universe": ["1", "2"], "cover": [["1"], ["3"]')
        return Op("cli.validate", None, _status(2, lambda out: None if out == "" else "stdout not empty", error=True),
                  ["validate", "--input", path])
    kinds = [
        ("cover", cover_doc(labels, random_cover(rng, n))),
        ("universe", {"universe": list(labels)}),
        ("stipulation", {"sensitive": [labels[0]], "max_resolution": 1}),
        ("sensor-map", {"universe": list(labels), "readings": {f"r{i}": [lab] for i, lab in enumerate(labels)}}),
        ("problem", dense_problem(rng, 3, 2).to_doc()),
    ]
    picked = rng.sample(kinds, 2)
    argv = ["validate"]
    for _, doc in picked:
        argv += ["--input", docs.write(doc)]
    return Op("cli.validate", None, _status(0, _lines([f"ok: {kind}" for kind, _ in picked])), argv)


def _two_covers(rng, docs):
    labels = _universe(rng)
    n = len(labels)
    full = (1 << n) - 1
    a = random_cover(rng, n)
    pick = rng.randrange(4)
    if pick == 0:
        b = a
    elif pick == 1:
        b = a | {rng.randint(1, full)}
    elif pick == 2 and len(a) > 1:
        b = a - {O.canonical(a)[0]}
        b = b if O.is_cover(b, full) else a
    else:
        b = random_cover(rng, n)
    return labels, a, b, docs.write(cover_doc(labels, a)), docs.write(cover_doc(labels, b))


def _cli_compare(rng, docs, k):
    labels, a, b, pa, pb = _two_covers(rng, docs)
    rel = ("equal" if a == b else "first-subsumes-second" if a < b
           else "second-subsumes-first" if b < a else "incomparable")
    return Op("cli.compare", None, _status(0, _lines([rel])), ["compare", "--input", pa, "--input", pb])


def _cli_meet(rng, docs, k):
    labels, a, b, pa, pb = _two_covers(rng, docs)
    return Op("cli.meet", None, _status(0, _cover_line(labels, a | b)), ["meet", "--input", pa, "--input", pb])


def _cli_join(rng, docs, k):
    labels, a, b, pa, pb = _two_covers(rng, docs)
    common = a & b
    if O.is_cover(common, (1 << len(labels)) - 1):
        check_out = _cover_line(labels, common)
    else:
        check_out = _lines(["absent"])
    return Op("cli.join", None, _status(0, check_out), ["join", "--input", pa, "--input", pb])


def _cli_star(rng, docs, k):
    labels = _universe(rng)
    a = random_cover(rng, len(labels))
    path = docs.write(cover_doc(labels, a))
    return Op("cli.star", None, _status(0, _cover_line(labels, O.closure(a))), ["star", "--input", path])


def _cli_class(rng, docs, k):
    labels = _universe(rng)
    a = random_cover(rng, len(labels))
    path = docs.write(cover_doc(labels, a))
    rep, clo = O.antichain(a), O.closure(a)

    def check_out(out):
        lines = out.splitlines()
        if len(lines) != 2 or not lines[0].startswith("representative: ") or not lines[1].startswith("closure: "):
            return f"unexpected class output {lines[:2]}"
        if O.parse_cover_text(labels, lines[0].split(": ", 1)[1]) != rep:
            return "class representative differs from the oracle"
        if O.parse_cover_text(labels, lines[1].split(": ", 1)[1]) != clo:
            return "class closure differs from the oracle"
        return None

    return Op("cli.class", None, _status(0, check_out), ["class", "--input", path])


def _cli_proceeds(rng, docs, k):
    labels, a, b, pa, pb = _two_covers(rng, docs)
    want = a <= b or O.closure(a) <= O.closure(b)
    return Op("cli.proceeds", None, _status(0, _lines(["true" if want else "false"])),
              ["proceeds", "--input", pa, "--input", pb])


def _cli_solve(rng, docs, k):
    prob = dense_problem(rng, 4, rng.randint(1, 3))
    fam = random_cover(rng, 4)
    ok = O.solvable(prob, fam)
    argv = ["solve", "--input", docs.write(prob.to_doc()), "--input", docs.write(cover_doc(prob.labels, fam))]
    return Op("cli.solve", None, _status(0 if ok else 1, _lines(["solvable" if ok else "unsolvable"])), argv)


def _violates(m: int, sensitive: int, k: int | None) -> bool:
    return m & ~sensitive == 0 and (k is None or m.bit_count() <= k)


def _cli_stipulation(rng, docs, k):
    labels = _universe(rng)
    n = len(labels)
    a = random_cover(rng, n)
    sensitive = 0
    for i in rng.sample(range(n), rng.randint(1, n - 1)):
        sensitive |= 1 << i
    res = rng.randint(1, n)
    ok = not any(_violates(m, sensitive, res) for m in a)
    argv = ["stipulation", "--input", docs.write(cover_doc(labels, a)),
            "--input", docs.write({"sensitive": O.names(labels, sensitive), "max_resolution": res})]
    return Op("cli.stipulation", None, _status(0 if ok else 1, _lines(["compliant" if ok else "non-compliant"])), argv)


def _big_class(rng, n: int, extras: int):
    """A covering antichain over n features whose star class has 2**extras members."""
    full = (1 << n) - 1
    while True:
        rep = O.antichain(random_cover(rng, n, k_max=4, density=0.45))
        if O.is_cover(rep, full) and len(O.closure(rep)) - len(rep) == extras:
            return rep


def _cli_heavy(rng, docs, spec) -> list[Op]:
    ops = []
    max_n = spec["max_n"]

    # read-heavy: hasse over every 3-feature cover, once per order
    labels3 = ("1", "2", "3")
    covers3 = sorted(O.all_covers(3), key=family_key)
    path3 = docs.write(covers_doc(labels3, covers3))
    cover_edges = {(a, b) for a in covers3 for b in covers3 if a < b and len(b) == len(a) + 1}

    def check_hasse(out):
        got = set()
        for line in out.splitlines():
            left, right = line.split(" -> ")
            got.add((O.parse_cover_text(labels3, left), O.parse_cover_text(labels3, right)))
        return None if got == cover_edges else f"{len(got)} hasse edges, oracle {len(cover_edges)}"

    ops.append(Op("cli.hasse", None, _status(0, check_hasse), ["hasse", "--input", path3, "--order", "subsumption"]))
    # Star-equivalent pairs make these preorders non-antisymmetric: documented exit 1.
    for order in ("star", "proceeds"):
        ops.append(Op("cli.hasse", None, _status(1, _lines([]), error=True), ["hasse", "--input", path3, "--order", order]))

    labels4 = ("1", "2", "3", "4")
    sample = sorted(rng.sample(O.all_covers(4), spec["sample"]), key=family_key)
    path4 = docs.write(covers_doc(labels4, sample))
    ops.append(Op("cli.validate_large", None, _status(0, _lines(["ok: covers"])), ["validate", "--input", path4]))

    # write-heavy
    labels_n = tuple(str(i + 1) for i in range(max_n))

    def check_enumerate(out):
        doc = O.json_round_trip(out)
        fams = [O.family_of(labels_n, c) for c in doc["covers"]]
        want = O.cover_count(max_n)
        if doc["count"] != want or len(fams) != want or len(set(fams)) != want:
            return f"enumerate count {doc['count']}/{len(fams)}, inclusion-exclusion {want}"
        full = (1 << max_n) - 1
        if not all(O.is_cover(f, full) for f in fams) or fams != sorted(fams, key=family_key):
            return "enumerate output has a non-cover or is out of canonical order"
        return None

    ops.append(Op("cli.enumerate", None, _status(0, check_enumerate),
                  ["enumerate", "--max-n", str(max_n), "--format", "json"]))

    def check_classes(out):
        doc = O.json_round_trip(out)
        want = O.STAR_CLASS_COUNTS[max_n]
        reps = set()
        for item in doc["classes"]:
            rep = O.family_of(labels_n, item["representative"])
            if O.antichain(rep) != rep or O.family_of(labels_n, item["closure"]) != O.closure(rep):
                return "class closure or representative is wrong"
            reps.add(rep)
        return None if doc["count"] == want == len(reps) else f"{doc['count']} classes, expected {want}"

    ops.append(Op("cli.classes", None, _status(0, check_classes),
                  ["classes", "--max-n", str(max_n), "--format", "json"]))

    parts_n = spec["parts_n"]
    labels_p = tuple(str(i + 1) for i in range(parts_n))
    parts = O.partitions(parts_n)
    part_edges = O.refinement_edges(parts)

    def check_partitions(out):
        nodes, edges = set(), set()
        for line in out.splitlines():
            line = line.strip()
            if "->" in line:
                left, right = line.rstrip(";").split(" -> ")
                edges.add((O.parse_cover_text(labels_p, left.strip('"')),
                           O.parse_cover_text(labels_p, right.strip('"'))))
            elif line.startswith('"'):
                nodes.add(O.parse_cover_text(labels_p, line.rstrip(";").strip('"')))
        if len(nodes) != O.bell(parts_n) or nodes != set(parts):
            return f"{len(nodes)} partition nodes, Bell number {O.bell(parts_n)}"
        return None if edges == part_edges else f"{len(edges)} refinement edges, oracle {len(part_edges)}"

    ops.append(Op("cli.partitions", None, _status(0, check_partitions),
                  ["partitions", "--max-n", str(parts_n), "--format", "dot"]))

    labels6 = tuple(str(i + 1) for i in range(6))
    rep = _big_class(rng, 6, spec["extras"])
    clo = O.closure(rep)
    extra_masks = O.canonical(clo - rep)
    member = rep | set(rng.sample(extra_masks, 2))
    path_member = docs.write(cover_doc(labels6, member))
    n_members = 1 << len(extra_masks)

    def check_members(out):
        doc = O.json_round_trip(out)
        fams = [O.family_of(labels6, c) for c in doc["covers"]]
        if doc["count"] != n_members or len(set(fams)) != n_members:
            return f"{doc['count']} members, expected {n_members}"
        return None if all(rep <= f <= clo for f in fams) else "a member is outside the class"

    ops.append(Op("cli.members", None, _status(0, check_members),
                  ["members", "--input", path_member, "--format", "json"]))

    e = rng.choice(extra_masks)
    sens, res = e, e.bit_count()
    path_stip = docs.write({"sensitive": O.names(labels6, sens), "max_resolution": res})
    n_bad_extras = sum(_violates(m, sens, res) for m in extra_masks)
    n_good = 1 << (len(extra_masks) - n_bad_extras)

    def check_report(out):
        doc = O.json_round_trip(out)
        good = [O.family_of(labels6, c) for c in doc["compliant"]]
        bad = [O.family_of(labels6, c) for c in doc["non_compliant"]]
        if len(good) != n_good or len(bad) != n_members - n_good:
            return f"compliance split {len(good)}/{len(bad)}, oracle {n_good}/{n_members - n_good}"
        if any(_violates(m, sens, res) for f in good for m in f):
            return "a compliant member violates the stipulation"
        if not all(any(_violates(m, sens, res) for m in f) for f in bad):
            return "a non-compliant member complies"
        return None if (doc["witness"] is not None) == bool(good and bad) else "witness presence is wrong"

    ops.append(Op("cli.class_report", None, _status(0, check_report),
                  ["class-report", "--input", path_member, "--input", path_stip, "--format", "json"]))

    prob = junction(rng)
    path_prob = docs.write(prob.to_doc())
    expected_search = O.maximal_solvable(prob)

    def check_search(out):
        fams = [O.parse_cover_text(prob.labels, line) for line in out.splitlines()]
        return O.maximal_ok(prob, fams, expected_search)

    ops.append(Op("cli.search_sensors", None, _status(0, check_search), ["search-sensors", "--input", path_prob]))
    return ops


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("COVER_LATTICE_MAX_N", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "cover_lattice", *argv]
