"""Acceptance suite: every exit criterion, one test each, exact tolerances.

Each test prints a single ``criterion NN PASS/FAIL`` line; the checks lean
on independent oracles (closed-form counts, brute-force set filters, fam
bitmask arithmetic) rather than the code paths they validate.
"""

import functools
import json
import time

import pytest

from cover_lattice import (
    CycleError,
    SensorMap,
    all_classes,
    all_covers,
    all_partitions,
    canonical_rep,
    class_compliance_report,
    class_members,
    complies,
    extract_policy,
    hasse_edges,
    invert_sensor_map,
    join,
    make_universe,
    maximal_solvable_covers,
    meet,
    parse_document,
    proceeds,
    refines,
    run_cli,
    serialize_document,
    solvable,
    star_closure,
    star_subsumes,
    subsumes,
    u_inflation,
    upper_covers,
    verify_policy,
    winning_beliefs,
    Stipulation,
)

from util import C, as_family, brute_cover_families, cover_count_formula, fam_bits, random_problem

SEEDS = range(20)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL: {label}")
                raise
            print(f"criterion {num:02d} PASS: {label}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def fam3(u3, covers3):
    index = {m: i for i, m in enumerate(u3.canonical_masks)}
    return {c: fam_bits(index, c) for c in covers3}


@pytest.fixture(scope="module")
def problems3(u3):
    return [random_problem(u3, seed) for seed in SEEDS]


@criterion(1, "off-by-one position sensor inverts to the expected cover")
def test_c01_sensor_map_inversion(u3):
    gps = SensorMap(u3, {"1": ["1", "2"], "2": ["1", "2", "3"], "3": ["2", "3"]})
    cover = invert_sensor_map(gps)
    assert cover == C(u3, "12", "123", "23")
    assert cover.sets() == (("1", "2"), ("2", "3"), ("1", "2", "3"))


@criterion(2, "cover counts 1, 5, 109, 32297 match formula and brute force")
def test_c02_cover_counts():
    counts = {}
    for n in (1, 2, 3, 4):
        u = make_universe([str(i + 1) for i in range(n)])
        counts[n] = len(all_covers(u))
    assert counts == {1: 1, 2: 5, 3: 109, 4: 32297}
    for n in (1, 2, 3, 4):
        assert counts[n] == cover_count_formula(n)
    for n in (1, 2, 3):
        u = make_universe([str(i + 1) for i in range(n)])
        assert {as_family(c) for c in all_covers(u)} == brute_cover_families(u.labels)


@criterion(3, "semilattice laws hold on all ordered pairs of the 109 covers in < 5 s")
def test_c03_semilattice_laws(u3, covers3, fam3):
    start = time.perf_counter()
    fams = [fam3[c] for c in covers3]
    by_fam = dict(zip(fams, covers3))
    full_fam = (1 << 7) - 1

    for c in covers3:
        assert subsumes(c, c)
    for i, a in enumerate(covers3):
        fa = fams[i]
        for j, b in enumerate(covers3):
            fb = fams[j]
            le = fa & ~fb == 0
            assert subsumes(a, b) == le
            if le and fb & ~fa == 0:
                assert a == b
    # transitivity via reachability rows
    rows = []
    for fa in fams:
        row = 0
        for j, fb in enumerate(fams):
            if fa & ~fb == 0:
                row |= 1 << j
        rows.append(row)
    for i in range(109):
        ri = rows[i]
        probe = ri
        while probe:
            low = probe & -probe
            j = low.bit_length() - 1
            assert rows[j] & ~ri == 0
            probe ^= low

    # meet is the greatest lower bound
    for i, a in enumerate(covers3):
        fa = fams[i]
        for j, b in enumerate(covers3):
            fb = fams[j]
            m = meet(a, b)
            fm = fa | fb
            assert fam3[m] == fm
            for fd in fams:
                if fa & ~fd == 0 and fb & ~fd == 0:
                    assert fm & ~fd == 0

    # join exists iff a common upper bound exists, and is then least
    union_of = {}
    for fam, cover in by_fam.items():
        u = 0
        for m in cover.masks:
            u |= m
        union_of[fam] = u
    for i, a in enumerate(covers3):
        fa = fams[i]
        for j, b in enumerate(covers3):
            fb = fams[j]
            fj = fa & fb
            uppers = [fd for fd in fams if fd & ~fa == 0 and fd & ~fb == 0]
            result = join(a, b)
            if result is None:
                assert not uppers
                assert fj not in by_fam  # the intersection family is not a valid cover
            else:
                assert fam3[result] == fj
                assert uppers
                for fd in uppers:
                    assert fd & ~fj == 0

    # unique bottom: the family of all 7 non-empty subsets
    bottom = by_fam[full_fam]
    assert bottom == C(u3, "1", "2", "3", "12", "13", "23", "123")
    assert all(subsumes(c, bottom) for c in covers3)
    fold = covers3[0]
    for c in covers3[1:]:
        fold = meet(fold, c)
    assert fold == bottom

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"laws took {elapsed:.2f}s"


@criterion(4, "star quotient: 9 classes on n=3, 2 on n=2, minimal antichain reps")
def test_c04_star_quotient(u2, u3, covers3):
    assert len(all_classes(u2)) == 2
    classes = all_classes(u3)
    assert len(classes) == 9

    by_closure = {}
    for c in covers3:
        by_closure.setdefault(star_closure(c), []).append(c)
    assert len(by_closure) == 9
    assert {sc.closure for sc in classes} == set(by_closure)
    assert sum(len(v) for v in by_closure.values()) == 109

    for sc in classes:
        rep = sc.representative
        masks = rep.masks
        assert not any(a != b and a & b == a for a in masks for b in masks)
        union = 0
        for m in masks:
            union |= m
        assert union == u3.full_mask
        members = class_members(rep)
        assert members == set(by_closure[sc.closure])
        smallest = [m for m in members if len(m) == min(len(x) for x in members)]
        assert smallest == [rep]


@criterion(5, "plan entailment holds for 20 seeded problems and every subsuming pair")
def test_c05_plan_entailment(covers3, fam3, problems3):
    fams = [fam3[c] for c in covers3]
    for p in problems3:
        result = [solvable(p, c) for c in covers3]
        for i in range(109):
            if not result[i]:
                continue
            fa = fams[i]
            for j in range(109):
                if fams[j] & ~fa == 0:  # cover j subsumes cover i
                    assert result[j]


@criterion(6, "star closure never changes solvability across 20 problems x 109 covers")
def test_c06_star_invariance(covers3, problems3):
    for p in problems3:
        for c in covers3:
            assert solvable(p, c) == solvable(p, star_closure(c))


@criterion(7, "winning beliefs are closed under taking non-empty sub-beliefs")
def test_c07_belief_monotonicity(u3, u4, covers3, right_march, junction, problems3):
    def check(problem, cover):
        universe = problem.universe
        win = {universe.mask_of(b) for b in winning_beliefs(problem, cover)}
        for b in win:
            sub = (b - 1) & b
            while sub:
                assert sub in win
                sub = (sub - 1) & b

    for c in covers3:
        check(right_march, c)
    junction_covers = list(all_partitions(u4)) + [C(u4, "1234"), C(u4, "14", "23")]
    for c in junction_covers:
        check(junction, c)
    for p in problems3:
        for c in covers3:
            check(p, c)


@criterion(8, "junction world truth table and policy verification")
def test_c08_junction_truth_table(u4, junction):
    blind = C(u4, "1234")
    full = C(u4, "1", "2", "3", "4")
    pairing = C(u4, "14", "23")
    assert not solvable(junction, blind)
    assert solvable(junction, full)
    assert solvable(junction, pairing)
    for cover in (full, pairing):
        assert verify_policy(junction, cover, extract_policy(junction, cover))


@criterion(9, "combined ordering: preorder laws, antisymmetry witness, partition slice")
def test_c09_proceeds_behavior(u2, u3, u4, covers3):
    for c in covers3:
        assert proceeds(c, c)
    rows = []
    for a in covers3:
        row = 0
        for j, b in enumerate(covers3):
            if proceeds(a, b):
                row |= 1 << j
        rows.append(row)
    for i in range(109):
        ri = rows[i]
        probe = ri
        while probe:
            low = probe & -probe
            j = low.bit_length() - 1
            assert rows[j] & ~ri == 0
            probe ^= low

    witness_a = C(u2, "12", "1")
    witness_b = C(u2, "12", "2")
    assert witness_a != witness_b
    assert proceeds(witness_a, witness_b) and proceeds(witness_b, witness_a)
    with pytest.raises(CycleError) as excinfo:
        hasse_edges({witness_a, witness_b}, "proceeds")
    assert set(excinfo.value.witness) == {witness_a, witness_b}

    parts3 = all_partitions(u3)
    assert len(parts3) == 5
    strict = {(a, b) for a in parts3 for b in parts3 if a != b and refines(a, b)}
    reduction = {
        (a, b)
        for (a, b) in strict
        if not any((a, c) in strict and (c, b) in strict for c in parts3)
    }
    assert hasse_edges(parts3, "proceeds") == reduction

    parts4 = all_partitions(u4)
    assert len(parts4) == 15
    for p in parts4:
        for q in parts4:
            assert refines(p, q) == star_subsumes(p, q)


@criterion(10, "star quotient is not a congruence for stipulated tasks")
def test_c10_stipulation_non_congruence(u3):
    cover = C(u3, "12", "23")
    stip = Stipulation(frozenset({"1"}))
    closed = star_closure(cover)
    rep = canonical_rep(cover)
    assert complies(rep, stip)
    assert not complies(closed, stip)
    report = class_compliance_report(cover, stip)
    assert report.mixed and report.witness is not None
    good, bad = report.witness
    assert complies(good, stip) and not complies(bad, stip)
    assert star_closure(good) == star_closure(bad)


@criterion(11, "u-inflation/upper-cover duality and maximal solvable covers")
def test_c11_duality(u3, covers3, right_march):
    for c in covers3:
        assert upper_covers(u_inflation(c)) == {c}
    full = C(u3, "1", "2", "3", "12", "13", "23", "123")
    assert maximal_solvable_covers(right_march) == {full}
    assert u_inflation(full) == set(covers3)


@criterion(12, "CLI round-trip, determinism, and the exit-status catalogue")
def test_c12_cli_contract(tmp_path, capsys, covers3):
    # parse -> serialize is the identity on every enumerated cover
    for c in covers3:
        text = serialize_document(c)
        assert serialize_document(parse_document(text)) == text

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    junction = write(
        "junction.json",
        {
            "states": ["1", "2", "3", "4"],
            "actions": ["left", "right"],
            "transition": {
                "1": {"left": ["2"], "right": ["4"]},
                "2": {"left": ["2"], "right": ["2"]},
                "3": {"left": ["4"], "right": ["2"]},
                "4": {"left": ["4"], "right": ["4"]},
            },
            "initial": ["1", "3"],
            "goal": ["2"],
        },
    )
    blind = write("blind.json", {"universe": ["1", "2", "3", "4"], "cover": [["1", "2", "3", "4"]]})
    pairing = write(
        "pairing.json", {"universe": ["1", "2", "3", "4"], "cover": [["1", "4"], ["2", "3"]]}
    )
    singles = write("singles.json", {"universe": ["1", "2"], "cover": [["1"], ["2"]]})
    pairs2 = write("pairs2.json", {"universe": ["1", "2"], "cover": [["1", "2"]]})
    uncovered = write("uncovered.json", {"universe": ["1", "2"], "cover": [["1"]]})
    bad_shape = write("badshape.json", {"universe": ["1"], "cover": [["1", 2]]})
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    big_universe = write("u5.json", {"universe": ["1", "2", "3", "4", "5"]})
    cycle_covers = write(
        "cycle.json",
        {"universe": ["1", "2"], "covers": [[["1", "2"], ["1"]], [["1", "2"], ["2"]]]},
    )
    stip = write("stip.json", {"sensitive": ["1"]})
    leaky = write("leaky.json", {"universe": ["1", "2", "3"], "cover": [["1"], ["2", "3"]]})

    def run(*argv):
        status = run_cli(list(argv))
        captured = capsys.readouterr()
        return status, captured.out

    # byte-identical repeated runs, every subcommand
    march = write(
        "march.json",
        {
            "states": ["1", "2", "3"],
            "actions": ["right"],
            "transition": {
                "1": {"right": ["2"]},
                "2": {"right": ["3"]},
                "3": {"right": ["3"]},
            },
            "initial": ["1", "2", "3"],
            "goal": ["3"],
        },
    )
    gps = write(
        "gps.json",
        {
            "universe": ["1", "2", "3"],
            "readings": {"1": ["1", "2"], "2": ["1", "2", "3"], "3": ["2", "3"]},
        },
    )
    chain = write(
        "chain.json",
        {
            "universe": ["1", "2", "3"],
            "covers": [[["1", "2", "3"]], [["1"], ["1", "2", "3"]]],
        },
    )
    for argv in (
        ("validate", "--input", pairing, "--input", stip),
        ("invert", "--input", gps, "--format", "json"),
        ("compare", "--input", pairing, "--input", blind),
        ("meet", "--input", pairing, "--input", blind, "--format", "json"),
        ("join", "--input", pairing, "--input", blind),
        ("star", "--input", pairing, "--format", "json"),
        ("class", "--input", pairing),
        ("members", "--input", pairing, "--format", "json"),
        ("proceeds", "--input", pairing, "--input", blind),
        ("enumerate", "--max-n", "3", "--format", "json"),
        ("classes", "--max-n", "3", "--format", "json"),
        ("partitions", "--max-n", "3", "--format", "dot"),
        ("hasse", "--input", chain, "--format", "dot"),
        ("solve", "--input", junction, "--input", blind),
        ("policy", "--input", junction, "--input", pairing, "--format", "json"),
        ("search-sensors", "--input", march),
        ("stipulation", "--input", pairing, "--input", stip),
        ("class-report", "--input", pairing, "--input", stip, "--format", "json"),
    ):
        first = run(*argv)
        second = run(*argv)
        assert first == second

    catalogue = [
        ((), 2),  # no arguments: usage
        (("frobnicate",), 2),  # unknown subcommand: usage
        (("meet", "--input", singles), 2),  # missing second input: usage
        (("star", "--input", str(tmp_path / "missing.json")), 2),  # unreadable file
        (("validate", "--input", str(broken)), 2),  # malformed JSON: parse
        (("validate", "--input", bad_shape), 2),  # schema violation: parse
        (("validate", "--input", uncovered), 1),  # semantic violation: domain
        (("meet", "--input", singles, "--input", blind), 1),  # universe mismatch
        (("solve", "--input", junction, "--input", blind), 1),  # unsolvable
        (("policy", "--input", junction, "--input", blind), 1),  # unsolvable policy
        (("stipulation", "--input", leaky, "--input", stip), 1),  # non-compliant
        (("enumerate", "--input", big_universe, "--format", "json"), 1),  # bound exceeded
        (("hasse", "--input", cycle_covers, "--order", "proceeds"), 1),  # preorder cycle
        (("join", "--input", singles, "--input", pairs2), 0),  # absent join is an answer
        (("solve", "--input", junction, "--input", pairing), 0),
        (("compare", "--input", singles, "--input", pairs2), 0),
    ]
    for argv, expected in catalogue:
        status, _ = run(*argv)
        assert status == expected, f"{argv} exited {status}, expected {expected}"

    # pinned wording of the solve example
    status, out = run("solve", "--input", junction, "--input", blind)
    assert status == 1 and out == "unsolvable\n"
