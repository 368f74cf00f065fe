"""Command-line interface exposing every operation.

Exit status: 0 on success, 1 on domain errors (invalid value, unsolvable
goal, failed stipulation, exceeded bound), 2 on usage or document-shape
errors.  All output is deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

# Each handler imports the layers it calls, so a process loads only what its
# subcommand uses.
from .core import Cover, FeatureUniverse, SensorMap, invert_sensor_map, make_universe
from .errors import CoverLatticeError, SchemaError, guard_features
from .formats import (
    class_doc,
    class_report_doc,
    classes_doc,
    cover_text,
    covers_doc,
    export_dot,
    json_text,
    parse_document,
    policy_doc,
    ranked_diagram,
    serialize_document,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad invocation: wrong input kinds, no universe size, unreadable file."""


def _load_inputs(args) -> list:
    docs = []
    for path in args.input:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
        docs.append(parse_document(text))
    return docs


def _pick(docs, kind, what: str):
    for d in docs:
        if isinstance(d, kind):
            return d
    raise UsageError(f"this subcommand needs a {what} input (--input FILE)")


def _covers_in(docs) -> list[Cover]:
    out = []
    for d in docs:
        if isinstance(d, Cover):
            out.append(d)
        elif isinstance(d, tuple) and all(isinstance(c, Cover) for c in d):
            out.extend(d)
    return out


def _two_covers(docs) -> tuple[Cover, Cover]:
    covers = _covers_in(docs)
    if len(covers) != 2:
        raise UsageError("this subcommand needs exactly two cover inputs")
    return covers[0], covers[1]


def _one_cover(docs) -> Cover:
    covers = _covers_in(docs)
    if len(covers) != 1:
        raise UsageError("this subcommand needs exactly one cover input")
    return covers[0]


def _universe_arg(docs, args, what: str, bound: int) -> FeatureUniverse:
    """The universe input, or else ``--max-n`` features, checked against the guard first."""
    for d in docs:
        if isinstance(d, FeatureUniverse):
            if args.max_n is not None:
                raise UsageError("give a universe input or --max-n N, not both")
            return d
    n = args.max_n
    if n is None:
        raise UsageError("provide a universe input or --max-n N")
    if n < 1:
        raise UsageError("--max-n must be at least 1")
    guard_features(what, n, bound)  # before the labels are built
    return make_universe([str(i + 1) for i in range(n)])


def _cover_out(c: Cover, args) -> str:
    return serialize_document(c) if args.format == "json" else cover_text(c) + "\n"


def _sorted_covers(covers) -> list[Cover]:
    return sorted(covers, key=lambda c: c.canonical_key)


# By type name, so that naming a document's kind imports no layer that the
# documents given did not already need.
DOC_KINDS = {
    "Cover": "cover",
    "FeatureUniverse": "universe",
    "PlanningProblem": "problem",
    "Stipulation": "stipulation",
    "SensorMap": "sensor-map",
    "tuple": "covers",
}


def _kind_name(doc) -> str:
    name = type(doc).__name__
    return DOC_KINDS.get(name, name)


def _cmd_validate(args, docs):
    if not docs:
        raise UsageError("validate needs at least one --input FILE")
    kinds = [_kind_name(d) for d in docs]
    if args.format == "json":
        return json_text({"results": [{"kind": k} for k in kinds]}), EXIT_OK
    return "".join(f"ok: {k}\n" for k in kinds), EXIT_OK


def _cmd_invert(args, docs):
    sensor = _pick(docs, SensorMap, "sensor-map")
    return _cover_out(invert_sensor_map(sensor), args), EXIT_OK


def _cmd_compare(args, docs):
    from .order import compare

    a, b = _two_covers(docs)
    tag = compare(a, b)
    if args.format == "json":
        return json_text({"relation": tag.value}), EXIT_OK
    return tag.value + "\n", EXIT_OK


def _cmd_meet(args, docs):
    from .order import meet

    a, b = _two_covers(docs)
    return _cover_out(meet(a, b), args), EXIT_OK


def _cmd_join(args, docs):
    from .order import join

    a, b = _two_covers(docs)
    result = join(a, b)
    if result is None:
        out = json_text({"join": None}) if args.format == "json" else "absent\n"
        return out, EXIT_OK
    return _cover_out(result, args), EXIT_OK


def _cmd_star(args, docs):
    from .star import star_closure

    return _cover_out(star_closure(_one_cover(docs)), args), EXIT_OK


def _cmd_class(args, docs):
    from .star import star_class

    sc = star_class(_one_cover(docs))
    if args.format == "json":
        return json_text(class_doc(sc)), EXIT_OK
    return (
        f"representative: {cover_text(sc.representative)}\n"
        f"closure: {cover_text(sc.closure)}\n"
    ), EXIT_OK


def _cmd_members(args, docs):
    from .star import class_members

    cover = _one_cover(docs)
    members = _sorted_covers(class_members(cover))
    if args.format == "json":
        return json_text(covers_doc(cover.universe, members)), EXIT_OK
    return "".join(cover_text(m) + "\n" for m in members), EXIT_OK


def _cmd_proceeds(args, docs):
    from .star import proceeds

    a, b = _two_covers(docs)
    result = proceeds(a, b)
    if args.format == "json":
        return json_text({"proceeds": result}), EXIT_OK
    return ("true" if result else "false") + "\n", EXIT_OK


def _cmd_enumerate(args, docs):
    from .enumeration import COUNT_LIMIT, COVER_ENUM_LIMIT, all_covers, cover_count

    if args.format == "json":
        universe = _universe_arg(docs, args, "cover enumeration", COVER_ENUM_LIMIT)
        return json_text(covers_doc(universe, list(all_covers(universe)))), EXIT_OK
    universe = _universe_arg(docs, args, "cover count", COUNT_LIMIT)
    return f"{cover_count(universe)}\n", EXIT_OK


def _cmd_classes(args, docs):
    from .enumeration import CLASS_COUNT_LIMIT, CLASS_ENUM_LIMIT, all_classes, class_count

    if args.format == "json":
        universe = _universe_arg(docs, args, "class enumeration", CLASS_ENUM_LIMIT)
        classes = sorted(all_classes(universe), key=lambda sc: sc.representative.canonical_key)
        return json_text(classes_doc(universe, classes)), EXIT_OK
    universe = _universe_arg(docs, args, "class count", CLASS_COUNT_LIMIT)
    return f"{class_count(universe)}\n", EXIT_OK


def _cmd_partitions(args, docs):
    from .enumeration import PARTITION_ENUM_LIMIT, all_partitions

    universe = _universe_arg(docs, args, "partition enumeration", PARTITION_ENUM_LIMIT)
    if args.format == "dot":
        from .star import partition_slice

        diagram = partition_slice(universe)
        return export_dot(diagram.nodes, diagram.edges, name="partitions"), EXIT_OK
    parts = all_partitions(universe)
    if args.format == "json":
        return json_text(covers_doc(universe, list(parts))), EXIT_OK
    return f"{len(parts)}\n", EXIT_OK


def _cmd_hasse(args, docs):
    from .enumeration import hasse_edges

    covers = _covers_in(docs)
    if not covers:
        raise UsageError("hasse needs cover inputs (a covers document or cover files)")
    edges = hasse_edges(covers, args.order)
    if args.format == "dot":
        return export_dot(covers, edges), EXIT_OK
    texts, node_ranks, pairs = ranked_diagram(covers, edges)
    if args.format == "json":
        doc = {
            "order": args.order,
            "nodes": [texts[i] for i in node_ranks],
            "edges": [[texts[i], texts[j]] for i, j in pairs],
        }
        return json_text(doc), EXIT_OK
    return "".join(f"{texts[i]} -> {texts[j]}\n" for i, j in pairs), EXIT_OK


def _cmd_solve(args, docs):
    from .planning import PlanningProblem, solvable

    problem = _pick(docs, PlanningProblem, "problem")
    cover = _one_cover(docs)
    ok = solvable(problem, cover)
    if args.format == "json":
        return json_text({"solvable": ok}), EXIT_OK if ok else EXIT_DOMAIN
    return ("solvable" if ok else "unsolvable") + "\n", EXIT_OK if ok else EXIT_DOMAIN


def _cmd_policy(args, docs):
    from .planning import PlanningProblem, extract_policy

    problem = _pick(docs, PlanningProblem, "problem")
    cover = _one_cover(docs)
    pol = extract_policy(problem, cover)
    if args.format == "json":
        return json_text(policy_doc(problem, pol)), EXIT_OK
    doc = policy_doc(problem, pol)
    return "".join(f"{b} -> {a}\n" for b, a in doc["actions"].items()), EXIT_OK


def _cmd_search_sensors(args, docs):
    from .planning import PlanningProblem, maximal_solvable_covers

    problem = _pick(docs, PlanningProblem, "problem")
    found = _sorted_covers(maximal_solvable_covers(problem))
    if args.format == "json":
        return json_text(covers_doc(problem.universe, found)), EXIT_OK
    return "".join(cover_text(c) + "\n" for c in found), EXIT_OK


def _cmd_stipulation(args, docs):
    from .stipulations import Stipulation, complies

    cover = _one_cover(docs)
    stip = _pick(docs, Stipulation, "stipulation")
    ok = complies(cover, stip)
    if args.format == "json":
        return json_text({"complies": ok}), EXIT_OK if ok else EXIT_DOMAIN
    return ("compliant" if ok else "non-compliant") + "\n", EXIT_OK if ok else EXIT_DOMAIN


def _cmd_class_report(args, docs):
    from .stipulations import Stipulation, class_compliance_report

    cover = _one_cover(docs)
    stip = _pick(docs, Stipulation, "stipulation")
    report = class_compliance_report(cover, stip)
    if args.format == "json":
        return json_text(class_report_doc(cover.universe, report)), EXIT_OK
    lines = [
        f"compliant: {len(report.compliant)}",
        f"non-compliant: {len(report.non_compliant)}",
    ]
    if report.witness is not None:
        lines.append(f"witness compliant: {cover_text(report.witness[0])}")
        lines.append(f"witness non-compliant: {cover_text(report.witness[1])}")
    return "".join(line + "\n" for line in lines), EXIT_OK


# The flags a subcommand may read beyond --input, --format and --out.
FLAGS = {
    "--max-n": dict(
        type=int, dest="max_n", metavar="INT",
        help="the universe size, features named 1..N, when no universe is input",
    ),
    # enumeration.ORDERS, which cli does not import at start-up.
    "--order": dict(choices=["proceeds", "star", "subsumption"], default="subsumption"),
}

PLAIN = ("json", "text")
DRAWN = ("json", "dot", "text")

# One row per subcommand: its handler, the --format values it renders and the
# FLAGS it reads.  A subcommand accepts no flag that it does not read.
COMMANDS = {
    "validate": (_cmd_validate, PLAIN, ()),
    "invert": (_cmd_invert, PLAIN, ()),
    "compare": (_cmd_compare, PLAIN, ()),
    "meet": (_cmd_meet, PLAIN, ()),
    "join": (_cmd_join, PLAIN, ()),
    "star": (_cmd_star, PLAIN, ()),
    "class": (_cmd_class, PLAIN, ()),
    "members": (_cmd_members, PLAIN, ()),
    "proceeds": (_cmd_proceeds, PLAIN, ()),
    "enumerate": (_cmd_enumerate, PLAIN, ("--max-n",)),
    "classes": (_cmd_classes, PLAIN, ("--max-n",)),
    "partitions": (_cmd_partitions, DRAWN, ("--max-n",)),
    "hasse": (_cmd_hasse, DRAWN, ("--order",)),
    "solve": (_cmd_solve, PLAIN, ()),
    "policy": (_cmd_policy, PLAIN, ()),
    "search-sensors": (_cmd_search_sensors, PLAIN, ()),
    "stipulation": (_cmd_stipulation, PLAIN, ()),
    "class-report": (_cmd_class_report, PLAIN, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cover-lattice",
        description="Sensor covers: subsumption semilattice, star quotient, belief planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Subcommands that render the same formats share their first three flags:
    # copying a parent's flags costs less than adding them again.
    shared = {}
    for name, (_, formats, flags) in COMMANDS.items():
        if formats not in shared:
            shared[formats] = common = argparse.ArgumentParser(add_help=False)
            common.add_argument(
                "--input", action="append", default=[], metavar="FILE",
                help="input document (repeatable)",
            )
            common.add_argument("--format", choices=formats, default="text")
            common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        cmd = sub.add_parser(name, parents=[shared[formats]])
        for flag in flags:
            cmd.add_argument(flag, **FLAGS[flag])
    return parser


def run_cli(argv: Sequence[str]) -> int:
    """Run one invocation; returns the exit status instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        docs = _load_inputs(args)
        text, status = COMMANDS[args.command][0](args, docs)
    except (UsageError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoverLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        if args.out:
            text.encode("utf-8")  # an unencodable label fails before the file is created
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
                return EXIT_USAGE
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except UnicodeEncodeError as exc:
        print(f"error: cannot encode output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a full disk or a closed pipe (BrokenPipeError)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))
