"""Command-line interface exposing every operation.

Exit status: 0 on success, 1 on domain errors (invalid value, unsolvable
goal, failed stipulation, exceeded bound), 2 on usage or document-shape
errors.  All output is deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .core import Cover, FeatureUniverse, SensorMap, invert_sensor_map, make_universe
from .enumeration import (
    all_classes,
    all_covers,
    all_partitions,
    class_count,
    cover_count,
    hasse_edges,
)
from .errors import CoverLatticeError, SchemaError
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
    serialize_document,
)
from .order import compare, join, meet
from .planning import PlanningProblem, extract_policy, maximal_solvable_covers, solvable
from .star import partition_slice, proceeds, star_class
from .stipulations import Stipulation, class_compliance_report, complies

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

SUBCOMMANDS = (
    "validate",
    "invert",
    "compare",
    "meet",
    "join",
    "star",
    "class",
    "members",
    "proceeds",
    "enumerate",
    "classes",
    "partitions",
    "hasse",
    "solve",
    "policy",
    "search-sensors",
    "stipulation",
    "class-report",
)


class UsageError(Exception):
    """Bad invocation: wrong input kinds, unsupported format, unreadable file."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input", action="append", default=[], metavar="FILE", help="input document (repeatable)"
    )
    common.add_argument("--format", choices=["json", "dot", "text"], default="text")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    common.add_argument(
        "--max-n", type=int, dest="max_n", metavar="INT",
        help="universe size for enumeration commands; also lifts the size guards",
    )
    common.add_argument(
        "--order", choices=["subsumption", "star", "proceeds"], default="subsumption"
    )
    parser = argparse.ArgumentParser(
        prog="cover-lattice",
        description="Sensor covers: subsumption semilattice, star quotient, belief planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _effective_max_n(args) -> int | None:
    if args.max_n is not None:
        return args.max_n
    env = os.environ.get("COVER_LATTICE_MAX_N")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"COVER_LATTICE_MAX_N must be an integer, got {env!r}") from None
    return None


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


def _universe_arg(docs, args) -> FeatureUniverse:
    for d in docs:
        if isinstance(d, FeatureUniverse):
            return d
    n = _effective_max_n(args)
    if n is None:
        raise UsageError("provide a universe input or --max-n N")
    if n < 1:
        raise UsageError("--max-n must be at least 1")
    return make_universe([str(i + 1) for i in range(n)])


def _no_dot(args) -> None:
    if args.format == "dot":
        raise UsageError("--format dot is only supported by 'hasse' and 'partitions'")


def _cover_out(c: Cover, args) -> str:
    return serialize_document(c) if args.format == "json" else cover_text(c) + "\n"


def _sorted_covers(covers) -> list[Cover]:
    return sorted(covers, key=lambda c: c.canonical_key)


DOC_KINDS = (
    (Cover, "cover"),
    (FeatureUniverse, "universe"),
    (PlanningProblem, "problem"),
    (Stipulation, "stipulation"),
    (SensorMap, "sensor-map"),
    (tuple, "covers"),
)


def _kind_name(doc) -> str:
    for kind, name in DOC_KINDS:
        if isinstance(doc, kind):
            return name
    return type(doc).__name__


def _cmd_validate(args, docs):
    _no_dot(args)
    if not docs:
        raise UsageError("validate needs at least one --input FILE")
    kinds = [_kind_name(d) for d in docs]
    if args.format == "json":
        return json_text({"results": [{"kind": k} for k in kinds]}), EXIT_OK
    return "".join(f"ok: {k}\n" for k in kinds), EXIT_OK


def _cmd_invert(args, docs):
    _no_dot(args)
    sensor = _pick(docs, SensorMap, "sensor-map")
    return _cover_out(invert_sensor_map(sensor), args), EXIT_OK


def _cmd_compare(args, docs):
    _no_dot(args)
    a, b = _two_covers(docs)
    tag = compare(a, b)
    if args.format == "json":
        return json_text({"relation": tag.value}), EXIT_OK
    return tag.value + "\n", EXIT_OK


def _cmd_meet(args, docs):
    _no_dot(args)
    a, b = _two_covers(docs)
    return _cover_out(meet(a, b), args), EXIT_OK


def _cmd_join(args, docs):
    _no_dot(args)
    a, b = _two_covers(docs)
    result = join(a, b)
    if result is None:
        out = json_text({"join": None}) if args.format == "json" else "absent\n"
        return out, EXIT_OK
    return _cover_out(result, args), EXIT_OK


def _cmd_star(args, docs):
    _no_dot(args)
    from .star import star_closure

    return _cover_out(star_closure(_one_cover(docs)), args), EXIT_OK


def _cmd_class(args, docs):
    _no_dot(args)
    sc = star_class(_one_cover(docs))
    if args.format == "json":
        return json_text(class_doc(sc)), EXIT_OK
    return (
        f"representative: {cover_text(sc.representative)}\n"
        f"closure: {cover_text(sc.closure)}\n"
    ), EXIT_OK


def _cmd_members(args, docs):
    _no_dot(args)
    from .star import class_members

    cover = _one_cover(docs)
    members = _sorted_covers(class_members(cover))
    if args.format == "json":
        return json_text(covers_doc(cover.universe, members)), EXIT_OK
    return "".join(cover_text(m) + "\n" for m in members), EXIT_OK


def _cmd_proceeds(args, docs):
    _no_dot(args)
    a, b = _two_covers(docs)
    result = proceeds(a, b)
    if args.format == "json":
        return json_text({"proceeds": result}), EXIT_OK
    return ("true" if result else "false") + "\n", EXIT_OK


def _cmd_enumerate(args, docs):
    _no_dot(args)
    universe = _universe_arg(docs, args)
    limit = _effective_max_n(args)
    if args.format == "json":
        return json_text(covers_doc(universe, list(all_covers(universe, limit=limit)))), EXIT_OK
    return f"{cover_count(universe, limit=limit)}\n", EXIT_OK


def _cmd_classes(args, docs):
    _no_dot(args)
    universe = _universe_arg(docs, args)
    limit = _effective_max_n(args)
    if args.format == "json":
        classes = sorted(
            all_classes(universe, limit=limit), key=lambda sc: sc.representative.canonical_key
        )
        return json_text(classes_doc(universe, classes)), EXIT_OK
    return f"{class_count(universe, limit=limit)}\n", EXIT_OK


def _cmd_partitions(args, docs):
    universe = _universe_arg(docs, args)
    limit = _effective_max_n(args)
    if args.format == "dot":
        diagram = partition_slice(universe, limit=limit)
        return export_dot(diagram.nodes, diagram.edges, name="partitions"), EXIT_OK
    parts = all_partitions(universe, limit=limit)
    if args.format == "json":
        return json_text(covers_doc(universe, list(parts))), EXIT_OK
    return f"{len(parts)}\n", EXIT_OK


def _cmd_hasse(args, docs):
    covers = _covers_in(docs)
    if not covers:
        raise UsageError("hasse needs cover inputs (a covers document or cover files)")
    edges = hasse_edges(covers, args.order)
    if args.format == "dot":
        return export_dot(covers, edges), EXIT_OK
    ordered = sorted(edges, key=lambda e: (e[0].canonical_key, e[1].canonical_key))
    if args.format == "json":
        doc = {
            "order": args.order,
            "nodes": [cover_text(c) for c in _sorted_covers(covers)],
            "edges": [[cover_text(a), cover_text(b)] for a, b in ordered],
        }
        return json_text(doc), EXIT_OK
    return "".join(f"{cover_text(a)} -> {cover_text(b)}\n" for a, b in ordered), EXIT_OK


def _cmd_solve(args, docs):
    _no_dot(args)
    problem = _pick(docs, PlanningProblem, "problem")
    cover = _one_cover(docs)
    ok = solvable(problem, cover)
    if args.format == "json":
        return json_text({"solvable": ok}), EXIT_OK if ok else EXIT_DOMAIN
    return ("solvable" if ok else "unsolvable") + "\n", EXIT_OK if ok else EXIT_DOMAIN


def _cmd_policy(args, docs):
    _no_dot(args)
    problem = _pick(docs, PlanningProblem, "problem")
    cover = _one_cover(docs)
    pol = extract_policy(problem, cover)
    if args.format == "json":
        return json_text(policy_doc(problem, pol)), EXIT_OK
    doc = policy_doc(problem, pol)
    return "".join(f"{b} -> {a}\n" for b, a in doc["actions"].items()), EXIT_OK


def _cmd_search_sensors(args, docs):
    _no_dot(args)
    problem = _pick(docs, PlanningProblem, "problem")
    found = _sorted_covers(
        maximal_solvable_covers(problem, limit=_effective_max_n(args))
    )
    if args.format == "json":
        return json_text(covers_doc(problem.universe, found)), EXIT_OK
    return "".join(cover_text(c) + "\n" for c in found), EXIT_OK


def _cmd_stipulation(args, docs):
    _no_dot(args)
    cover = _one_cover(docs)
    stip = _pick(docs, Stipulation, "stipulation")
    ok = complies(cover, stip)
    if args.format == "json":
        return json_text({"complies": ok}), EXIT_OK if ok else EXIT_DOMAIN
    return ("compliant" if ok else "non-compliant") + "\n", EXIT_OK if ok else EXIT_DOMAIN


def _cmd_class_report(args, docs):
    _no_dot(args)
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


_HANDLERS = {
    "validate": _cmd_validate,
    "invert": _cmd_invert,
    "compare": _cmd_compare,
    "meet": _cmd_meet,
    "join": _cmd_join,
    "star": _cmd_star,
    "class": _cmd_class,
    "members": _cmd_members,
    "proceeds": _cmd_proceeds,
    "enumerate": _cmd_enumerate,
    "classes": _cmd_classes,
    "partitions": _cmd_partitions,
    "hasse": _cmd_hasse,
    "solve": _cmd_solve,
    "policy": _cmd_policy,
    "search-sensors": _cmd_search_sensors,
    "stipulation": _cmd_stipulation,
    "class-report": _cmd_class_report,
}


def run_cli(argv: Sequence[str]) -> int:
    """Run one invocation; returns the exit status instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        docs = _load_inputs(args)
        text, status = _HANDLERS[args.command](args, docs)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
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
