"""Canonical JSON documents, text renderings, and DOT export.

One JSON layout per value kind; serialization follows the canonical
pre-image order, so parse -> serialize -> parse is the identity and
repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .core import Cover, FeatureUniverse, SensorMap, preimage_key
from .errors import SchemaError

if TYPE_CHECKING:  # the parsers and serializers that need these layers import them
    from .planning import PlanningProblem, Policy
    from .star import StarClass
    from .stipulations import ComplianceReport, Stipulation

__all__ = [
    "belief_text",
    "class_doc",
    "class_report_doc",
    "classes_doc",
    "cover_text",
    "covers_doc",
    "export_dot",
    "json_text",
    "parse_document",
    "policy_doc",
    "ranked_diagram",
    "serialize_document",
]


def cover_text(c: Cover) -> str:
    """Canonical cover string: pre-images in braces, joined by pipes."""
    return str(c)


def belief_text(universe: FeatureUniverse, belief) -> str:
    """Canonical belief string, e.g. ``{1,3}``."""
    mask = belief if isinstance(belief, int) else universe.mask_of(belief)
    return "{%s}" % ",".join(universe.labels_of(mask))


def json_text(doc: Any) -> str:
    """Canonical JSON text: byte for byte ``json.dumps(doc, indent=2) + "\\n"``.

    With an indent, ``json.dumps`` runs the pure-Python encoder, which yields
    one chunk per token.  This renderer joins whole arrays and objects instead,
    encodes strings with the C string encoder, and renders each tuple of
    strings once per indentation depth: the label tuples of a cover listing
    repeat a few distinct pre-images thousands of times.  A value it does not
    special-case (a float, an object with a non-``str`` key, a subclass of
    ``str``, ``int``, ``list``, ``tuple`` or ``dict``, or a value ``json``
    cannot encode) goes to ``json.dumps`` itself, re-indented to its depth.
    """
    return _render(doc, 0, {}) + "\n"


_encode_str = json.encoder.encode_basestring_ascii


def _render(o: Any, depth: int, seen: dict) -> str:
    # ``seen`` maps (tuple of exact strs, depth) to its text.  Only such tuples
    # are stored, and a tuple equal to one of them renders the same.
    cls = type(o)
    if cls is str:
        return _encode_str(o)
    if cls is tuple:
        try:
            return seen[o, depth]
        except (KeyError, TypeError):  # new, or holds an unhashable value
            pass
        text = _render_array(o, depth, seen)
        if all(type(v) is str for v in o):
            seen[o, depth] = text
        return text
    if cls is list:
        return _render_array(o, depth, seen)
    if cls is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if cls is dict and all(type(k) is str for k in o):
        if not o:
            return "{}"
        inner = ",\n" + "  " * (depth + 1)
        parts = []
        for k, v in o.items():
            parts += (inner, _encode_str(k), ": ", _render(v, depth + 1, seen))
        parts[0] = "{\n" + "  " * (depth + 1)
        parts.append("\n" + "  " * depth + "}")
        return "".join(parts)
    return json.dumps(o, indent=2).replace("\n", "\n" + "  " * depth)


def _render_array(o: list | tuple, depth: int, seen: dict) -> str:
    if not o:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    items = [_render(v, depth + 1, seen) for v in o]
    # The brackets go on the end items, so a long array is copied only once.
    items[0] = "[" + inner + items[0]
    items[-1] += "\n" + "  " * depth + "]"
    return ("," + inner).join(items)


# ---------------------------------------------------------------------------
# parsing

def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _string_array(value, path: str) -> list[str]:
    _expect(isinstance(value, list), path, "expected an array")
    for i, v in enumerate(value):
        _expect(isinstance(v, str), f"{path}[{i}]", "expected a string")
    return value


def _universe_of(doc: dict, path: str = "$") -> FeatureUniverse:
    _expect("universe" in doc, path, "missing key: universe")
    return FeatureUniverse(_string_array(doc["universe"], f"{path}.universe"))


def _cover_body(universe: FeatureUniverse, arr, labels, path: str, known: dict) -> Cover:
    """The cover an array of label arrays names.

    ``known`` maps each subset already read, as a tuple of its labels, to its
    mask, so each distinct subset is checked and mapped once per document.  A
    subset's path is formatted only to report an error in it.
    """
    _expect(isinstance(arr, list), path, "expected an array")
    if labels is not None:
        _expect(isinstance(labels, list), "$.labels", "expected an array")
        _expect(len(labels) == len(arr), "$.labels", "labels must parallel the cover array")
        for i, lab in enumerate(labels):
            _expect(
                lab is None or isinstance(lab, str), f"$.labels[{i}]", "expected a string or null"
            )
    masks: set[int] = set()
    named: dict[int, str] = {}
    for i, subset in enumerate(arr):
        # Only a list may match: tuple("12") would equal the key of ["1", "2"].
        key = tuple(subset) if isinstance(subset, list) else None
        try:
            mask = known[key]
        except (KeyError, TypeError):  # new, not a list, or holds an unhashable value
            mask = known[key] = universe.mask_of(_string_array(subset, f"{path}[{i}]"))
        masks.add(mask)
        if labels is not None and labels[i] is not None:
            named.setdefault(mask, labels[i])
    return Cover(universe, masks, named)


def _parse_cover(doc: dict) -> Cover:
    universe = _universe_of(doc)
    return _cover_body(universe, doc["cover"], doc.get("labels"), "$.cover", {})


def _parse_cover_list(doc: dict) -> tuple[Cover, ...]:
    universe = _universe_of(doc)
    arr = doc["covers"]
    _expect(isinstance(arr, list), "$.covers", "expected an array")
    if "count" in doc:
        _expect(
            isinstance(doc["count"], int) and not isinstance(doc["count"], bool),
            "$.count",
            "expected an integer",
        )
    known: dict[tuple[str, ...], int] = {}
    return tuple(
        _cover_body(universe, body, None, f"$.covers[{i}]", known) for i, body in enumerate(arr)
    )


def _parse_sensor_map(doc: dict) -> SensorMap:
    universe = _universe_of(doc)
    readings = doc["readings"]
    _expect(isinstance(readings, dict), "$.readings", "expected an object")
    table = {}
    for label, features in readings.items():
        table[label] = _string_array(features, f"$.readings.{label}")
    return SensorMap(universe, table)


def _parse_problem(doc: dict) -> PlanningProblem:
    from .planning import make_problem

    states = _string_array(doc["states"], "$.states")
    universe = FeatureUniverse(states)
    _expect("actions" in doc, "$", "missing key: actions")
    actions = _string_array(doc["actions"], "$.actions")
    _expect("transition" in doc, "$", "missing key: transition")
    transition = doc["transition"]
    _expect(isinstance(transition, dict), "$.transition", "expected an object")
    for state, row in transition.items():
        _expect(state in states, f"$.transition.{state}", "unknown state")
        _expect(isinstance(row, dict), f"$.transition.{state}", "expected an object")
        for action, succs in row.items():
            _expect(action in actions, f"$.transition.{state}.{action}", "unknown action")
            _string_array(succs, f"$.transition.{state}.{action}")
    _expect("initial" in doc, "$", "missing key: initial")
    _expect("goal" in doc, "$", "missing key: goal")
    return make_problem(
        universe,
        actions,
        transition,
        _string_array(doc["initial"], "$.initial"),
        _string_array(doc["goal"], "$.goal"),
    )


def _parse_stipulation(doc: dict) -> Stipulation:
    from .stipulations import Stipulation

    sensitive = _string_array(doc["sensitive"], "$.sensitive")
    k = doc.get("max_resolution")
    if k is not None:
        _expect(
            isinstance(k, int) and not isinstance(k, bool),
            "$.max_resolution",
            "expected an integer",
        )
    return Stipulation(frozenset(sensitive), k)


# Each layout by the key that names it: its parser and the keys it may carry.
# A document may carry at most one of the naming keys, which are scanned in
# this order; a document with none of them but ``universe`` is a universe.
# A universe document also carries the keys of ``class_doc``, ``classes_doc``
# and ``class_report_doc`` below, so their output can name the universe of a
# later command.
_LAYOUTS = {
    "sensitive": (_parse_stipulation, frozenset({"sensitive", "max_resolution"})),
    "states": (
        _parse_problem, frozenset({"states", "actions", "transition", "initial", "goal"})
    ),
    "readings": (_parse_sensor_map, frozenset({"universe", "readings"})),
    "cover": (_parse_cover, frozenset({"universe", "cover", "labels"})),
    "covers": (_parse_cover_list, frozenset({"universe", "covers", "count"})),
    "universe": (
        _universe_of,
        frozenset(
            {"universe", "representative", "closure", "count", "classes", "compliant",
             "non_compliant", "witness"}
        ),
    ),
}


def parse_document(text: str):
    """Parse a JSON document into its domain value.

    Recognizes universe, cover, cover-list, sensor-map, planning-problem,
    and stipulation layouts.  Shape violations, including a document that
    names more than one layout or carries a key its layout does not know,
    raise ``SchemaError`` with a JSON path; semantic violations come from
    the value constructors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("$", "invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be a JSON object")
    keys = [k for k in _LAYOUTS if k != "universe" and k in doc]
    if len(keys) > 1:
        raise SchemaError("$", f"ambiguous document layout: keys {', '.join(keys)}")
    layout = keys[0] if keys else "universe"
    if layout not in doc:
        raise SchemaError("$", "unrecognized document layout")
    parse, allowed = _LAYOUTS[layout]
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"$.{key}", "unknown key")
    return parse(doc)


# ---------------------------------------------------------------------------
# serialization

def _cover_arrays(c: Cover) -> list[tuple[str, ...]]:
    # Label tuples, not fresh lists: shared by every cover of a universe of up
    # to 8 features, and rendered once per depth by ``json_text``.
    labels_of = c.universe.labels_of
    return [labels_of(m) for m in c.masks]


def _cover_doc(c: Cover) -> dict:
    doc: dict[str, Any] = {
        "universe": list(c.universe.labels),
        "cover": _cover_arrays(c),
    }
    if c.labels:
        doc["labels"] = [c.labels.get(m) for m in c.masks]
    return doc


def covers_doc(universe: FeatureUniverse, covers: Sequence[Cover]) -> dict:
    """Multi-cover document; also the layout emitted by enumeration commands."""
    labels_of = lru_cache(maxsize=None)(universe.labels_of)  # each distinct mask once
    return {
        "universe": list(universe.labels),
        "count": len(covers),
        "covers": [list(map(labels_of, c.masks)) for c in covers],
    }


def _class_body(sc: StarClass) -> dict:
    return {
        "representative": _cover_arrays(sc.representative),
        "closure": _cover_arrays(sc.closure),
    }


def class_doc(sc: StarClass) -> dict:
    """One star class; reads back as its universe."""
    return {"universe": list(sc.representative.universe.labels), **_class_body(sc)}


def classes_doc(universe: FeatureUniverse, classes: Sequence[StarClass]) -> dict:
    """The star classes of a universe; reads back as the universe."""
    return {
        "universe": list(universe.labels),
        "count": len(classes),
        "classes": [_class_body(sc) for sc in classes],
    }


def class_report_doc(universe: FeatureUniverse, report: ComplianceReport) -> dict:
    """A class's compliance split and mixed-class witness; reads back as its universe."""
    witness = report.witness
    return {
        "universe": list(universe.labels),
        "compliant": [_cover_arrays(m) for m in report.compliant],
        "non_compliant": [_cover_arrays(m) for m in report.non_compliant],
        "witness": None
        if witness is None
        else {"compliant": _cover_arrays(witness[0]), "non_compliant": _cover_arrays(witness[1])},
    }


def _problem_doc(p: PlanningProblem) -> dict:
    labels_of = p.universe.labels_of
    return {
        "states": list(p.universe.labels),
        "actions": list(p.actions),
        "transition": {
            state: {
                action: list(labels_of(p.transitions[ai][si]))
                for ai, action in enumerate(p.actions)
            }
            for si, state in enumerate(p.universe.labels)
        },
        "initial": list(labels_of(p.initial)),
        "goal": list(labels_of(p.goal)),
    }


def _stipulation_doc(s: Stipulation) -> dict:
    doc: dict[str, Any] = {"sensitive": sorted(s.sensitive)}
    if s.max_resolution is not None:
        doc["max_resolution"] = s.max_resolution
    return doc


def _sensor_map_doc(m: SensorMap) -> dict:
    return {
        "universe": list(m.universe.labels),
        "readings": {
            label: list(m.universe.labels_of(mask)) for label, mask in m.readings.items()
        },
    }


def policy_doc(p: PlanningProblem, pol: Policy) -> dict:
    """JSON form of a policy, keyed by canonical belief strings in ``preimage_key`` order."""
    universe = p.universe

    def ordered(beliefs):
        by_mask = {universe.mask_of(b): v for b, v in beliefs.items()}
        return {belief_text(universe, m): by_mask[m] for m in sorted(by_mask, key=preimage_key)}

    return {"actions": ordered(pol.action_of), "ranks": ordered(pol.rank_of)}


def serialize_document(value) -> str:
    """Canonical JSON text for any interchange value."""
    if isinstance(value, Cover):
        doc = _cover_doc(value)
    elif isinstance(value, FeatureUniverse):
        doc = {"universe": list(value.labels)}
    elif isinstance(value, SensorMap):
        doc = _sensor_map_doc(value)
    elif isinstance(value, (tuple, list)):
        if not value:
            raise ValueError("cannot serialize an empty cover sequence without a universe")
        doc = covers_doc(value[0].universe, list(value))
    else:
        from .planning import PlanningProblem
        from .stipulations import Stipulation

        if isinstance(value, PlanningProblem):
            doc = _problem_doc(value)
        elif isinstance(value, Stipulation):
            doc = _stipulation_doc(value)
        else:
            raise TypeError(f"cannot serialize values of type {type(value).__name__}")
    return json_text(doc)


# ---------------------------------------------------------------------------
# diagrams and DOT export

def ranked_diagram(
    nodes: Iterable[Cover], edges: Iterable[tuple[Cover, Cover]]
) -> tuple[list[str], list[int], list[tuple[int, int]]]:
    """A diagram in output order: cover texts, node ranks and edge rank pairs.

    Every cover, an edge end outside ``nodes`` included, is sorted once by
    ``canonical_key`` and rendered once; its rank is its place in that
    order.  ``nodes`` come as ascending ranks without repeats, and edges as
    sorted pairs of the ranks of their ends, so no cover key is compared
    per edge.
    """
    nodes, edges = dict.fromkeys(nodes), set(edges)
    ordered = sorted({*nodes, *(c for e in edges for c in e)}, key=lambda c: c.canonical_key)
    rank = {c: i for i, c in enumerate(ordered)}
    node_ranks = [i for i, c in enumerate(ordered) if c in nodes]
    return list(map(cover_text, ordered)), node_ranks, sorted((rank[a], rank[b]) for a, b in edges)


def export_dot(
    nodes: Iterable[Cover],
    edges: Iterable[tuple[Cover, Cover]],
    *,
    name: str = "covers",
) -> str:
    """Deterministic DOT digraph; higher diagram elements are emitted first.

    Node identifiers are canonical cover strings such as ``{1,2}|{2,3}``.
    """
    texts, node_ranks, pairs = ranked_diagram(nodes, edges)
    quoted = ['"%s"' % t.replace("\\", "\\\\").replace('"', '\\"') for t in texts]
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    lines += [f"  {quoted[i]};" for i in node_ranks]
    lines += [f"  {quoted[i]} -> {quoted[j]};" for i, j in pairs]
    lines.append("}\n")
    return "\n".join(lines)
