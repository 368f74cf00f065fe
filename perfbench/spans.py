"""Span tracing of ``cover_lattice`` from outside the package.

``install`` wraps the public functions of each module (plus the ``Cover``
constructors, the ``_post_list`` cache and the ranking kernel) at every
binding site found in the package's modules, including module-level dicts
such as ``enumeration.ORDERS``.  Each call becomes a span (name, start,
end, parent, op id) kept in flat arrays; self and inclusive times per name
are accumulated as spans close, and a few counters are read off arguments
and results at the same boundaries.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Span name -> layer, where it is not the module.  A name is "<module>.<qualname>".
SPECIAL_LAYERS = {
    "formats.parse_document": "formats.parse",
    "planning._post_list": "planning.post",
    "_kernel.rank_table": "kernel",
    "cli.run_cli": "cli.run",
}
CORE_BUILDS = ("core.Cover.__init__", "core.Cover._from_canonical")
RELATIONS = ("order.subsumes", "star.star_subsumes", "star.proceeds")


def layer_of(name: str) -> str:
    if name in SPECIAL_LAYERS:
        return SPECIAL_LAYERS[name]
    module = name.split(".", 1)[0]
    return "formats.render" if module == "formats" else module


class Tracer:
    """In-memory span store with running self/inclusive time per span name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[list] = []  # [span index, name id, time covered by children]
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.counters: Counter = Counter()
        self.class_keys: set = set()
        self.solvable_initial = None

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return i

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append([idx, nid, 0.0])
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        _, nid, covered = self._stack.pop()
        d = t - self.start[idx]
        self.calls[nid] += 1
        self.incl[nid] += d
        self.self_s[nid] += d - covered
        if self._stack:
            self._stack[-1][2] += d

    def record(self, name: str, start: float, end: float) -> None:
        """A root span measured by the caller, such as an import before wrapping."""
        nid = self.nid(name)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.op.append(self.op_id)
        self.calls[nid] += 1
        self.incl[nid] += end - start
        self.self_s[nid] += end - start

    # -- aggregation across processes -------------------------------------

    def summary(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "incl": self.incl,
            "self": self.self_s,
            "counters": dict(self.counters),
            "classes": len(self.class_keys),
        }

    def merge(self, other: dict, op_id: int, parent_idx: int, spans: dict | None) -> None:
        """Fold a child process's summary (and spans) into this tracer."""
        remap = [self.nid(n) for n in other["names"]]
        for i, j in enumerate(remap):
            self.calls[j] += other["calls"][i]
            self.incl[j] += other["incl"][i]
            self.self_s[j] += other["self"][i]
        self.counters.update(other["counters"])
        self.counters["kernel.classes"] += other["classes"]
        if spans is None:
            return
        base = len(self.start)
        self.name.extend(remap[k] for k in spans["name"])
        self.start.extend(spans["start"])
        self.end.extend(spans["end"])
        self.parent.extend(parent_idx if p < 0 else p + base for p in spans["parent"])
        self.op.extend([op_id] * len(spans["name"]))

    def dump(self, path: str, header: dict) -> None:
        """Write every span: one JSON header line, then the raw arrays in header order."""
        head = dict(header, names=self.names, count=len(self.start),
                    arrays=[["name", "H"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op", "i"]])
        with open(path, "wb") as fh:
            fh.write((json.dumps(head) + "\n").encode())
            for field, _ in head["arrays"]:
                getattr(self, field).tofile(fh)


def load_spans(path: str) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        spans = {}
        for field, code in head["arrays"]:
            arr = array(code)
            arr.fromfile(fh, head["count"])
            spans[field] = arr
    return head, spans


# ---------------------------------------------------------------------------
# wrapping


def _wrap_call(fn, name: str, tracer: Tracer, before=None, after=None):
    nid = tracer.nid(name)
    open_, close = tracer.open, tracer.close

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _wrap_gen(fn, name: str, tracer: Tracer, counter: str | None):
    """One span per ``next``: a generator's work happens while it is resumed."""
    nid = tracer.nid(name)
    open_, close, counters = tracer.open, tracer.close, tracer.counters

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = open_(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                close(idx)
            if counter is not None:
                counters[counter] += 1
            yield item

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def _str_bytes(s) -> int:
    if not isinstance(s, str):
        return 0
    return len(s) if s.isascii() else len(s.encode("utf-8"))


# Helpers exported by ``core`` that run per mask; wrapping them would time the tracer.
CORE_TARGETS = ("make_universe", "make_cover", "invert_sensor_map")


def _hooks(tracer: Tracer, mods: dict) -> dict:
    """Span name -> (before(args), after(args, result)) counter hooks."""
    c = tracer.counters

    def init_after(args, result):
        c["core.preimages"] += len(args[0].masks)

    def canonical_after(args, result):
        c["core.preimages"] += len(result.masks)

    def classes_after(args, result):
        c["enumeration.classes"] += len(result)

    def members_after(args, result):
        c["star.members"] += len(result)

    def closure_before(args):
        if getattr(args[0], "_closure", None) is not None:
            c["star.closure_hits"] += 1

    def parse_before(args):
        c["formats.parse_bytes"] += _str_bytes(args[0])

    def render_after(args, result):
        parent = tracer.parent_name()
        if parent is None or layer_of(parent) != "formats.render":
            c["formats.render_bytes"] += _str_bytes(result)

    def solvable_before(args):
        tracer.solvable_initial = args[0].initial

    def relation_before(args):
        if tracer.parent_name() == "enumeration.hasse_edges":
            c["enumeration.hasse_pairs"] += 1

    hooks = {
        "core.Cover.__init__": (None, init_after),
        "core.Cover._from_canonical": (None, canonical_after),
        "enumeration.all_classes": (None, classes_after),
        "star.class_members": (None, members_after),
        "star.star_closure": (closure_before, None),
        "formats.parse_document": (parse_before, None),
        "planning.solvable": (solvable_before, None),
        "_kernel.rank_table": (None, _kernel_after(tracer, mods)),
    }
    for rel in RELATIONS:
        hooks[rel] = (relation_before, None)
    formats = mods.get("formats")
    for attr in getattr(formats, "__all__", ()):
        if attr != "parse_document":
            hooks[f"formats.{attr}"] = (None, render_after)
    return hooks


def _targets(mods: dict) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, original) for every function to wrap."""
    out = []
    for mname, mod in mods.items():
        if mod is None:
            continue
        if mname == "core":
            names = CORE_TARGETS
        elif mname == "_kernel":
            names = ("rank_table",)
        elif mname == "cli":
            names = ("run_cli",)
        elif mname == "planning":
            names = (*getattr(mod, "__all__", ()), "_post_list")
        else:
            names = getattr(mod, "__all__", ())
        for attr in names:
            fn = getattr(mod, attr, None)
            if fn is not None and callable(fn) and not inspect.isclass(fn):
                out.append((mod, attr, f"{mname}.{attr}", fn))
    core = mods.get("core")
    cover = getattr(core, "Cover", None)
    for attr in ("__init__", "_from_canonical", "from_masks"):
        raw = vars(cover).get(attr) if cover is not None else None
        if raw is not None:
            out.append((cover, attr, f"core.Cover.{attr}", raw))
    return out


def install(tracer: Tracer, pkg) -> None:
    """Wrap the package's layer functions at every binding site inside the package."""
    mods = {name: sys.modules.get(f"{pkg.__name__}.{name}") for name in
            ("core", "enumeration", "order", "star", "planning", "_kernel", "stipulations", "formats", "cli")}
    hooks = _hooks(tracer, mods)
    replaced: dict[int, object] = {}
    for owner, attr, name, fn in _targets(mods):
        before, after = hooks.get(name, (None, None))
        if isinstance(fn, classmethod):
            wrapped = classmethod(_wrap_call(fn.__func__, name, tracer, before, after))
        elif inspect.isgeneratorfunction(fn):
            counter = "enumeration.covers_yielded" if name == "enumeration.iter_covers" else None
            wrapped = _wrap_gen(fn, name, tracer, counter)
        else:
            wrapped = _wrap_call(fn, name, tracer, before, after)
        replaced[id(fn)] = wrapped
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == pkg.__name__ or key.startswith(pkg.__name__ + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            w = replaced.get(id(val))
            if w is not None:
                setattr(mod, attr, w)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    w = replaced.get(id(v))
                    if w is not None:
                        val[k] = w


def _twin_kernel(kmod):
    """The ranking kernel that did not load, when it can be imported too."""
    other = {"compiled": "_fixpoint_py", "pure": "_fixpoint"}.get(getattr(kmod, "BACKEND", None))
    if other is None:
        return None
    try:
        return importlib.import_module(f"{kmod.__name__.rsplit('.', 1)[0]}.{other}").rank_table
    except (ImportError, AttributeError):
        return None


def _kernel_after(tracer: Tracer, mods: dict):
    """Sweeps, cells, sweeps past the answer, star-class keys and the twin-table check."""
    counters = tracer.counters
    subsets: dict[int, int] = {}
    twin = _twin_kernel(mods.get("_kernel"))
    twin_nid = tracer.nid("bench.twin_kernel")

    def downset(m: int) -> int:
        d = subsets.get(m)
        if d is None:
            d = 0
            s = m
            while s:
                d |= 1 << s
                s = (s - 1) & m
            subsets[m] = d
        return d

    def after(args, ranks):
        n, goal, masks, acount, post = args[:5]
        top = max(ranks)
        counters["kernel.sweeps"] += top + 1
        counters["kernel.cells"] += (top + 1) << n
        if tracer.parent_name() == "planning.solvable" and tracer.solvable_initial is not None:
            r0 = ranks[tracer.solvable_initial]
            if r0 >= 0:
                counters["kernel.sweeps_after_answer"] += top - r0
        key = 0
        for m in masks:
            key |= downset(m)
        tracer.class_keys.add((tracer.op_id, n, key))
        if twin is not None:
            idx = tracer.open(twin_nid)
            try:
                other = list(twin(n, goal, list(masks), acount, post))
            finally:
                tracer.close(idx)
            counters["kernel.twin_checked"] += 1
            if other != list(ranks):
                counters["kernel.twin_mismatches"] += 1

    return after


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Per-layer metric values of a traced pass, by the names in LAYER_UNITS."""
    calls = Counter()
    self_s = Counter()
    incl = Counter()
    by_layer_self = Counter()
    by_layer_calls = Counter()
    for i, name in enumerate(tracer.names):
        calls[name] += tracer.calls[i]
        self_s[name] += tracer.self_s[i]
        incl[name] += tracer.incl[i]
        by_layer_self[layer_of(name)] += tracer.self_s[i]
        by_layer_calls[layer_of(name)] += tracer.calls[i]
    c = tracer.counters
    kcalls = calls["_kernel.rank_table"]
    kernel_s = self_s["_kernel.rank_table"]
    closures = calls["star.star_closure"]
    post_hits, post_misses = c["planning.post_hits"], c["planning.post_misses"]
    classes = len(tracer.class_keys) + c["kernel.classes"]
    return {
        "import.s": incl["import"],
        "cli.spawn_s": float(c["cli.spawn_s"]),
        "cli.run_s": by_layer_self["cli.run"],
        "formats.parse_s": by_layer_self["formats.parse"],
        "formats.parse_bytes": c["formats.parse_bytes"],
        "formats.render_s": by_layer_self["formats.render"],
        "formats.render_bytes": c["formats.render_bytes"],
        "core.covers_built": sum(calls[n] for n in CORE_BUILDS),
        "core.preimages_built": c["core.preimages"],
        "core.build_s": by_layer_self["core"],
        "enumeration.s": by_layer_self["enumeration"],
        "enumeration.covers_yielded": c["enumeration.covers_yielded"],
        "enumeration.classes_built": c["enumeration.classes"],
        "enumeration.hasse_pairs": c["enumeration.hasse_pairs"],
        "order.s": by_layer_self["order"],
        "order.calls": by_layer_calls["order"],
        "star.s": by_layer_self["star"],
        "star.closures": closures,
        "star.closure_cache_hit_ratio": c["star.closure_hits"] / closures if closures else 0.0,
        "star.members_built": c["star.members"],
        "planning.s": by_layer_self["planning"],
        "planning.solvable_calls": calls["planning.solvable"],
        "planning.policy_s": incl["planning.extract_policy"],
        "planning.verify_s": incl["planning.verify_policy"],
        "planning.post_s": by_layer_self["planning.post"],
        "planning.post_misses": post_misses,
        "planning.post_hit_ratio": post_hits / (post_hits + post_misses) if post_hits + post_misses else 0.0,
        "planning.distinct_class_ratio": classes / kcalls if kcalls else 0.0,
        "kernel.calls": kcalls,
        "kernel.s": kernel_s,
        "kernel.us_per_call": kernel_s / kcalls * 1e6 if kcalls else 0.0,
        "kernel.sweeps": c["kernel.sweeps"],
        "kernel.cells": c["kernel.cells"],
        "kernel.sweeps_after_answer": c["kernel.sweeps_after_answer"],
        "kernel.twin_checked": c["kernel.twin_checked"],
        "kernel.twin_mismatches": c["kernel.twin_mismatches"],
        "stipulations.s": by_layer_self["stipulations"],
        "stipulations.checks": calls["stipulations.complies"],
        "trace.overhead_s": overhead_s,
    }


LAYER_UNITS = {
    "import.s": "s", "cli.spawn_s": "s", "cli.run_s": "s",
    "formats.parse_s": "s", "formats.parse_bytes": "B", "formats.render_s": "s", "formats.render_bytes": "B",
    "core.covers_built": "count", "core.preimages_built": "count", "core.build_s": "s",
    "enumeration.s": "s", "enumeration.covers_yielded": "count", "enumeration.classes_built": "count",
    "enumeration.hasse_pairs": "count",
    "order.s": "s", "order.calls": "count",
    "star.s": "s", "star.closures": "count", "star.closure_cache_hit_ratio": "ratio", "star.members_built": "count",
    "planning.s": "s", "planning.solvable_calls": "count", "planning.policy_s": "s", "planning.verify_s": "s",
    "planning.post_s": "s", "planning.post_misses": "count", "planning.post_hit_ratio": "ratio",
    "planning.distinct_class_ratio": "ratio",
    "kernel.calls": "count", "kernel.s": "s", "kernel.us_per_call": "us", "kernel.sweeps": "count",
    "kernel.cells": "count", "kernel.sweeps_after_answer": "count",
    "kernel.twin_checked": "count", "kernel.twin_mismatches": "count",
    "stipulations.s": "s", "stipulations.checks": "count",
    "trace.overhead_s": "s",
}
