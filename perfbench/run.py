#!/usr/bin/env python3
"""Layered benchmark of cover_lattice: seeded closed-loop workloads with oracle checks.

Run from the root of a checkout (the directory holding ``src/cover_lattice``):

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import spans
import workloads as W

PKG = "cover_lattice"
WORKLOADS = ("search", "plan", "cli")
# Before every pass, set-up runs SETUP_MIN times and until SETUP_SECONDS have passed, at most
# SETUP_MAX times; spread over the run, its samples see the same host load as the op samples.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 2, 10, 0.5
MIN_PASSES = 2
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def fresh_import():
    """Import the package from scratch, so every set-up pays the same import."""
    for name in [k for k in sys.modules if k == PKG or k.startswith(PKG + ".")]:
        del sys.modules[name]
    return importlib.import_module(PKG)


class InProcess:
    """The ``search`` and ``plan`` workloads: ops call the package in this process."""

    def __init__(self, name: str, root: str, seed: int, size: str):
        self.name, self.root, self.seed, self.size = name, root, seed, size
        self.work = os.path.join(root, ".perfbench")
        self.post_base = None

    def prepare(self) -> None:
        """The benchmark's side, untimed: seeded inputs and the oracle's expectations."""
        make = W.search_inputs if self.name == "search" else W.plan_inputs
        self.inputs = make(random.Random(self.seed), self.size)

    def setup(self, tracer: spans.Tracer | None = None) -> float:
        """The program's side: import, building its objects and cache warm-up; returns its duration."""
        t0 = perf_counter()
        self.cl = fresh_import()
        if tracer is not None:
            tracer.record("import", t0, perf_counter())
        self.ops = (W.search_ops if self.name == "search" else W.plan_ops)(self.cl, self.inputs)
        W.warm_inprocess(self.cl, self.ops)
        return perf_counter() - t0

    def timed(self, op):
        """Run one op; returns its result and its duration."""
        t0 = perf_counter()
        result = op.run()
        return result, perf_counter() - t0

    timed_traced = timed

    def judge(self, index: int, op, result) -> str | None:
        return check_op(op, result)

    def install(self, tracer: spans.Tracer) -> None:
        self.post = getattr(self.cl.planning, "_post_list", None)
        if hasattr(self.post, "cache_info"):
            self.post_base = self.post.cache_info()
        spans.install(tracer, self.cl)

    def after_traced(self, tracer: spans.Tracer, op_index: int, span_index: int, dt: float) -> None:
        pass

    def finish(self, tracer: spans.Tracer) -> None:
        if self.post_base is not None:
            info = self.post.cache_info()
            tracer.counters["planning.post_hits"] += info.hits - self.post_base.hits
            tracer.counters["planning.post_misses"] += info.misses - self.post_base.misses

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class Cli(InProcess):
    """The ``cli`` workload: one ``python -m cover_lattice`` child per op, one at a time."""

    def prepare(self) -> None:
        """Start the launcher while this process is small, then write documents and expectations."""
        self.env = W.child_env(self.root)
        self.launcher = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.root)
        self.maxrss_kb = 0
        workdir = os.path.join(self.work, "cli")
        shutil.rmtree(workdir, ignore_errors=True)
        self.ops = W.build_cli(random.Random(self.seed), self.size, workdir)
        self.warm = W.CliDocs(os.path.join(self.work, "warm")).write({"universe": ["1"]})
        self.verdicts: dict = {}

    def judge(self, index: int, op, result) -> str | None:
        """An op's output repeats across passes; each distinct one is checked once."""
        key = (index, result)
        if key not in self.verdicts:
            self.verdicts[key] = check_op(op, result)
        return self.verdicts[key]

    def setup(self, tracer: spans.Tracer | None = None) -> float:
        """One warm-up child (the first also compiles the byte code); returns its duration."""
        return self.launch(W.cli_command(["validate", "--input", self.warm]))[1]

    def launch(self, argv: list[str]):
        """Run one program process through the launcher; returns (rc, stdout, stderr) and its duration."""
        out, err = (os.path.join(self.work, "cli", f"child.{name}") for name in ("out", "err"))
        self.launcher.stdin.write(json.dumps({"argv": argv, "out": out, "err": err}) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.maxrss_kb = reply["maxrss_kb"]
        with open(out, encoding="utf-8", errors="replace", newline="") as fo, \
                open(err, encoding="utf-8", errors="replace", newline="") as fe:
            return (reply["rc"], fo.read(), fe.read()), reply["dt"]

    def timed(self, op):
        return self.launch(W.cli_command(op.argv))

    def install(self, tracer: spans.Tracer) -> None:
        os.makedirs(os.path.join(self.work, "spans"), exist_ok=True)
        self.span_path = os.path.join(self.work, "spans", "child.bin")

    def timed_traced(self, op):
        return self.launch([sys.executable, CHILD, self.span_path, *op.argv])

    def after_traced(self, tracer: spans.Tracer, op_index: int, span_index: int, dt: float) -> None:
        """Merge the child's spans under the op's span; the rest of its wall time is spawn."""
        try:
            head, arrays = spans.load_spans(self.span_path)
            with open(self.span_path + ".times", encoding="utf-8") as fh:
                times = json.load(fh)
        except (OSError, ValueError):
            return  # the child died before writing; the op's check reports it
        tracer.merge(head["summary"], op_index, span_index, arrays)
        tracer.counters["cli.spawn_s"] += dt - (times["t_end"] - times["t_start"])
        os.remove(self.span_path)
        os.remove(self.span_path + ".times")

    def finish(self, tracer: spans.Tracer) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """The largest program process, as the launcher saw it."""
        return self.maxrss_kb / 1024.0

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()


def make_context(name: str, root: str, seed: int, size: str):
    return (Cli if name == "cli" else InProcess)(name, root, seed, size)


def check_op(op, result) -> str | None:
    try:
        return op.check(result)
    except Exception as exc:  # a malformed answer must count as failed, not stop the run
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(ctx, tracer: spans.Tracer | None = None):
    """Run every op once in order (closed loop, one client); returns op times and failures."""
    timed = ctx.timed if tracer is None else ctx.timed_traced
    times, fails = [], []
    for i, op in enumerate(ctx.ops):
        if tracer is not None:
            tracer.op_id = i
            idx = tracer.open(tracer.nid("op." + op.kind))
        t0 = perf_counter()
        try:
            (result, dt), error = timed(op), None
        except Exception as exc:  # the op failed; record it and keep the loop running
            result, dt, error = None, perf_counter() - t0, exc
        if tracer is not None:
            tracer.close(idx)
            ctx.after_traced(tracer, i, idx, dt)
        times.append(dt)
        reason = f"raised {type(error).__name__}: {error}" if error is not None else ctx.judge(i, op, result)
        if reason is not None:
            fails.append(f"{op.kind}: {reason}")
    return times, fails


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def set_up(ctx) -> list[float]:
    """The set-up durations before one pass."""
    out: list[float] = []
    while len(out) < SETUP_MIN or (len(out) < SETUP_MAX and sum(out) < SETUP_SECONDS):
        out.append(ctx.setup())
    return out


def timed_run(ctx, seconds: int) -> dict:
    t0 = perf_counter()
    ctx.prepare()
    prepare_s = perf_counter() - t0
    setups, per_pass, fails = [], [], []
    passes = None
    while passes is None or len(per_pass) < passes:
        setups += set_up(ctx)
        times, f = run_pass(ctx)
        per_pass.append(times)
        fails += f
        if passes is None:  # size the run by measured time; the oracle checks come on top
            passes = max(MIN_PASSES, round(seconds / (sum(setups) + sum(times))))
    walls = [sum(times) for times in per_pass]
    samples = [t for times in per_pass for t in times]
    hi = p90(samples)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_p90_ms": hi * 1e3,
            "peak_rss_mb": ctx.peak_rss_mb(),
        },
        "units": END_TO_END_UNITS,
        "attempted": len(samples),
        "failures": fails,
        "detail": {"passes": passes, "ops_per_pass": len(ctx.ops), "samples": len(samples),
                   "beyond_p90": sum(t > hi for t in samples), "prepare_s": prepare_s, "setups_s": setups,
                   "walls_s": walls, "op_s_per_pass": per_pass},
    }


def traced_run(ctx) -> dict:
    tracer = spans.Tracer()
    ctx.prepare()
    ctx.setup(tracer)
    times_u, fails = run_pass(ctx)
    ctx.install(tracer)
    times_t, fails_t = run_pass(ctx, tracer)
    ctx.finish(tracer)
    fails += fails_t
    mismatches = tracer.counters["kernel.twin_mismatches"]
    fails += ["kernel: compiled and pure rank tables differ"] * mismatches
    twin_s = tracer.incl[tracer.nid("bench.twin_kernel")]
    metrics = spans.layer_metrics(tracer, overhead_s=sum(times_t) - sum(times_u) - twin_s)
    path = os.path.join(ctx.work, "trace", f"{ctx.name}.spans")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.dump(path, {"workload": ctx.name, "seed": ctx.seed})
    return {
        "metrics": metrics,
        "units": spans.LAYER_UNITS,
        "attempted": 2 * len(ctx.ops) + mismatches,
        "failures": fails,
        "detail": {"untraced_wall_s": sum(times_u), "traced_wall_s": sum(times_t),
                   "spans": len(tracer.start), "span_file": os.path.relpath(path, ctx.root)},
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout; 'unknown' outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(root: str, seed: int) -> dict:
    backend = getattr(importlib.import_module(PKG), "KERNEL_BACKEND", "unknown")
    return {
        "python": platform.python_version(),
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(root),
        "seed": seed,
    }


def run_one(args, root: str) -> dict:
    ctx = make_context(args.workload, root, args.seed, args.size)
    try:
        out = traced_run(ctx) if args.trace else timed_run(ctx, args.seconds)
    finally:
        ctx.close()
    out["stamp"] = stamp(root, args.seed)
    out["workload"] = args.workload
    out["trace"] = args.trace
    return out


def report(out: dict) -> None:
    st = out["stamp"]
    print(f"# {out['workload']}  python {st['python']}  backend {st['kernel_backend']}  "
          f"nproc {st['nproc']}  commit {st['commit'][:12]}  seed {st['seed']}")
    d = out["detail"]
    for name, value in out["metrics"].items():
        note = ""
        if name == "op_p90_ms":
            note = f"  ({d['samples']} samples, {d['beyond_p90']} beyond)"
        print(f"{out['workload']:>7} {name:<32} {value:>16.6f} {out['units'][name]}{note}")
    failed = len(out["failures"])
    print(f"{out['workload']:>7} {'failed_ops_frac':<32} {failed / out['attempted']:>16.6f} "
          f"({failed}/{out['attempted']})")
    if "untraced_wall_s" in d:
        print(f"{out['workload']:>7} traced pass {d['traced_wall_s']:.3f} s vs untraced "
              f"{d['untraced_wall_s']:.3f} s; {d['spans']} spans in {d['span_file']}")
    for reason in out["failures"][:10]:
        print(f"FAILED {reason}", file=sys.stderr)


def result_line(out: dict) -> str:
    failed = len(out["failures"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
    })


def run_all(args, root: str) -> int:
    """Each workload in its own process (peak RSS is per process), then one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(W.SIZES), default="full",
                        help="'smoke' runs tiny op lists for the benchmark's own tests")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", PKG, "__init__.py")):
        print(f"error: run from a checkout root; {os.path.join('src', PKG)} not found in {root}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    sys.path.insert(0, os.path.join(root, "src"))
    out = run_one(args, root)
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    report(out)
    print(result_line(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
