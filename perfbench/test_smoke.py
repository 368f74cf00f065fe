"""Smoke tests of the benchmark itself, on tiny op lists.

Run from the checkout root:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_every_check(workload, trace):
    res = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                          "--size", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in res["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _context(name: str):
    ctx = run.make_context(name, ROOT, 5, "smoke")
    ctx.prepare()
    ctx.setup()
    return ctx


class _DroppedPreimage:
    """A returned cover with its first pre-image missing."""

    def __init__(self, cover):
        self._sets = cover.sets()[1:]

    def sets(self):
        return self._sets


def test_dropped_preimage_counts_as_failed():
    ctx = _context("search")
    for op in ctx.ops:
        op.run = lambda real=op.run: {_DroppedPreimage(c) for c in real()}
    times, fails = run.run_pass(ctx)
    assert len(fails) == len(ctx.ops)


def test_dropped_maximal_cover_counts_as_failed():
    ctx = _context("search")
    for op in ctx.ops:
        op.run = lambda real=op.run: set(sorted(real(), key=str)[1:])
    times, fails = run.run_pass(ctx)
    assert len(fails) == len(ctx.ops)


def test_flipped_exit_status_counts_as_failed():
    ctx = _context("cli")
    op = next(o for o in ctx.ops if o.kind == "cli.compare")
    (rc, out, err), _ = ctx.timed(op)
    ctx.close()
    assert op.check((rc, out, err)) is None
    assert op.check((1 - rc, out, err)) is not None


def test_policy_oracle_rejects_a_corrupted_policy():
    ctx = _context("plan")
    corrupt = [o for o in ctx.ops if o.kind == "plan.verify_policy"][1::2]
    assert corrupt
    times, fails = run.run_pass(ctx)
    assert not fails
    # A verify op that answered True on a corrupted policy must fail its check.
    assert any(op.check(True) is not None for op in corrupt)


def test_twin_kernel_mismatch_is_counted(monkeypatch):
    cl = run.fresh_import()
    fake = types.ModuleType("cover_lattice._fixpoint")
    fake.rank_table = lambda n, goal, masks, acount, post: [-1] * (1 << n)
    monkeypatch.setitem(sys.modules, "cover_lattice._fixpoint", fake)
    monkeypatch.setattr(cl._kernel, "BACKEND", "pure")
    tracer = spans.Tracer()
    spans.install(tracer, cl)
    prob = W.to_program(cl, W.junction(random.Random(0)))
    cl.solvable(prob, cl.make_cover(prob.universe, [list(prob.universe.labels)]))
    assert tracer.counters["kernel.twin_checked"] == 1
    assert tracer.counters["kernel.twin_mismatches"] == 1
    metrics = spans.layer_metrics(tracer, overhead_s=0.0)
    assert metrics["kernel.calls"] == 1 and metrics["planning.solvable_calls"] == 1
    run.fresh_import()


def test_counts_repeat_for_a_seed():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "repeat_check.py"), "--seeds", "4",
                           "--workloads", "search,plan", "--size", "smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
