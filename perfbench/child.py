"""Traced stand-in for ``python -m cover_lattice`` used by the cli workload.

Usage: python perfbench/child.py SPAN_FILE SUBCOMMAND [ARGS...]

Times ``import cover_lattice``, wraps the package's layers, runs the same
``cli.main`` as ``-m cover_lattice`` and writes its spans to SPAN_FILE.
The in-script interval goes to SPAN_FILE.times, so the parent can split
a child's wall time into interpreter start/exit and the script's own work.
"""

import json
import sys
import time

T_START = time.perf_counter()


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cover_lattice
    t1 = time.perf_counter()

    import spans

    tracer = spans.Tracer()
    tracer.record("import", t0, t1)
    post = getattr(getattr(cover_lattice, "planning", None), "_post_list", None)
    info0 = post.cache_info() if hasattr(post, "cache_info") else None
    spans.install(tracer, cover_lattice)
    sys.argv = ["cover-lattice", *argv]
    try:
        cover_lattice.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    if info0 is not None:
        info1 = post.cache_info()
        tracer.counters["planning.post_hits"] += info1.hits - info0.hits
        tracer.counters["planning.post_misses"] += info1.misses - info0.misses
    tracer.dump(span_path, {"summary": tracer.summary()})
    with open(span_path + ".times", "w", encoding="utf-8") as fh:
        json.dump({"t_start": T_START, "t_end": time.perf_counter()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
