"""Starts the cli workload's program processes for run.py, away from its memory.

A process's ``ru_maxrss`` starts at the peak RSS of the process that started
it, and run.py grows large while it checks big outputs.  So run.py starts
this small process first and has it start every program process.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "out": path,
"err": path}``.  The command runs with stdout and stderr sent to those files,
and one JSON line answers it: ``{"rc": exit status, negative if killed after
TIMEOUT_S, "dt": seconds from start to exit, "maxrss_kb": peak RSS of any
child so far}``.  End of input ends the launcher.
"""

import json
import resource
import subprocess
import sys
import threading
from time import perf_counter

TIMEOUT_S = 150


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            # A blocking wait: Popen.wait(timeout) polls, which would round every time up.
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            rc = proc.wait()
            dt = perf_counter() - t0
            timer.cancel()
        maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"rc": rc, "dt": dt, "maxrss_kb": maxrss}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
