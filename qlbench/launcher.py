"""Start child processes on request; report exit code, wall time and peak RSS.

On Linux a child's ``ru_maxrss`` starts from the memory high-water mark of
the process that spawned it.  The benchmark process grows with the
workload's data, so it asks this small process to spawn every child, and a
child's peak RSS is then its own.

Protocol: one JSON request per line on stdin, with the keys ``argv``,
``cwd``, ``env``, ``timeout``, ``stdout`` and ``stderr`` (file paths); one
JSON reply per line on stdout with ``code``, ``wall_s`` and ``rss_mb``.
End of input ends the process.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
