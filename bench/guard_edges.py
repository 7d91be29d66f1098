"""Measure the guard-edge sizes that the timed workloads leave out.

    python3 bench/guard_edges.py

Run it from the root of a checkout.  Each command's input lies inside
``MAX_ENTRIES`` and ``MAX_QUDITS``, yet each has been seen to run out of
memory under the 2 GiB address-space cap that the benchmark runs under.
The script prints one JSON line per command: wall time, max RSS, exit code
and the last line of stderr.  It is slow (about 25 s) and
memory-heavy, so the benchmark itself does not run it.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
from pathlib import Path

from run import MEMORY_CAP, PINNED_ENV, spawn

COMMANDS = (
    ["gen", "--family", "cantor", "--n", "11"],
    ["gen", "--family", "bellgem", "--n", "6", "--sign", "+"],
)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "qfractal" / "__init__.py").is_file():
        print("error: run from the root of a qfractal checkout", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(root / "src")}
    work = root / ".bench_work" / f"guard-edges-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for argv in COMMANDS:
            done = spawn([sys.executable, "-m", "qfractal", *argv, "-o", str(work / "out.qfs")], env, work)
            lines = done.stderr.strip().splitlines()
            print(json.dumps({
                "command": "qfs " + " ".join(argv),
                "wall_s": round(done.wall_s, 2),
                "max_rss_mb": round(done.max_rss_mb),
                "exit": done.code,
                "stderr": lines[-1] if lines else "",
            }))
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
