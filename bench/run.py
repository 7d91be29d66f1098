"""qfractal benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload recursion --seed 1 --seconds 36 --trace 0

Run it from the root of a qfractal checkout; the program is imported from
``src/``.  The load is a closed loop with one client: each ``qfs`` command or
library call starts only after the previous one returned.  A run repeats a
fresh set-up and two passes over the workload's operations until
``--seconds`` are used up:

* the CLI pass runs each operation as a fresh ``python -m qfractal``
  process on files (start-up and file I/O included);
* the library pass runs it in this process on states held in memory.

Every output is checked against a reference that qfractal did not compute
(see ``oracle.py``).  The last line of stdout is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# Children and this process run with fixed hashing and one BLAS thread.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Address-space cap on the run, inherited by every child, so that a runaway
# allocation fails instead of exhausting a shared machine.
MEMORY_CAP = 2 << 30
STARTUP_SAMPLES = 3
WORKLOAD_NAMES = ("recursion", "entangle", "codes")


@dataclass
class Tally:
    """Operations attempted, those that raised or exited with an error, and
    those whose output contradicted the reference."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def judge(self, op, error: str | None, observe) -> None:
        self.attempted += 1
        if error is not None:
            self.failed.append(f"{op.name}: {error}")
            return
        try:
            problem = op.check(observe())
        except (KeyError, ValueError, OSError, AttributeError, TypeError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem is not None:
            self.wrong.append(f"{op.name}: {problem}")


@dataclass
class Finished:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def spawn(argv: list[str], env: dict, scratch: Path) -> Finished:
    """Run one child to completion; its rusage comes from ``wait4`` on its
    own pid, since RUSAGE_CHILDREN is a high-water mark over all children.

    Linux counts the forking process's resident set into the child's max
    RSS, so only a small process should call this: see :class:`Spawner`.
    """
    out, err = scratch / "child.out", scratch / "child.err"
    with open(out, "wb") as out_file, open(err, "wb") as err_file:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out_file, stderr=err_file, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Finished(child.returncode, out.read_text(), err.read_text(), wall, cpu, usage.ru_maxrss / 1024)


class Spawner:
    """Starts the run's children from a helper process launched while the
    run is still small, so that each child's max RSS is its own."""

    def __init__(self, env: dict) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__, "--spawner"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def __call__(self, argv: list[str], scratch: Path) -> Finished:
        self._helper.stdin.write(json.dumps({"argv": argv, "scratch": str(scratch)}) + "\n")
        self._helper.stdin.flush()
        return Finished(**json.loads(self._helper.stdout.readline()))

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()


def serve_spawns() -> int:
    """The helper's loop: run each child named on stdin, answer on stdout."""
    for line in sys.stdin:
        request = json.loads(line)
        done = spawn(request["argv"], dict(os.environ), Path(request["scratch"]))
        print(json.dumps(vars(done)), flush=True)
    return 0


def _error_line(stderr: str) -> str:
    lines = stderr.strip().splitlines()
    return lines[-1] if lines else "no output"


def cli_pass(workload, spawner: Spawner, scratch: Path, tally: Tally, op_times: dict) -> tuple[float, float, float]:
    """Every operation as a fresh ``python -m qfractal``; (wall s, CPU s, peak RSS MB)."""
    total, cpu, peak = 0.0, 0.0, 0.0
    for op in workload.ops:
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        done = spawner([sys.executable, "-m", "qfractal", *op.argv], scratch)
        total += done.wall_s
        cpu += done.cpu_s
        peak = max(peak, done.max_rss_mb)
        op_times.setdefault(f"cli:{op.name}", []).append(done.wall_s)
        _judge_cli(tally, op, done.code, done.stdout, done.stderr)
    return total, cpu, peak


def _judge_cli(tally: Tally, op, code: int, stdout: str, stderr: str) -> None:
    import workloads

    # A command that exits with an error and prints no result has failed; one
    # that prints a result is judged by it, exit code included.
    error = None if code == op.exit_code or stdout else f"exit {code}: {_error_line(stderr)}"

    def observe() -> dict:
        if code != op.exit_code:
            raise ValueError(f"exit code {code}, expected {op.exit_code}")
        return workloads.observe_cli(op, stdout)

    tally.judge(op, error, observe)


def inprocess_cli_pass(workload, tally: Tally) -> None:
    """Every operation through ``qfractal.cli.main`` in this process."""
    import qfractal.cli

    for op in workload.ops:
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = qfractal.cli.main(op.argv)
            except Exception as exc:  # what a child would die of: exit 1 with a traceback
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        _judge_cli(tally, op, code, out.getvalue(), err.getvalue())


def lib_pass(workload, tally: Tally, op_times: dict) -> float:
    """Every operation through the library on in-memory inputs; wall s."""
    import workloads

    context = dict(workload.inputs)
    total = 0.0
    gc.collect()
    for op in workload.ops:
        result, error = None, None
        start = time.perf_counter()
        try:
            result = op.lib(context)
        except Exception as exc:  # an operation that raises is counted as failed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        total += elapsed
        op_times.setdefault(f"lib:{op.name}", []).append(elapsed)
        tally.judge(op, error, lambda: workloads.observe_lib(op, result))
    return total


def self_check(workload) -> list[str]:
    """Oracles that accept a corrupted reference observation, or reject the
    reference itself; an empty list means no check is vacuous."""
    import oracle

    return [f"{op.name}.{name}" for op in workload.ops for name in oracle.vacuous_fields(op.check, op.reference)]


def setup_time(args, spawner: Spawner, work: Path) -> float:
    """Wall time of a fresh process that imports qfractal, writes the seeded
    inputs and loads them for the library pass."""
    target = work / "setup"
    done = spawner([sys.executable, __file__, "--setup-only", str(target),
                    "--workload", args.workload, "--seed", str(args.seed)], work)
    if done.code != 0:
        raise RuntimeError(f"setup failed: {_error_line(done.stderr)}")
    shutil.rmtree(target)
    return done.wall_s


def startup_time(argv: list[str], spawner: Spawner, work: Path, printed: bool) -> float:
    """Median over fresh interpreters: the child's own figure when it prints one."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        done = spawner([sys.executable, *argv], work)
        samples.append(float(done.stdout) if printed else done.wall_s)
    return statistics.median(samples)


def _import_timer(module: str) -> list[str]:
    return ["-c", f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"]


def measure(args, workload, spawner: Spawner, work: Path, tally: Tally) -> dict:
    op_times: dict[str, list[float]] = {}
    setup, cli, cli_cpu, lib, rss = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        setup.append(setup_time(args, spawner, work))
        wall, cpu, peak = cli_pass(workload, spawner, work, tally, op_times)
        cli.append(wall)
        cli_cpu.append(cpu)
        rss.append(peak)
        lib.append(lib_pass(workload, tally, op_times))
        # Start another round only if one as long as the last still fits.
        if deadline - time.perf_counter() < time.perf_counter() - started:
            break
    print(json.dumps({"passes": len(cli), "setup_s": setup, "cli_s": cli, "cli_cpu_s": cli_cpu, "lib_s": lib, "op_s": op_times}))
    return {
        "setup_s": statistics.median(setup),
        "cli_pass_s": statistics.median(cli),
        "lib_pass_s": statistics.median(lib),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": (tally.attempted - len(tally.failed)) / tally.attempted,
    }


def measure_traced(args, workload, spawner: Spawner, work: Path, tally: Tally) -> dict:
    import tracing

    metrics = {
        "cli.startup_s": startup_time(["-m", "qfractal", "dim", "--c", "2", "--s", "3"], spawner, work, False),
        "cli.import_s": startup_time(_import_timer("qfractal"), spawner, work, True),
        "cli.import_numpy_s": startup_time(_import_timer("numpy"), spawner, work, True),
    }
    tracer = tracing.Tracer()
    untraced, traced, covered, rounds = [], [], 0.0, 0
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        untraced.append(lib_pass(workload, tally, {}))
        tracer.install()
        try:
            before = tracer.top_level_s
            traced.append(lib_pass(workload, tally, {}))
            covered += tracer.top_level_s - before
            inprocess_cli_pass(workload, tally)
        finally:
            tracer.uninstall()
        rounds += 1
        if deadline - time.perf_counter() < time.perf_counter() - started:
            break
    totals = tracer.totals
    metrics.update({key: value / rounds for key, value in totals.items()})
    metrics.update(tracer.peaks)
    metrics["states.superpose.kept_ratio"] = (
        totals["states.superpose.entries_out"] / totals["states.superpose.entries_in"]
        if totals["states.superpose.entries_in"] else 0.0
    )
    lu_time = totals["analyze.lu_equivalent.self_s"]
    metrics["analyze.lu_equivalent.prefixes_per_s"] = totals["analyze.lu_equivalent.prefixes"] / lu_time if lu_time else 0.0
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.coverage"] = covered / sum(traced)
    return metrics


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split(" ")[0]
    return "unknown"


def main() -> int:
    if sys.argv[1:] == ["--spawner"]:
        return serve_spawns()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    root = Path.cwd()
    if not (root / "src" / "qfractal" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a qfractal checkout (src/qfractal and BENCHMARK.json)", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    spawner = None if args.setup_only else Spawner({**os.environ, "PYTHONPATH": str(root / "src")})
    sys.path.insert(0, str(root / "src"))
    import workloads

    if spawner is None:
        workloads.build(args.workload, args.seed, args.setup_only)
        return 0

    import numpy

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"env": {
        "git_sha": git_sha(root), "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), **PINNED_ENV,
    }}))

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        workload = workloads.build(args.workload, args.seed, work)
        vacuous = self_check(workload)
        # Keep the harness's own objects (inputs, references) out of the
        # collector's way, so a pass pays only for the objects it allocates.
        gc.collect()
        gc.freeze()
        measured = (measure_traced if args.trace else measure)(args, workload, spawner, work, tally)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in [f"vacuous check: {v}" for v in vacuous] + tally.wrong + tally.failed[:5]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not vacuous and not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
