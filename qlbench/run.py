#!/usr/bin/env python3
"""qlgame benchmark: one seeded workload, timed in-process and as a script
of fresh ``python -m qlgame`` processes, with every output checked.

Usage, from the repository root:

    python3 qlbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0
    python3 qlbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics (setup_s, job_s, cli_s,
cli_rss_mb); ``--trace 1`` wraps qlgame's public functions and prints the
per-layer metrics instead.  Each workload prints ``#`` summary lines and
one JSON line with its environment.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
``--workload all`` it maps each workload to such an object.  The exit code
is 1 when an output check failed and 2 when qlgame's sources are missing.
Only the standard library and numpy are used; qlgame runs from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORK = HERE / ".work"
WORKLOAD_NAMES = ("analytic", "classicality", "simulate", "sequence")

FLOOR_RUNS = 3
MIN_ROUNDS = 3
MAX_ROUNDS = 100
CHILD_TIMEOUT_S = 120
TRIM_SHARE = 0.1
END_TO_END = {"setup_s": "s", "job_s": "s", "cli_s": "s", "cli_rss_mb": "MB"}


class Launcher:
    """Runs child processes through ``launcher.py``, a small process whose
    own memory does not leak into the children's peak RSS."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path) -> tuple[int, float, float, str, str]:
        """Exit code, wall seconds, peak RSS in MB, stdout and stderr."""
        out, err = cwd / "child.stdout", cwd / "child.stderr"
        request = {"argv": argv, "cwd": str(cwd), "env": self.env, "timeout": CHILD_TIMEOUT_S,
                   "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(line)
        return (reply["code"], reply["wall_s"], reply["rss_mb"],
                out.read_text(errors="replace"), err.read_text(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def judge_step(step, code: int, stderr: str, ledger) -> None:
    """The CLI contract: exit 0 with a correct output file where expected;
    for an expected refusal, exit 1, one ``error:`` line, no traceback and
    no output file.  Exit 1 on valid input is a failure, not a wrong output."""
    label = step.args[0]
    exists = step.output.exists()
    if step.expect == 0 and code == 0:
        problems = [] if exists else ["no output file"]
        if exists and step.check is not None:
            try:
                problems += step.check(step.output.read_text())
            except Exception as exc:  # a malformed output is a wrong output
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        ledger.judge(label, problems)
    elif step.expect == 0 and code == 1:
        ledger.refuse_valid(f"{label} exit 1")
    elif step.expect == 0:
        ledger.judge(label, [f"exit {code}: {stderr.strip()[-300:]}"])
    else:
        lines = stderr.strip().splitlines()
        problems = [] if code == step.expect else [f"exit {code}, expected {step.expect}"]
        if len(lines) != 1 or not lines[0].startswith("error:") or "Traceback" in stderr:
            problems.append(f"stderr is not one error line: {stderr.strip()[-300:]!r}")
        if exists:
            problems.append("output file left behind")
        ledger.judge(label, problems)
        ledger.refused += not problems


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class WorkloadRun:
    """One workload at one seed: its inputs, work directory, failure
    ledger and the launcher that runs its child processes."""

    def __init__(self, workload, workdir: Path, seconds: float, launcher: Launcher):
        self.workload = workload
        self.workdir = workdir
        self.seconds = seconds
        self.launcher = launcher
        self.ledger = oracles.Ledger()

    def fresh_seconds(self, code: str) -> float:
        """Median wall time of a fresh ``python -c <code>``."""
        walls = []
        for _ in range(FLOOR_RUNS):
            status, wall, _, _, err = self.launcher.run([sys.executable, "-c", code], self.workdir)
            if status != 0:
                raise RuntimeError(f"python -c {code!r} failed: {err.strip()[-300:]}")
            walls.append(wall)
        return statistics.median(walls)

    def environment(self) -> dict:
        import numpy

        return {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit(),
            "cli.numpy_floor_s": self.fresh_seconds("import numpy"),
        }

    def setup_seconds(self, probe_dir: Path, ledger) -> float | None:
        """A fresh interpreter's import plus the warm-up pass, input
        generation excluded; None when the probe failed."""
        argv = [sys.executable, str(HERE / "probe.py"), self.workload.name,
                str(self.workload.seed), str(probe_dir)]
        code, wall, _, out, err = self.launcher.run(argv, probe_dir)
        ledger.attempted += 1
        if code != 0:
            ledger.judge("set-up probe", [f"exit {code}: {err.strip()[-300:]}"])
            return None
        report = json.loads(out.strip().splitlines()[-1])
        ledger.judge("set-up probe", report["problems"])
        return wall - report["gen_s"]

    def warm_up(self) -> None:
        """The workload's first pass, on tiny inputs of the same seed."""
        warm_dir = self.workdir / "warm"
        warm_dir.mkdir()
        warm = type(self.workload)(self.workload.seed, warm_dir, full=False)
        warm.check(warm.job(oracles.Ledger()), oracles.Ledger())

    def cli_script(self, steps, ledger) -> tuple[float, float]:
        """Each step as a fresh ``python -m qlgame`` process, one at a time.
        Returns the summed wall time and the largest peak RSS."""
        total, rss = 0.0, 0.0
        for step in steps:
            step.output.unlink(missing_ok=True)
            ledger.attempted += 1
            code, wall, mb, _, err = self.launcher.run(
                [sys.executable, "-m", "qlgame", *step.argv], self.workdir)
            total += wall
            rss = max(rss, mb)
            judge_step(step, code, err, ledger)
        return total, rss

    def cli_in_process(self, steps, ledger) -> float:
        """The same script through ``qlgame.cli.main`` in this process."""
        from qlgame import cli

        total = 0.0
        for step in steps:
            step.output.unlink(missing_ok=True)
            ledger.attempted += 1
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = cli.main(step.argv)
                total += time.perf_counter() - start
            judge_step(step, code, err.getvalue(), ledger)
        return total

    def timed_job(self, ledger):
        """One pass of the job, started from a collected heap so that no
        pass pays for the garbage of the one before."""
        gc.collect()
        start = time.perf_counter()
        out = self.workload.job(ledger)
        return out, time.perf_counter() - start

    def another_round(self, rounds: int, started: float) -> bool:
        """Whether one more round, as long as the mean round so far, fits
        in the budget (at least MIN_ROUNDS, at most MAX_ROUNDS rounds)."""
        if rounds >= MAX_ROUNDS:
            return False
        elapsed = time.perf_counter() - started
        return rounds < MIN_ROUNDS or elapsed * (rounds + 1) / rounds <= self.seconds

    def sample(self, script):
        """Alternate one run of ``script`` with checked job passes that take
        about as long, until another round would overrun the budget.  Many
        short samples spread over the run keep the figures steady on a shared
        machine.  Returns the job pass times and the script results; a
        result's first item is its time.  The operations of one script and
        one pass are counted, however many fitted in the run."""
        jobs, scripts = [], []
        job_ledgers, script_ledgers = [], []
        started = time.perf_counter()
        while self.another_round(len(scripts), started):
            script_ledgers.append(oracles.Ledger())
            scripts.append(script(script_ledgers[-1]))
            spent = 0.0
            while spent == 0.0 or spent < scripts[-1][0]:
                job_ledgers.append(oracles.Ledger())
                out, dt = self.timed_job(job_ledgers[-1])
                self.workload.check(out, job_ledgers[-1])
                del out
                jobs.append(dt)
                spent += dt
        self.ledger.merge_repeats(script_ledgers)
        self.ledger.merge_repeats(job_ledgers)
        return jobs, scripts

    def measure(self) -> dict:
        """End-to-end metrics with tracing off.  Each round starts with one
        set-up probe, so that set-up time is sampled across the whole run
        like the other timings."""
        self.warm_up()
        steps = self.workload.cli_steps()
        probe_dir = self.workdir / "probe"
        probe_dir.mkdir()
        setups = []

        def script(ledger):
            setups.append(self.setup_seconds(probe_dir, ledger))
            return self.cli_script(steps, ledger)

        jobs, scripts = self.sample(script)
        setups = [s for s in setups if s is not None]
        clis = [total for total, _ in scripts]
        rss = [mb for _, mb in scripts]
        values = {"setup_s": statistics.median(setups) if setups else float("nan"),
                  "job_s": trimmed_mean(jobs), "cli_s": trimmed_mean(clis),
                  "cli_rss_mb": statistics.median(rss)}
        return {"values": values, "units": END_TO_END,
                "samples": {"setup_s": setups, "job_s": jobs, "cli_s": clis, "cli_rss_mb": rss}}

    def trace(self, numpy_floor: float) -> dict:
        """Per-layer metrics: the spans of one traced pass of the job, the
        tracing overhead, and the CLI's import and in-process costs.

        Each round runs the CLI script through ``cli.main`` and then a traced
        and an untraced pass of the job side by side, in alternating order,
        so that both passes of a pair see the same machine speed.  The
        overhead is the median of the per-pair ratios.  As in ``sample``,
        the operations of one script and one pass are counted."""
        import_s = self.fresh_seconds("import qlgame.cli")
        self.warm_up()
        steps = self.workload.cli_steps()
        self.cli_in_process(steps[:1], oracles.Ledger())  # warm-up of the CLI path

        kept = None
        mains, jobs, traced_jobs = [], [], []
        main_ledgers, job_ledgers = [], []
        started = time.perf_counter()
        while self.another_round(len(mains), started):
            main_ledgers.append(oracles.Ledger())
            mains.append(self.cli_in_process(steps, main_ledgers[-1]))
            for traced in ((False, True) if len(mains) % 2 else (True, False)):
                tracer = tracing.Tracer() if traced else None
                ledger = oracles.Ledger(tracer)
                with tracer or contextlib.nullcontext():
                    out, dt = self.timed_job(ledger)
                self.workload.check(out, ledger)
                del out
                job_ledgers.append(ledger)
                (traced_jobs if traced else jobs).append(dt)
                if traced and kept is None:
                    kept = tracer
        self.ledger.merge_repeats(main_ledgers)
        self.ledger.merge_repeats(job_ledgers)
        ratios = [t / u for t, u in zip(traced_jobs, jobs)]

        values = tracing.layer_metrics(kept.spans)
        values["cli.numpy_floor_s"] = numpy_floor
        values["cli.import_s"] = import_s
        values["cli.main_s"] = statistics.median(mains)
        values["trace.overhead_ratio"] = statistics.median(ratios)
        values["error_rate"] = self.ledger.failed / self.ledger.attempted
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{self.workload.name}-seed{self.workload.seed}.json"
        spans_path.write_text(json.dumps(tracing.spans_document(kept.spans)))
        units = {name: per_layer_unit(name) for name in values}
        return {"values": values, "units": units, "spans": str(spans_path.relative_to(ROOT)),
                "samples": {"job_s": jobs, "traced_job_s": traced_jobs, "cli.main_s": mains,
                            "trace.overhead_ratio": ratios}}


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest TRIM_SHARE of the values.

    On a shared machine the speed switches between a fast and a slow state
    for seconds at a time, so pass times gather around two values.  Their
    median jumps from one to the other as the share of slow passes crosses
    one half; this mean moves only in proportion to that share, and the
    trimming keeps a single stalled pass out."""
    values = sorted(values)
    k = int(len(values) * TRIM_SHARE)
    return statistics.fmean(values[k:len(values) - k])


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".refusals", ".errors")):
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def run_workload(name: str, seed: int, seconds: float, traced: bool, launcher: Launcher) -> dict:
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload_run = WorkloadRun(WORKLOADS[name](seed, workdir), workdir, seconds, launcher)
        env = workload_run.environment()
        try:
            result = workload_run.trace(env["cli.numpy_floor_s"]) if traced else workload_run.measure()
        except Exception as exc:  # a crash inside qlgame or a check is a wrong result
            workload_run.ledger.judge(name, [f"{type(exc).__name__}: {exc}"])
            result = {"values": {}, "units": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = workload_run.ledger
    result.update(workload=name, seed=seed, trace=int(traced), environment=env,
                  attempted=ledger.attempted, failed=ledger.failed, refused=ledger.refused,
                  errors=dict(ledger.errors), problems=ledger.problems[:50],
                  correct=ledger.correct)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(result, indent=1))
    return result


def summary(result: dict) -> str:
    rate = result["failed"] / max(result["attempted"], 1)
    lines = [f"# {result['workload']} seed {result['seed']} trace {result['trace']}: "
             f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
             f"error_rate={rate:.6g} ratio refused={result['refused']} errors={result['errors']}"]
    lines += [f"#   {name} = {value:.6g} {result['units'][name]}"
              for name, value in result["values"].items() if value]
    lines += [f"#   problem: {p}" for p in result["problems"][:10]]
    return "\n".join(lines)


def final_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["values"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "qlgame" / "__init__.py").is_file():
        print(f"error: qlgame sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    with Launcher() as launcher:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
            print(summary(result), flush=True)
            print(json.dumps({"environment": result["environment"]}), flush=True)
            results.append(result)
    if args.workload == "all":
        print(json.dumps({r["workload"]: final_line(r) for r in results}))
    else:
        print(json.dumps(final_line(results[0])))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
