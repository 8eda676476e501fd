"""Cold figure-run benchmark of the reproduction, timed end to end or
split by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement is a fresh ``cold_run.py`` process (see its
docstring) with every ``REPRO_*`` variable removed, ``PYTHONHASHSEED``
set from ``--seed`` and its own scratch directory, so no result cache,
trace store or earlier run can make a later one cheaper.

``--trace 0`` repeats cold runs while the next one, with the set-up
runs still needed, fits in ``--seconds`` (at least one), adds set-up-only
runs until there are ``SETUP_SAMPLES`` set-up times, and reports medians
of the end-to-end metrics.  ``--trace 1`` makes one uninstrumented run and one traced
run and reports the per-layer metrics plus the difference of
their wall times as the tracing overhead.  Either way the last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (specs), and ``metrics``.  Other lines before it record the
environment and each run.

The workload inputs are fixed inside the program (TPC-C seed 42, TPC-H
seed 7), so ``--seed`` only sets the hash seed of the measured
processes; the output digests must not depend on it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig6-serial", "oltp-writes", "all-jobs2")
#: Set-up times per ``--trace 0`` run; set-up-only runs fill the gap.
SETUP_SAMPLES = 3
#: Every run must end well inside the 180 s the caller allows.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run (not a failure of the program)."""


class Runner:
    """Starts cold runs of one workload and keeps their documents."""

    def __init__(self, root: str, workload: str, seed: int, work: str):
        self.workload = workload
        self.work = work
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.runs: list[dict] = []

    def run(self, mode: str) -> dict:
        """One fresh process; returns its document (``ok`` False if it
        crashed, with the tail of its error output)."""
        n = len(self.runs)
        cwd = os.path.join(self.work, f"{n}-{mode}")
        os.makedirs(cwd)
        out = os.path.join(cwd, "result.json")
        errlog = os.path.join(cwd, "stderr.txt")
        limit = DEADLINE_S - (time.monotonic() - self.started)
        if limit <= 0:
            raise BenchError("out of time before a run could start")
        t0 = time.monotonic()
        with open(errlog, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "cold_run.py"),
                 "--workload", self.workload, "--mode", mode,
                 "--t0", repr(t0), "--out", out],
                cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True)
            try:
                code = proc.wait(timeout=limit)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # The run's pool workers share its process group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code is None:
            raise BenchError(f"{mode} run exceeded the time limit")
        if code == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["ok"] = True
        else:
            with open(errlog, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            doc = {"ok": False, "mode": mode,
                   "problems": [f"exit code {code}: {tail}"]}
        self.runs.append(doc)
        print(f"# run {n} {mode}: " + json.dumps(
            {k: doc.get(k) for k in ("ok", "wall_s", "setup_s",
                                     "peak_rss_mb", "failed", "problems")}))
        return doc

    def accounting(self, n_specs: int) -> dict:
        """``correct``/``attempted``/``failed`` over every run that
        simulated (set-up-only runs attempt no spec)."""
        sims = [d for d in self.runs if d.get("mode") != "setup"]
        failed = sum(d.get("failed", 0) if d["ok"] else n_specs
                     for d in sims)
        correct = all(d["ok"] and not d.get("problems") for d in self.runs)
        return {"correct": correct, "attempted": n_specs * len(sims),
                "failed": failed}


def timed(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics: medians over cold runs.

    Another cold run starts only while it, and the set-up-only runs
    that would still be needed for ``SETUP_SAMPLES`` set-up times, are
    expected to end within ``seconds``; set-up-only runs then fill up
    the set-up samples."""
    reps = []
    while True:
        reps.append(runner.run("timed"))
        spent = time.monotonic() - runner.started
        good = [d for d in reps if d["ok"]]
        fills = max(0, SETUP_SAMPLES - len(good) - 1)
        setup = statistics.median(d["setup_s"] for d in good) if good else 0
        if spent + spent / len(reps) + fills * setup > seconds:
            break
    if not good:
        raise BenchError("no cold run finished")
    setups = [d["setup_s"] for d in good]
    while len(setups) < SETUP_SAMPLES:
        doc = runner.run("setup")
        if not doc["ok"]:
            raise BenchError("a set-up-only run failed")
        setups.append(doc["setup_s"])
    return {
        "wall_s": statistics.median(d["wall_s"] for d in good),
        "setup_s": statistics.median(setups),
        "sim_accesses_per_s": statistics.median(
            d["sim_accesses"] / (d["wall_s"] - d["setup_s"]) for d in good),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in good),
    }


def traced(runner: Runner, spans_path: str) -> dict:
    """Per-layer metrics from one traced run, plus the tracing overhead
    against an uninstrumented run made just before it."""
    plain = runner.run("timed")
    doc = runner.run("traced")
    if not (plain["ok"] and doc["ok"]):
        raise BenchError("the traced or the reference run crashed")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc["spans"], fh)
    metrics = dict(doc["layers"])
    metrics["trace.overhead_s"] = doc["wall_s"] - plain["wall_s"]
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}

    # A terminated benchmark still stops its runs (Runner.run's finally).
    signal.signal(signal.SIGTERM, _exit_on_signal)
    # Byte-compile once, outside any timed run, so every measured
    # process imports from the same cached bytecode.
    compileall.compile_dir(src, quiet=1)
    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"python={platform.python_version()} "
          f"numpy={_has_numpy()} nproc={os.cpu_count()} "
          f"commit={_commit(root)}")
    runner = Runner(root, args.workload, args.seed, work)
    try:
        if args.trace:
            values = traced(runner, os.path.join(
                out_dir, f"spans-{args.workload}-{args.seed}.json"))
        else:
            values = timed(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    n_specs = next(d["specs"] for d in runner.runs if d["ok"])
    print(json.dumps({
        **runner.accounting(n_specs),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _has_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _commit(root: str) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
