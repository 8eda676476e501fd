"""One cold run of one benchmark workload, in a fresh process.

``run.py`` starts this script with every ``REPRO_*`` variable removed,
``PYTHONPATH`` set to the checkout's ``src`` and a scratch working
directory, so no result cache, trace store or scale override can leak
in.  The script imports the program, builds every trace bundle the
workload's specs use through ``driver.workload_for``, runs the workload
through the public figure and sweep functions, checks every output, and
writes one JSON document to ``--out``.

Modes:

- ``timed``: no instrumentation; gives the end-to-end metrics.
- ``setup``: imports and bundle builds only (more set-up samples).
- ``traced``: spans around the calls into each layer, the sweep
  layer's own telemetry, and CPU-time samples per module (pool workers
  included); gives the per-layer metrics.

Usage: python3 cold_run.py --workload NAME --mode MODE --t0 T --out FILE
where ``T`` is the starting process's ``time.monotonic()`` just before
it started this one, so ``wall_s`` and ``setup_s`` count interpreter
start-up and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import repro
from repro.core import figures, sweeps
from repro.core.experiment import Experiment
from repro.core.parallel import SweepError, execute
from repro.core.telemetry import load_events, percentile
from repro.simulator.machine import MachineResult
from repro.workloads import contention, driver
from repro.workloads.contention import SkewSpec

import layers

#: The order ``repro all`` regenerates the figures in (``repro.cli``).
ALL_FIGURES = (
    ("table1", figures.table1_text, False),
    ("fig1", figures.figure1, False),
    ("fig2", figures.figure2, True),
    ("fig3", figures.figure3, True),
    ("fig4", figures.figure4, True),
    ("fig5", figures.figure5, True),
    ("fig6", figures.figure6, True),
    ("fig7", figures.figure7, True),
    ("fig8", figures.figure8, True),
)
#: Skews and CC modes of the write-heavy workload's contention points.
THETAS = (0.9, 1.2)
CC_MODES = ("2pl", "partitioned")
SCALE = 0.25
#: Expected SHA-256 of every section's output, per workload.
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")


def _without_experiment(fn):
    return lambda exp: fn()


def _islands_text(exp) -> str:
    """The islands sweep as canonical JSON of its results' ``to_dict``."""
    points = sweeps.islands_sweep(exp, sockets=2, kinds=("oltp",),
                                  camps=("fc",))
    return json.dumps([
        {"placement": p.placement, "kind": p.kind, "camp": p.camp,
         "sockets": p.sockets, "result": p.result.to_dict(),
         "baseline": p.baseline.to_dict()} for p in points],
        sort_keys=True)


#: name -> (pool workers, bundle coordinates for workload_for,
#: sections (digest name, function of the experiment), distinct specs).
WORKLOADS = {
    "fig6-serial": (
        1,
        [dict(kind=k, regime="saturated") for k in ("oltp", "dss")],
        [("fig6", figures.figure6)],
        24,
    ),
    "oltp-writes": (
        1,
        [dict(kind="oltp", regime="saturated", skew=SkewSpec(theta=t),
              cc_mode=m) for m in CC_MODES for t in THETAS]
        + [dict(kind="oltp", regime="saturated")],
        [("contention", lambda exp: figures.contention(exp, thetas=THETAS)),
         ("islands", _islands_text)],
        8,
    ),
    "all-jobs2": (
        2,
        [dict(kind="dss", regime="saturated", n_clients=n)
         for n in figures.CLIENTS_figure2]
        + [dict(kind=k, regime=r) for k in ("oltp", "dss")
           for r in ("saturated", "unsaturated")],
        [(name, fn if needs_exp else _without_experiment(fn))
         for name, fn, needs_exp in ALL_FIGURES],
        46,
    ),
}


def invariant_problems(result: MachineResult) -> list[str]:
    """Identities every simulation result must satisfy."""
    hs = result.hier_stats
    name = f"{result.config_name}/{result.workload_name}"
    problems = []
    if sum(hs.data_level_counts) != hs.data_accesses:
        problems.append(f"{name}: data level counts do not sum to accesses")
    if sum(hs.instr_level_counts) != hs.instr_blocks:
        problems.append(f"{name}: instr level counts do not sum to blocks")
    if hs.remote_accesses > hs.data_accesses + hs.instr_blocks:
        problems.append(f"{name}: more remote accesses than accesses")
    if MachineResult.from_dict(result.to_dict()) != result:
        problems.append(f"{name}: to_dict/from_dict round trip differs")
    return problems


def _builds() -> int:
    """Bundles built so far in this process (memoizer misses)."""
    return sum(fn.cache_info().misses for fn in (
        driver.oltp_workload, driver.oltp_unsaturated, driver.dss_workload,
        driver.dss_unsaturated, driver.dss_parallel_query))


def _peak_rss_mb() -> float:
    """Highest resident set of this process and its reaped pool workers."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _tail_percentile(n: int) -> int:
    """The highest of these percentiles with ten samples beyond it."""
    fits = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return max(fits) if fits else 50


def traced_layers(spans: layers.SpanRecorder, exp: Experiment,
                  results: list[MachineResult], bundles: list) -> dict:
    """Per-layer metrics from the span log, the sweep telemetry and the
    results (the ``traced`` mode)."""
    events = load_events(exp.telemetry.path)
    summary = exp.telemetry_summary()
    build_s = sum(s["end"] - s["start"] for s in spans.spans
                  if s["name"] == "workload_for" and s["parent"] is not None
                  and spans.spans[s["parent"]]["name"] == "setup")
    events_built = sum(len(tr) for wl in bundles for tr in wl.traces)
    warm = measure = 0.0
    for ev in events:
        if ev.get("ev") == "spec_exec":
            phases = (ev.get("profile") or {}).get("phase_seconds") or {}
            warm += phases.get("warm", 0.0)
            measure += phases.get("measure", 0.0)
    accesses = sum(r.hier_stats.data_accesses for r in results)
    kernel = summary["kernel_counters"]
    walls = [float(ev.get("wall_s", 0.0)) for ev in events
             if ev.get("ev") == "spec_finished"
             and ev.get("source") == "simulated"]
    tail = _tail_percentile(len(walls))
    out = {
        "build.trace_s": build_s,
        "build.bundles": len(bundles),
        "build.trace_events": events_built,
        "build.events_per_s": events_built / build_s if build_s else 0.0,
        "sim.warm_s": warm,
        "sim.measure_s": measure,
        "sim.measure_accesses_per_s":
            summary["accesses"] / measure if measure else 0.0,
        "sim.data_accesses": accesses,
        "sim.instr_blocks": sum(r.hier_stats.instr_blocks for r in results),
        "sim.l1_filter_hits": kernel["l1_filter_hits"],
        "sim.l1_filter_bypass": kernel["l1_filter_bypass"],
        "sim.batched_steps": kernel["batched_steps"],
        "sim.l1_filter_hit_ratio": kernel["l1_filter_hits"]
            / summary["accesses"] if summary["accesses"] else 0.0,
        "sim.remote_accesses":
            sum(r.hier_stats.remote_accesses for r in results),
        "sim.remote_extra_cycles":
            sum(r.hier_stats.remote_extra_cycles for r in results),
        "cc.executor_s": spans.total("simulate_contention"),
        "pool.worker_utilization": summary["worker_utilization"],
        "pool.busy_s": summary["busy_s"],
        "pool.capacity_s": summary["capacity_s"],
        "pool.sweeps": summary["sweeps"],
        "pool.specs": summary["specs"],
        "pool.spec_wall_p50_s": percentile(walls, 50),
        "pool.spec_wall_tail_s": percentile(walls, tail),
        "pool.spec_wall_tail_pct": tail,
        "core.render_s": sum(
            t for sid, t in spans.self_times().items()
            if spans.spans[sid]["name"].startswith("section:")),
        "trace.spans": len(spans.spans),
    }
    for m in CC_MODES:
        for t in THETAS:
            out[f"cc.abort_rate.z{t:g}.{m}"] = 0.0
    for ev in events:
        if ev.get("ev") == "contention_point":
            out[f"cc.abort_rate.z{ev['theta']:g}.{ev['cc_mode']}"] = \
                ev["abort_rate"]
    return out


#: Modules whose self-time shares the traced run reports.
BUILD_MODULES = ("db.tracer", "db.heap", "db.buffer", "db.btree", "db.txn",
                 "db.computed_index", "db.exec.fused", "db.page",
                 "workloads.tpcc", "workloads.tpch", "workloads.contention")
SIM_MODULES = ("cores", "hierarchy", "cache", "coherence", "replay",
               "machine", "topology", "trace")


def sampled_layers(samples: dict[str, dict[str, int]]) -> dict:
    """Each module's share of the CPU samples of the build (set-up) and
    of the run (this process after set-up, plus its pool workers)."""
    def shares(phase: str, modules, prefix: str, metric: str) -> dict:
        per = samples.get(phase, {})
        total = sum(per.values())
        out = {f"{metric}.{m}": per.get(prefix + m, 0) / total if total
               else 0.0 for m in modules}
        out[f"trace.{phase}_samples"] = total
        return out

    return {**shares("build", BUILD_MODULES, "", "build.self_share"),
            **shares("run", SIM_MODULES, "simulator.", "sim.self_share")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True,
                    choices=("timed", "setup", "traced"))
    ap.add_argument("--t0", required=True, type=float)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    jobs, coords, sections, n_specs = WORKLOADS[args.workload]
    if jobs > 1:
        # What `repro --jobs N` does: the figures read REPRO_JOBS.
        os.environ["REPRO_JOBS"] = str(jobs)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]
    work = os.getcwd()
    traced = args.mode == "traced"

    spans = layers.SpanRecorder()
    sampler = None
    if traced:
        spans.install("run_many", Experiment.run_many)
        spans.install("execute", execute)
        spans.install("workload_for", driver.workload_for)
        spans.install("simulate_contention", contention.simulate_contention)
        sampler = layers.ModuleSampler(
            os.path.dirname(os.path.abspath(repro.__file__)), work)
        sampler.start()

    def setup():
        return [driver.workload_for(scale=SCALE, **c) for c in coords]

    bundles = spans.call("setup", setup)
    setup_end = time.monotonic()
    doc = {"workload": args.workload, "mode": args.mode,
           "setup_s": setup_end - args.t0, "specs": n_specs}
    if args.mode == "setup":
        doc["wall_s"] = doc["setup_s"]
        doc["peak_rss_mb"] = _peak_rss_mb()
        return _write(args.out, doc)

    if sampler is not None:
        sampler.phase = "run"
    exp = Experiment(
        scale=SCALE, use_cache=False,
        telemetry=os.path.join(work, "telemetry.jsonl") if traced else None)
    builds = _builds()
    problems: list[str] = []
    digests = {}
    try:
        for name, fn in sections:
            text = spans.call(f"section:{name}", fn, exp)
            digests[name] = hashlib.sha256(text.encode()).hexdigest()
    except SweepError as err:
        problems.append(f"sweep failed: {err}")
    finally:
        if sampler is not None:
            sampler.stop()
    for name, expected in golden.items():
        if name not in digests:
            problems.append(f"{name}: no output")
        elif digests[name] != expected:
            problems.append(f"{name}: output digest {digests[name][:16]} "
                            f"differs from golden")
    # With use_cache=False the experiment's memo holds every result it
    # produced, from run and run_many alike, one per distinct spec.
    results = list(exp._results.values())
    for result in results:
        problems.extend(invariant_problems(result))
    if len(results) != n_specs:
        problems.append(f"ran {len(results)} distinct specs, "
                        f"expected {n_specs}")
    if _builds() != builds:
        problems.append("a bundle was built after set-up; the workload's "
                        "bundle list is incomplete")
    end = time.monotonic()
    doc.update({
        "wall_s": end - args.t0,
        "peak_rss_mb": _peak_rss_mb(),
        "sim_accesses": sum(r.hier_stats.data_accesses for r in results),
        # Specs after a failed one never run and a wrong digest taints
        # every spec behind it, so any problem fails the whole run.
        "failed": n_specs if problems else 0,
        "problems": problems,
        "digests": digests,
    })
    if traced:
        doc["layers"] = {**traced_layers(spans, exp, results, bundles),
                         **sampled_layers(sampler.totals())}
        doc["spans"] = spans.spans
    return _write(args.out, doc)


def _write(path: str, doc: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
