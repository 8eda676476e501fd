"""Oracles for the simulate path's exact accounting.

Two checks:

- Lean cores' per-core breakdowns must attribute the measurement window
  *exactly*, which only holds if ``_run_throughput`` settles the open
  interval between each core's last event and the horizon.  The check
  runs twice: once deriving the warm state by the full warm walk, and
  once restoring it from the L2-free warm memo, which must leave the
  measured run bit-identical to the derived one.
- The resident fat-core loop (:meth:`FatCore.loop`, DESIGN.md §14.2)
  must be bit-identical to a per-event reference: the fat core's former
  ``step`` method, kept below unchanged as :func:`_reference_step`, over
  the hierarchy's ``instr_block``/``data_access`` methods, dispatched one
  step per heap pop with the former batching rule.  Every piece of state
  is compared with ``==``: breakdowns, clocks, context cursors, every
  hierarchy and cache counter, cache sets in LRU order, the owner map,
  the bank clocks, the code-pressure LRUs and the batched-step count.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random

import pytest

from repro.core.parallel import WARM_FRACTIONS
from repro.simulator import machine as machine_mod
from repro.simulator.configs import fc_cmp, fc_smp, lc_cmp
from repro.simulator.cores import (
    FatCore,
    _Context,
    _INSTR_PER_LINE,
    _account_data,
    _account_instr,
    fat_core_params,
)
from repro.simulator.hierarchy import L1, SharedL2Hierarchy
from repro.simulator.machine import Machine
from repro.simulator.profiling import RunProbe
from repro.simulator.topology import IslandTopology
from repro.simulator.trace import (
    FLAG_CODE_JUMP,
    FLAG_DEPENDENT,
    FLAG_STREAM,
    FLAG_WRITE,
    TraceBuilder,
    Workload,
)
from repro.workloads.driver import workload_for

SCALE = 0.01
CYCLES = 5_000


def _run_lean(workload):
    machine = Machine(lc_cmp(n_cores=4, scale=SCALE))
    return machine.run(workload, measure_cycles=CYCLES,
                       warm_fraction=WARM_FRACTIONS["oltp"])


@pytest.mark.parametrize("memo_runs", [0, 1])
def test_lean_trailing_interval_is_attributed(memo_runs):
    """Lean per-core breakdowns must sum to the window exactly.

    Dispatch stops at the horizon, which leaves each lean core with an
    open interval [last event, horizon) that only ``LeanCore.settle``
    attributes; without the settle call the per-core sums fall short of
    the window by that trailing slice.  (Fat cores account whole blocks
    at completion and legitimately overshoot the horizon, so the
    exact-sum invariant is lean-only.)  ``memo_runs`` is the number of
    earlier runs that populated the warm memo before the checked run:
    0 derives the warm state by walking, 1 restores it from the memo.
    """
    machine_mod._WARM_MEMO.clear()
    workload = workload_for("oltp", "saturated", SCALE)
    earlier = [_run_lean(workload) for _ in range(memo_runs)]
    memo_keys = set(machine_mod._WARM_MEMO)
    result = _run_lean(workload)
    if memo_runs:
        # The checked run was served from the memo (no new entry) and
        # matches the run that derived the state field for field.
        assert memo_keys, "the earlier run left no warm-memo entry"
        assert set(machine_mod._WARM_MEMO) == memo_keys
        assert result.to_dict() == earlier[-1].to_dict()
    machine_mod._WARM_MEMO.clear()

    assert result.per_core, "expected per-core breakdowns"
    for core_id, breakdown in enumerate(result.per_core):
        total = sum(dataclasses.asdict(breakdown).values())
        assert total == pytest.approx(result.elapsed, rel=0, abs=1e-6), (
            f"core {core_id} attributed {total} of a {result.elapsed} "
            f"cycle window"
        )


# ---------------------------------------------------------------------- #
# Reference fat-core stepper and dispatch                                 #
# ---------------------------------------------------------------------- #


def _reference_step(self) -> None:
    """Process one trace block (compute + fetch + data reference)."""
    ctx = self.ctx
    if ctx.state == _Context.IDLE:
        return
    p = self.params
    bd = self.breakdown
    hier = self.hier
    core_id = self.core_id
    # Inlined _Context.advance fast path: the overwhelmingly common
    # case is "next event of the same trace, same quantum" — no
    # rotation, no wrap, one packed-column decode.
    pos = ctx.pos + 1
    if pos < ctx.n and (ctx.quantum_left > 0 or len(ctx.traces) == 1):
        ctx.pos = pos
        ctx.quantum_left -= 1
        trace = ctx.trace
        m = trace.meta[pos]
        icount = m >> 24
        addr = trace.addrs[pos]
        flags = m & 0xFF
        region = (m >> 8) & 0xFFFF
    else:
        icount, addr, flags, region = ctx.advance()
        trace = ctx.trace
    fp = trace.footprints[region]
    jumped = region != ctx.last_region or bool(flags & FLAG_CODE_JUMP)
    n_lines = max(1, icount // _INSTR_PER_LINE)
    compute = icount / ctx.rate
    branch = icount * trace.branch_mpki / 1000.0 * p.branch_penalty
    ctx.last_region = region
    i_exposed, i_level = hier.instr_block(
        core_id, fp.base, fp.n_lines, n_lines, jumped, self.t
    )
    i_stall = max(0.0, i_exposed - p.ifetch_hide_cycles)
    access_t = self.t + i_stall + compute
    lat, d_level = hier.data_access(
        core_id, addr, bool(flags & FLAG_WRITE), access_t
    )
    if d_level == L1:
        d_exposed = 0.0
    elif flags & FLAG_WRITE:
        # Stores retire through the store buffer; a burst drains at
        # latency/depth per store rather than serializing.
        d_exposed = lat / p.store_buffer_depth
    elif flags & FLAG_DEPENDENT:
        if flags & FLAG_STREAM and lat >= 100:
            # A dependent decode inside a sequential scan: the miss
            # itself streams from memory ahead of use; only part of
            # the long latency reaches the pipeline.
            d_exposed = max(0.0, lat / p.mlp - compute)
        else:
            # Pointer chase: nothing downstream to overlap with.
            d_exposed = max(0.0, lat - p.dep_hide_cycles)
    else:
        # Independent miss: the OoO core overlaps it with the compute
        # preceding it (bounded by the ROB window) and with up to
        # ``mlp`` sibling misses in flight.
        overlap = min(compute, p.oo_window_cycles)
        d_exposed = max(0.0, lat / p.mlp - overlap)
    bd.computation += compute
    bd.other += branch
    _account_instr(bd, i_level, i_stall)
    _account_data(bd, d_level, d_exposed)
    ctx.retired += icount
    self.t = access_t + branch + d_exposed
    if self.pass_target is not None and ctx.pos == ctx.n - 1:
        # The block just executed was the trace's last: the pass
        # completes now.
        if ctx.passes + 1 >= self.pass_target:
            ctx.finished_at = self.t
            ctx.state = _Context.IDLE


class _SmallQuantum:
    """Shrinks every context's scheduling quantum after the cores are
    built, so short runs rotate clients and wrap traces often."""

    quantum = 2048

    def _build_cores(self, slots, offset_of):
        super()._build_cores(slots, offset_of)
        for core in self._cores:
            for ctx in core.contexts:
                ctx.quantum = ctx.quantum_left = self.quantum


class LoopMachine(_SmallQuantum, Machine):
    """The machine under test: the resident fat-core loops."""


class ReferenceMachine(_SmallQuantum, Machine):
    """One reference step per heap pop, plus the strict-precedence
    batching rule, over the hierarchy methods."""

    def _run_throughput(self, horizon: float) -> int:
        heap: list[tuple[float, int, int]] = []
        seq = 0
        batched = 0
        for idx, core in enumerate(self._cores):
            t = core.next_time()
            if t < math.inf:
                heapq.heappush(heap, (t, seq, idx))
                seq += 1
        while heap:
            t, _, idx = heapq.heappop(heap)
            if t > horizon:
                break
            core = self._cores[idx]
            _reference_step(core)
            nt = core.next_time()
            top = heap[0][0] if heap else math.inf
            while nt < top and nt <= horizon:
                _reference_step(core)
                nt = core.next_time()
                batched += 1
            if nt < math.inf:
                heapq.heappush(heap, (nt, seq, idx))
                seq += 1
        for core in self._cores:
            core.settle(horizon)
        return batched

    def _run_response(self) -> float:
        active = []
        for core in self._cores:
            contexts = [c for c in core.contexts if c.trace is not None]
            if contexts:
                core.pass_target = 1
                active.append((core, contexts))
        heap: list[tuple[float, int, int]] = []
        seq = 0
        cores = [core for core, _ in active]
        for idx, core in enumerate(cores):
            heapq.heappush(heap, (core.next_time(), seq, idx))
            seq += 1
        pending = sum(len(ctxs) for _, ctxs in active)
        while heap and pending:
            _, _, idx = heapq.heappop(heap)
            core = cores[idx]
            _reference_step(core)
            pending = sum(ctx.finished_at is math.inf
                          for _, ctxs in active for ctx in ctxs)
            nt = core.next_time()
            if nt is not math.inf:
                heapq.heappush(heap, (nt, seq, idx))
                seq += 1
        return max(ctx.finished_at for _, ctxs in active for ctx in ctxs)


# ---------------------------------------------------------------------- #
# State capture                                                           #
# ---------------------------------------------------------------------- #


def _sets(cache) -> list[list[tuple[int, int]]]:
    """Every set's (line, state) pairs in LRU-to-MRU order."""
    return [list(s.items()) for s in cache._sets]


def _state(machine: Machine, result, probe: RunProbe) -> dict:
    """Everything the loop could have written, as comparable values."""
    hier = machine.hierarchy
    shared = isinstance(hier, SharedL2Hierarchy)
    caches = hier.l1d_caches + ([hier.l2] if shared else hier.l2_caches)
    doc = {
        "result": result.to_dict(),
        "batched_steps": probe.counters.get("batched_steps", 0),
        "cores": [
            (core.t, core.breakdown.as_dict(),
             [(c.pos, c.passes, c.retired, c.trace_idx, c.quantum_left,
               c.last_region, c.state, c.finished_at, list(c.positions))
              for c in core.contexts])
            for core in machine._cores
        ],
        "hier_stats": dataclasses.asdict(hier.stats),
        "cache_stats": [(c.name, dataclasses.asdict(c.stats))
                        for c in caches],
        "cache_sets": [_sets(c) for c in caches],
        "code_pressure": [(list(cp._regions.items()), cp._total,
                           cp.miss_credit)
                          for cp in hier._code_pressure],
    }
    if shared:
        doc["owners"] = dict(hier._l1_owners)
        doc["bank_free"] = list(hier._bank_free)
    else:
        doc["sharers"] = dict(hier._sharers)
        doc["dirty_owner"] = dict(hier._owner)
    return doc


def _run_pair(config, workload, quantum=2048, **run_kw):
    """Run the workload on a fresh loop machine and a fresh reference
    machine (each warming from scratch); return both state documents."""
    docs = []
    for cls in (LoopMachine, ReferenceMachine):
        machine_mod._WARM_MEMO.clear()
        machine = cls(config)
        machine.quantum = quantum
        probe = RunProbe()
        result = machine.run(workload, probe=probe, **run_kw)
        docs.append(_state(machine, result, probe))
    machine_mod._WARM_MEMO.clear()
    return docs


def _assert_identical(loop_doc: dict, ref_doc: dict) -> None:
    assert loop_doc.keys() == ref_doc.keys()
    for key in ref_doc:
        assert loop_doc[key] == ref_doc[key], f"{key} differs"


# ---------------------------------------------------------------------- #
# Synthetic traces                                                        #
# ---------------------------------------------------------------------- #

_ALL_FLAGS = (0, FLAG_WRITE, FLAG_DEPENDENT, FLAG_DEPENDENT | FLAG_STREAM,
              FLAG_STREAM, FLAG_CODE_JUMP, FLAG_CODE_JUMP | FLAG_WRITE)


def _trace(rng: random.Random, name: str, n_events: int, lines: int,
           base_line: int = 0x10_0000, stride: int = 0):
    """A trace mixing every flag, runs of repeated code regions, and a
    code footprint well past the 32 KB L1I (so fetches thrash) and past
    the code-pressure window of four L1Is (so old regions are dropped).

    ``stride`` > 0 makes the references a per-trace strided stream (the
    stride prefetcher's food); otherwise they are drawn from ``lines``
    lines starting at ``base_line``.
    """
    tb = TraceBuilder(name, ilp=2.0, branch_mpki=4.0, ilp_inorder=1.0)
    regions = [tb.register_code(f"r{i}", 0x4000_0000 + i * 0x4_0000,
                                n_lines)
               for i, n_lines in enumerate((40, 300, 260, 520, 16, 900,
                                            1200))]
    region = regions[0]
    for i in range(n_events):
        if rng.random() < 0.2:
            region = rng.choice(regions)
        if stride:
            line = base_line + i * stride
        else:
            line = base_line + rng.randrange(lines)
        tb.event(rng.randrange(0, 400), line * 64, rng.choice(_ALL_FLAGS),
                 region)
    return tb.build()


def _workload(n_clients: int, seed: int, n_events: int = 120,
              lines: int = 4096, shared: bool = False,
              stride: int = 0) -> Workload:
    rng = random.Random(seed)
    traces = [
        _trace(rng, f"c{i}", n_events, lines,
               base_line=0x10_0000 if shared else 0x10_0000 + i * 0x1_0000,
               stride=stride)
        for i in range(n_clients)
    ]
    return Workload(f"synthetic-{seed}", traces, kind="oltp")


# ---------------------------------------------------------------------- #
# Loop vs reference                                                       #
# ---------------------------------------------------------------------- #


def test_rotation_and_wrap_with_small_quantum():
    """Three clients per context, a 7-event quantum and 120-event
    traces: the loop's cursor hand-off to ``_Context.advance`` on
    rotation and wrap must match the reference event for event."""
    loop_doc, ref_doc = _run_pair(
        fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1 / 16),
        _workload(6, seed=1), quantum=7, measure_cycles=150_000)
    _assert_identical(loop_doc, ref_doc)
    assert any(pass_ > 0 for core in loop_doc["cores"]
               for _, pass_, *_ in core[2]), "no trace wrapped"
    assert loop_doc["batched_steps"] > 0


def test_timestamp_ties_keep_heap_order():
    """Two cores on all-hit, integral-cycle blocks of 10 and 20 cycles
    land on equal clocks again and again.  On a tie the earlier-queued
    core runs first, so a loop must stop batching when its clock
    *equals* the heap top, not only when it passes it."""
    traces = []
    for i, icount in enumerate((20, 40)):
        tb = TraceBuilder(f"tie{i}", ilp=2.0, branch_mpki=0.0)
        region = tb.register_code("r", 0x4000_0000, 16)
        for _ in range(64):
            tb.event(icount, (0x10_0000 + i) * 64, 0, region)
        traces.append(tb.build())
    loop_doc, ref_doc = _run_pair(
        fc_cmp(n_cores=2, l2_nominal_mb=1, scale=1 / 16),
        Workload("ties", traces, kind="oltp"), measure_cycles=5_000)
    _assert_identical(loop_doc, ref_doc)
    assert loop_doc["batched_steps"] > 0


def test_shared_writes_take_dirty_interventions():
    """Four cores writing one shared pool of lines: dirty sibling
    copies (L1X) and write invalidations in the inlined owner map."""
    loop_doc, ref_doc = _run_pair(
        fc_cmp(n_cores=4, l2_nominal_mb=1, scale=1 / 16),
        _workload(4, seed=2, n_events=400, lines=48, shared=True),
        measure_cycles=60_000)
    _assert_identical(loop_doc, ref_doc)
    assert loop_doc["hier_stats"]["data_level_counts"][1] > 0, \
        "no L1-to-L1 interventions"


def test_tiny_l2_evicts_and_writes_back():
    """A 16 KB L2 under wide footprints: L2 evictions and dirty
    writebacks on both the data path and jump-target fetches."""
    loop_doc, ref_doc = _run_pair(
        fc_cmp(n_cores=4, l2_nominal_mb=1, scale=1 / 64),
        _workload(8, seed=3, n_events=300), measure_cycles=80_000)
    _assert_identical(loop_doc, ref_doc)
    l2_stats = loop_doc["cache_stats"][-1][1]
    assert l2_stats["evictions"] > 0 and l2_stats["writebacks"] > 0


def test_response_mode():
    """Response mode: every client runs one pass to completion."""
    loop_doc, ref_doc = _run_pair(
        fc_cmp(n_cores=4, l2_nominal_mb=1, scale=1 / 16),
        _workload(3, seed=4, n_events=500), mode="response")
    _assert_identical(loop_doc, ref_doc)


@pytest.mark.parametrize("kind", ["oltp", "dss"])
def test_generated_workloads(kind):
    """The engine-generated OLTP and DSS bundles on the default fat CMP."""
    loop_doc, ref_doc = _run_pair(
        fc_cmp(n_cores=4, scale=SCALE), workload_for(kind, "saturated",
                                                     SCALE),
        measure_cycles=20_000, warm_fraction=WARM_FRACTIONS[kind])
    _assert_identical(loop_doc, ref_doc)


@pytest.mark.parametrize("case", ["smp", "islands", "islands-partitioned",
                                  "prefetch"])
def test_method_call_branch(case):
    """Hierarchies the loop reaches through ``instr_block`` /
    ``data_access``: private-L2 MESI, 2-socket islands, and the stride
    prefetcher."""
    run_kw = {}
    workload = _workload(8, seed=5, n_events=200, lines=512, shared=True)
    if case == "smp":
        config = fc_smp(n_nodes=4, private_l2_nominal_mb=1, scale=1 / 16)
    elif case.startswith("islands"):
        config = fc_cmp(n_cores=4, l2_nominal_mb=1, scale=1 / 16,
                        topology=IslandTopology(n_sockets=2))
        if case == "islands-partitioned":
            run_kw["placement"] = "island-partitioned"
    else:
        config = fc_cmp(n_cores=4, l2_nominal_mb=1, scale=1 / 16,
                        stride_prefetch=True)
        workload = _workload(4, seed=6, n_events=300, stride=3)
    loop_doc, ref_doc = _run_pair(config, workload, quantum=11,
                                  measure_cycles=60_000, **run_kw)
    _assert_identical(loop_doc, ref_doc)
    if case == "prefetch":
        assert loop_doc["hier_stats"]["prefetch_covered"] > 0
    if case.startswith("islands") and case != "islands-partitioned":
        assert loop_doc["hier_stats"]["remote_accesses"] > 0


def test_step_matches_reference_step():
    """``FatCore.step`` (a one-event run of the loop) against the
    reference stepper, event by event on one core."""
    rng = random.Random(7)
    traces = [_trace(rng, f"c{i}", 90, 2048) for i in range(3)]
    hiers = [SharedL2Hierarchy(fc_cmp(n_cores=1, l2_nominal_mb=1,
                                      scale=1 / 64).hierarchy)
             for _ in range(2)]
    cores = [FatCore(0, fat_core_params(), hier, traces) for hier in hiers]
    for core in cores:
        core.ctx.quantum = core.ctx.quantum_left = 5
    for _ in range(400):
        cores[0].step()
        _reference_step(cores[1])
        assert cores[0].t == cores[1].t
        assert cores[0].breakdown == cores[1].breakdown
        assert cores[0].ctx.pos == cores[1].ctx.pos
    assert hiers[0].stats == hiers[1].stats
    assert _sets(hiers[0].l2) == _sets(hiers[1].l2)
    assert hiers[0].l2.stats == hiers[1].l2.stats
