"""Camp core timing models: fat (wide OoO) and lean (multithreaded in-order).

Both camps replay the same per-context traces against the same hierarchy
(the paper's controlled comparison, Section 2.1) but differ in how much of
each access latency they *expose* as stall time:

- :class:`FatCore` — one hardware context, wide out-of-order issue.  It
  overlaps miss latency with independent downstream work: an independent
  miss is hidden up to the out-of-order window and overlapped with other
  independent misses (MLP); a DEPENDENT (pointer-chasing) miss exposes
  nearly its whole latency.  This is the "tight data dependencies limit
  ILP" mechanism the paper blames for fat-camp data stalls.
- :class:`LeanCore` — several hardware contexts, narrow in-order issue,
  fine-grained round-robin.  A context exposes every miss fully *to
  itself*, but the core keeps issuing from the other runnable contexts;
  core-level stall time appears only when every context is stalled at once.
  Modelled as processor sharing among runnable contexts.

Cores are event-driven entities with a local clock; the machine interleaves
them through a global priority queue so shared-L2 bank contention sees a
consistent time order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .breakdown import Breakdown
from .cache import CLEAN, DIRTY
from .hierarchy import COH, L1, L1X, L2, MEM, SharedL2Hierarchy
from .trace import (FLAG_CODE_JUMP, FLAG_DEPENDENT, FLAG_STREAM,
                    FLAG_WRITE, Trace)

_EPS = 1e-9
_INSTR_PER_LINE = 16

#: Events a context executes from one client trace before the scheduler
#: rotates to the next queued client (the OS time-slice, in trace events).
#: Fine-grained multiplexing keeps every queued client's working set live
#: in the shared L2 regardless of core count, as a real scheduler would.
CLIENT_QUANTUM_EVENTS = 2048


@dataclass(frozen=True)
class CoreParams:
    """Microarchitectural parameters of one core (Table 1 axes).

    Attributes:
        camp: ``"fc"`` or ``"lc"``.
        issue_width: Peak instructions issued per cycle.
        n_contexts: Hardware thread contexts per core.
        pipeline_depth: Stages (drives the branch misprediction penalty).
        branch_penalty: Cycles lost per mispredicted branch.
        oo_window_cycles: Latency an OoO core hides for an independent miss
            (ROB-limited); 0 for in-order cores.
        dep_hide_cycles: Small overlap even a dependent miss enjoys from
            already-issued work.
        mlp: Memory-level parallelism — how many independent misses the
            core overlaps with each other; divides exposed miss time.
        ifetch_hide_cycles: Frontend stall cycles absorbed by the OoO
            backend's backlog; 0 for in-order cores.
        inorder_issue: Whether the core issues in order, and therefore
            achieves the trace's ``ilp_inorder`` rather than its ``ilp``.
        store_buffer_depth: Outstanding stores the core retires past; a
            store miss exposes only ``latency / depth`` (sustained store
            bursts drain at that rate instead of serializing).
        hit_under_miss_cycles: Latency a lockup-free in-order core hides
            for an *independent* access (compiler-scheduled load-use
            distance); dependent accesses expose everything.
    """

    camp: str
    issue_width: int
    n_contexts: int
    pipeline_depth: int
    branch_penalty: int
    oo_window_cycles: float = 0.0
    dep_hide_cycles: float = 0.0
    mlp: float = 1.0
    ifetch_hide_cycles: float = 0.0
    inorder_issue: bool = False
    hit_under_miss_cycles: float = 0.0
    store_buffer_depth: int = 1

    def effective_rate(self, trace) -> float:
        """Issue rate (instructions/cycle) the core achieves on ``trace``."""
        ilp = trace.ilp_inorder if self.inorder_issue else trace.ilp
        return min(float(self.issue_width), max(1.0, ilp))


def fat_core_params() -> CoreParams:
    """Table 1 fat-camp core: 4-wide, out-of-order, deep pipeline, 1 context."""
    return CoreParams(
        camp="fc",
        issue_width=4,
        n_contexts=1,
        pipeline_depth=14,
        branch_penalty=12,
        oo_window_cycles=30.0,
        dep_hide_cycles=2.0,
        mlp=3.5,
        ifetch_hide_cycles=8.0,
        inorder_issue=False,
        hit_under_miss_cycles=0.0,
        store_buffer_depth=8,
    )


def lean_core_params() -> CoreParams:
    """Table 1 lean-camp core: 2-wide, in-order, shallow pipeline, 4 contexts."""
    return CoreParams(
        camp="lc",
        issue_width=2,
        n_contexts=4,
        pipeline_depth=6,
        branch_penalty=4,
        oo_window_cycles=0.0,
        dep_hide_cycles=0.0,
        mlp=1.0,
        ifetch_hide_cycles=0.0,
        inorder_issue=True,
        hit_under_miss_cycles=16.0,
        store_buffer_depth=4,
    )


def _account_data(bd: Breakdown, level: int, cycles: float) -> None:
    """Add exposed data-stall cycles to the matching breakdown field."""
    if cycles <= 0:
        return
    if level == L2:
        bd.d_l2 += cycles
    elif level == MEM:
        bd.d_mem += cycles
    elif level == COH:
        bd.d_coh += cycles
    elif level == L1X:
        bd.d_l1x += cycles


def _account_instr(bd: Breakdown, level: int, cycles: float) -> None:
    """Add exposed instruction-stall cycles to the matching field."""
    if cycles <= 0:
        return
    if level == MEM:
        bd.i_mem += cycles
    else:
        bd.i_l2 += cycles


class _Context:
    """One hardware context: a cursor over (possibly several) client traces.

    When a saturated workload has more clients than hardware contexts, the
    surplus clients queue: each context round-robins over its assigned
    client traces, completing a full pass of one before starting the next.
    """

    __slots__ = (
        "traces", "offsets", "positions", "trace_idx", "trace", "n", "pos",
        "quantum", "quantum_left", "last_region",
        "retired", "passes", "state", "work_left", "comp_frac",
        "pending_addr", "pending_flags", "pending_icount", "has_pending",
        "wake_time", "wake_level", "wake_is_instr", "rate", "finished_at",
    )

    RUNNABLE = 0
    STALLED = 1
    IDLE = 2

    def __init__(self, traces: list[Trace], params: CoreParams,
                 offsets: list[int] | None = None,
                 quantum: int = CLIENT_QUANTUM_EVENTS):
        self.traces = traces
        # Measurement starts each trace at its offset (the end of the
        # functionally-warmed prefix), so measured references to the cold
        # secondary set are genuinely unseen (DESIGN.md §1).
        if offsets is None:
            offsets = [0] * len(traces)
        self.offsets = offsets
        # Per-trace resume positions (last executed event index).
        self.positions = [off - 1 for off in offsets]
        self.quantum = quantum
        self.quantum_left = quantum
        self.trace_idx = 0
        self.trace = traces[0] if traces else None
        self.n = len(self.trace) if self.trace else 0
        self.pos = (offsets[0] - 1) if traces else -1
        self.last_region = -1
        self.retired = 0
        self.passes = 0
        self.state = _Context.IDLE if self.trace is None else _Context.RUNNABLE
        self.work_left = 0.0
        self.comp_frac = 1.0
        self.pending_addr = 0
        self.pending_flags = 0
        self.pending_icount = 0
        self.has_pending = False
        self.wake_time = math.inf
        self.wake_level = L1
        self.wake_is_instr = False
        self.finished_at = math.inf
        if self.trace is not None:
            self.rate = params.effective_rate(self.trace)
        else:
            self.rate = float(params.issue_width)

    def advance(self) -> tuple[int, int, int, int]:
        """Move to the next trace event; returns (icount, addr, flags, region).

        At each scheduling quantum the context rotates to its next queued
        client trace (resuming where that client left off); wrapping past
        the end of a trace counts one completed pass and restarts it at
        its warm offset.
        """
        if self.quantum_left <= 0 and len(self.traces) > 1:
            self.positions[self.trace_idx] = self.pos
            self.trace_idx = (self.trace_idx + 1) % len(self.traces)
            self.trace = self.traces[self.trace_idx]
            self.n = len(self.trace)
            self.pos = self.positions[self.trace_idx]
            self.quantum_left = self.quantum
            self.last_region = -1
        self.pos += 1
        if self.pos >= self.n:
            self.passes += 1
            self.pos = self.offsets[self.trace_idx]
            if self.pos >= self.n:
                self.pos = 0
            self.last_region = -1
        self.quantum_left -= 1
        t = self.trace
        i = self.pos
        # One packed-column read decodes the whole event (DESIGN.md §11).
        m = t.meta[i]
        return m >> 24, t.addrs[i], m & 0xFF, (m >> 8) & 0xFFFF


class FatCore:
    """A fat-camp core: sequential walker with analytic stall overlap.

    One event per trace block: the core computes through the block (at
    ``min(width, ILP)`` instructions per cycle), fetches instructions
    (frontend stalls partially absorbed by the backend), performs the data
    reference, and exposes the unhidable part of the latency.
    """

    def __init__(self, core_id: int, params: CoreParams, hierarchy,
                 traces: list[Trace], offsets: list[int] | None = None):
        self.core_id = core_id
        self.params = params
        self.hier = hierarchy
        self.ctx = _Context(traces, params, offsets)
        self.t = 0.0
        self.breakdown = Breakdown()
        self.pass_target: int | None = None
        #: Blocks :meth:`loop` ran past the first of a ``send``.
        self.batched_steps = 0

    @property
    def contexts(self) -> list[_Context]:
        """The single hardware context, as a list for uniformity."""
        return [self.ctx]

    @property
    def retired(self) -> int:
        """Instructions retired so far."""
        return self.ctx.retired

    def next_time(self) -> float:
        """Time of the next event, or +inf if this core has no work."""
        return self.t if self.ctx.state != _Context.IDLE else math.inf

    def step(self) -> None:
        """Process one trace block: a one-event run of :meth:`loop`."""
        loop = self.loop()
        next(loop)
        loop.send(-math.inf)
        loop.close()

    def loop(self, horizon: float = math.inf):
        """The core's resident event loop (DESIGN.md §14.2), a generator.

        ``next()`` primes it and yields the core's next event time.  Each
        ``send(top)`` runs one trace block (compute + fetch + data
        reference), keeps running blocks while the clock stays strictly
        below ``top`` (the earliest other core in the machine's heap) and
        within ``horizon``, and yields the new next-event time (+inf once
        the context is idle).  Blocks run after the first count as
        batched steps.

        Core, context and trace-column state, the breakdown accumulators
        and this core's share of the hierarchy and cache counters live in
        locals and are written back once, when the generator closes.
        State other cores read mid-window (L1/L2 sets, the owner map,
        bank clocks) is updated in place.  On a single-socket
        :class:`SharedL2Hierarchy` without the stride prefetcher the
        whole instruction and data path is inlined here; other
        hierarchies are reached through their ``instr_block`` /
        ``data_access`` methods.
        """
        ctx = self.ctx
        if ctx.state == _Context.IDLE:
            while True:
                yield math.inf
        p = self.params
        bd = self.breakdown
        hier = self.hier
        core_id = self.core_id
        t = self.t
        pos = ctx.pos
        quantum_left = ctx.quantum_left
        last_region = ctx.last_region
        retired = ctx.retired
        single = len(ctx.traces) == 1
        trace = ctx.trace
        n = ctx.n
        meta = trace.meta
        addrs = trace.addrs
        footprints = trace.footprints
        mpki = trace.branch_mpki
        rate = ctx.rate
        pass_target = self.pass_target
        # The position whose block ends a pass; -2 (never reached) when
        # no pass target is set.
        end_pos = n - 1 if pass_target is not None else -2
        penalty = p.branch_penalty
        ifetch_hide = p.ifetch_hide_cycles
        store_depth = p.store_buffer_depth
        mlp = p.mlp
        dep_hide = p.dep_hide_cycles
        oo_window = p.oo_window_cycles
        computation = bd.computation
        other = bd.other
        i_l2 = bd.i_l2
        i_mem = bd.i_mem
        d_l1x = bd.d_l1x
        d_l2 = bd.d_l2
        d_mem = bd.d_mem
        d_coh = bd.d_coh
        batched = 0
        inline = (isinstance(hier, SharedL2Hierarchy) and hier._topo is None
                  and not hier.params.stride_prefetch)
        if inline:
            hp = hier.params
            l1d = hier._l1d
            l1 = l1d[core_id]
            l1_sets = l1._sets
            l1_n_sets = l1.n_sets
            l1_assoc = l1.assoc
            # Every L1D has the same geometry; sibling probes index with
            # this core's set count.
            sibling_sets = [c._sets for c in l1d]
            l2_sets = hier.l2._sets
            l2_n_sets = hier.l2.n_sets
            l2_assoc = hier.l2.assoc
            owners = hier._l1_owners
            owners_get = owners.get
            owners_pop = owners.pop
            bit = 1 << core_id
            nbit = ~bit
            core_range = range(hp.n_cores)
            bank_free = hier._bank_free
            bank_mask = hier._bank_mask
            occupancy = hp.l2_occupancy
            l2_latency = hier.l2_latency
            mem_latency = hp.mem_latency
            transfer_latency = hp.l1_transfer_latency
            jump_bubble = hp.jump_bubble_cycles
            if hp.stream_buffers:
                per_line = max(
                    0.0, (l2_latency - hp.isb_hide_cycles) * hp.isb_expose_frac
                )
            else:
                per_line = float(l2_latency)
            pressure = hier._code_pressure[core_id]
            regions = pressure._regions
            capacity = pressure._capacity_lines
            window = 4 * capacity
            total = pressure._total
            credit = pressure.miss_credit
            # The evicted fraction the last touch returned: a function of
            # the footprint total alone, so it is exact to rebuild here.
            frac = 0.0 if total <= capacity else 1.0 - capacity / total
            # Counters a block always moves (data accesses, instruction
            # blocks, L1D misses, L1-level fetches) are derived at close
            # from the block count and the rarer counters below.
            l1_hits = lv_l1x = lv_l2 = lv_mem = 0
            ilv_l2 = ilv_mem = 0
            queue_delay = queued = 0
            l1_evictions = l1_writebacks = 0
            l2_hits = l2_misses = l2_evictions = l2_writebacks = 0
            base = footprints[last_region].base if last_region >= 0 else -1
        sends = 0
        try:
            top = yield t
            while True:
                sends += 1
                while True:
                    # -- advance the context (_Context.advance fast path)
                    pos += 1
                    if pos < n and (quantum_left > 0 or single):
                        quantum_left -= 1
                    else:
                        # Client rotation or trace wrap: rare, so hand the
                        # cursor to _Context.advance and reload the trace.
                        ctx.pos = pos - 1
                        ctx.quantum_left = quantum_left
                        ctx.last_region = last_region
                        ctx.advance()
                        pos = ctx.pos
                        quantum_left = ctx.quantum_left
                        last_region = ctx.last_region
                        trace = ctx.trace
                        n = ctx.n
                        meta = trace.meta
                        addrs = trace.addrs
                        footprints = trace.footprints
                        mpki = trace.branch_mpki
                        end_pos = n - 1 if pass_target is not None else -2
                    m = meta[pos]
                    icount = m >> 24
                    flags = m & 0xFF
                    region = (m >> 8) & 0xFFFF
                    compute = icount / rate
                    branch = icount * mpki / 1000.0 * penalty
                    computation += compute
                    other += branch
                    retired += icount
                    # -- instruction fetch
                    if not inline:
                        fp = footprints[region]
                        i_exposed, i_level = hier.instr_block(
                            core_id, fp.base, fp.n_lines,
                            max(1, icount // _INSTR_PER_LINE),
                            region != last_region
                            or bool(flags & FLAG_CODE_JUMP), t
                        )
                        last_region = region
                        i_stall = max(0.0, i_exposed - ifetch_hide)
                        if i_stall > 0:
                            if i_level == MEM:
                                i_mem += i_stall
                            else:
                                i_l2 += i_stall
                        access_t = t + i_stall + compute
                    elif region != last_region or flags & FLAG_CODE_JUMP:
                        if region != last_region:
                            # _CodePressure.touch.  A repeat of the last
                            # region finds its base most recent and the
                            # total unchanged: the touch is a no-op and
                            # the previous fraction still holds.
                            fp = footprints[region]
                            base = fp.base
                            old = regions.pop(base, None)
                            if old is not None:
                                total -= old
                            rl = fp.n_lines
                            regions[base] = rl
                            total += rl
                            while total > window and len(regions) > 1:
                                total -= regions.pop(next(iter(regions)))
                            frac = (0.0 if total <= capacity
                                    else 1.0 - capacity / total)
                            last_region = region
                        # A jump: the hot paths of recent modules stay
                        # L1I-resident, so only the evicted fraction of
                        # jumps fetch from the L2 (a fractional credit).
                        exposed = 0.0
                        i_level = L1
                        credit += frac
                        if credit >= 1.0:
                            credit -= 1.0
                            line = base >> 6
                            bank = line & bank_mask
                            free = bank_free[bank]
                            qdelay = free - t if free > t else 0.0
                            bank_free[bank] = t + qdelay + occupancy
                            if qdelay:
                                queue_delay += int(qdelay)
                                queued += 1
                            l2d = l2_sets[line % l2_n_sets]
                            state = l2d.pop(line, -1)
                            if state >= 0:
                                l2_hits += 1
                                l2d[line] = state
                                exposed += l2_latency + qdelay
                                i_level = L2
                            else:
                                l2_misses += 1
                                if len(l2d) >= l2_assoc:
                                    for vline in l2d:
                                        break
                                    l2_evictions += 1
                                    if l2d.pop(vline):
                                        l2_writebacks += 1
                                l2d[line] = CLEAN
                                exposed += l2_latency + qdelay + mem_latency
                                i_level = MEM
                        else:
                            exposed += jump_bubble
                        n_lines = (icount // _INSTR_PER_LINE or 1) - 1
                        if n_lines > 0 and frac > 0.0 and per_line:
                            exposed += n_lines * per_line * frac
                            if i_level == L1:
                                i_level = L2
                        if i_level == L2:
                            ilv_l2 += 1
                        elif i_level == MEM:
                            ilv_mem += 1
                        # `x if x > 0.0 else 0.0` is max(0.0, x), value
                        # and type, without the call.
                        i_stall = int(exposed) - ifetch_hide
                        if i_stall > 0.0:
                            if i_level == MEM:
                                i_mem += i_stall
                            else:
                                i_l2 += i_stall
                            access_t = t + i_stall + compute
                        else:
                            access_t = t + compute
                    elif frac > 0.0 and per_line:
                        # Sequential fetch through a thrashing footprint:
                        # the stream buffer hides most of the L2 latency.
                        ilv_l2 += 1
                        i_stall = int((icount // _INSTR_PER_LINE or 1)
                                      * per_line * frac) - ifetch_hide
                        if i_stall > 0.0:
                            i_l2 += i_stall
                            access_t = t + i_stall + compute
                        else:
                            access_t = t + compute
                    else:
                        # Nothing exposed: a zero stall adds exactly 0.0.
                        access_t = t + compute
                    # -- data reference
                    write = flags & FLAG_WRITE
                    if inline:
                        line = addrs[pos] >> 6
                        sdict = l1_sets[line % l1_n_sets]
                        state = sdict.pop(line, -1)
                        if state >= 0:
                            # L1 hit: CLEAN is 0 and DIRTY is 1, so the
                            # new state is a plain OR of the write bit.
                            l1_hits += 1
                            sdict[line] = state | write
                            d_level = L1
                        else:
                            if len(sdict) >= l1_assoc:
                                for vline in sdict:
                                    break
                                l1_evictions += 1
                                if sdict.pop(vline):
                                    l1_writebacks += 1
                                # Drop this core from the victim's owners
                                # (the map's order is never observed).
                                vmask = owners_pop(vline, 0) & nbit
                                if vmask:
                                    owners[vline] = vmask
                            sdict[line] = write
                            d_level = L2
                            omask = owners_get(line, 0)
                            sibling_mask = omask & nbit
                            if sibling_mask:
                                # Dirty sibling copies take an L1-to-L1
                                # intervention; clean ones are served by
                                # the L2 below.
                                dirty_sibling = False
                                set_idx = line % l1_n_sets
                                for o in core_range:
                                    if sibling_mask >> o & 1:
                                        osets = sibling_sets[o][set_idx]
                                        if osets.get(line) == DIRTY:
                                            dirty_sibling = True
                                        if write:
                                            osets.pop(line, None)
                                owners[line] = (bit if write
                                                else sibling_mask | bit)
                                if dirty_sibling:
                                    l2d = l2_sets[line % l2_n_sets]
                                    state = l2d.pop(line, None)
                                    if state is not None:
                                        l2d[line] = state
                                    lv_l1x += 1
                                    lat = transfer_latency
                                    d_level = L1X
                            else:
                                owners[line] = omask | bit
                            if d_level != L1X:
                                bank = line & bank_mask
                                free = bank_free[bank]
                                qdelay = (free - access_t if free > access_t
                                          else 0.0)
                                bank_free[bank] = access_t + qdelay + occupancy
                                if qdelay:
                                    queue_delay += int(qdelay)
                                    queued += 1
                                l2d = l2_sets[line % l2_n_sets]
                                state = l2d.pop(line, -1)
                                if state >= 0:
                                    l2_hits += 1
                                    l2d[line] = state | write
                                    lv_l2 += 1
                                    lat = int(l2_latency + qdelay)
                                else:
                                    l2_misses += 1
                                    if len(l2d) >= l2_assoc:
                                        for vline in l2d:
                                            break
                                        l2_evictions += 1
                                        if l2d.pop(vline):
                                            l2_writebacks += 1
                                    l2d[line] = write
                                    lv_mem += 1
                                    lat = int(l2_latency + qdelay + mem_latency)
                                    d_level = MEM
                    else:
                        lat, d_level = hier.data_access(
                            core_id, addrs[pos], bool(write), access_t
                        )
                    if d_level == L1:
                        t = access_t + branch
                    else:
                        if write:
                            # Stores retire through the store buffer; a
                            # burst drains at latency/depth per store.
                            d_exposed = lat / store_depth
                        elif flags & FLAG_DEPENDENT:
                            if flags & FLAG_STREAM and lat >= 100:
                                # A dependent decode inside a sequential
                                # scan: the miss streams from memory
                                # ahead of use; part of it is exposed.
                                d_exposed = lat / mlp - compute
                            else:
                                # Pointer chase: nothing to overlap with.
                                d_exposed = lat - dep_hide
                        else:
                            # Independent miss: overlapped with the
                            # preceding compute (up to the ROB window) and
                            # with up to ``mlp`` sibling misses.
                            d_exposed = lat / mlp - (
                                oo_window if oo_window < compute else compute)
                        if d_exposed > 0.0:
                            if d_level == L2:
                                d_l2 += d_exposed
                            elif d_level == MEM:
                                d_mem += d_exposed
                            elif d_level == COH:
                                d_coh += d_exposed
                            elif d_level == L1X:
                                d_l1x += d_exposed
                            t = access_t + branch + d_exposed
                        else:
                            # max(0.0, d_exposed) == 0.0 adds nothing.
                            t = access_t + branch
                    if pos == end_pos and ctx.passes + 1 >= pass_target:
                        # The block just executed was the trace's last:
                        # the pass completes now.
                        ctx.finished_at = t
                        ctx.state = _Context.IDLE
                        while True:
                            yield math.inf
                    if t < top and t <= horizon:
                        batched += 1
                        continue
                    break
                top = yield t
        finally:
            self.t = t
            ctx.pos = pos
            ctx.quantum_left = quantum_left
            ctx.last_region = last_region
            ctx.retired = retired
            bd.computation = computation
            bd.other = other
            bd.i_l2 = i_l2
            bd.i_mem = i_mem
            bd.d_l1x = d_l1x
            bd.d_l2 = d_l2
            bd.d_mem = d_mem
            bd.d_coh = d_coh
            self.batched_steps += batched
            if inline:
                blocks = sends + batched
                pressure._total = total
                pressure.miss_credit = credit
                stats = hier.stats
                stats.data_accesses += blocks
                counts = stats.data_level_counts
                counts[L1] += l1_hits
                counts[L1X] += lv_l1x
                counts[L2] += lv_l2
                counts[MEM] += lv_mem
                stats.instr_blocks += blocks
                counts = stats.instr_level_counts
                counts[L1] += blocks - ilv_l2 - ilv_mem
                counts[L2] += ilv_l2
                counts[MEM] += ilv_mem
                stats.l2_queue_delay += queue_delay
                stats.l2_queued_accesses += queued
                cs = l1.stats
                cs.hits += l1_hits
                cs.misses += blocks - l1_hits
                cs.evictions += l1_evictions
                cs.writebacks += l1_writebacks
                cs = hier.l2.stats
                cs.hits += l2_hits
                cs.misses += l2_misses
                cs.evictions += l2_evictions
                cs.writebacks += l2_writebacks

    def settle(self, horizon: float) -> None:
        """End-of-window hook: nothing to flush on a fat core.

        Fat cores account whole blocks atomically at completion time —
        there is no partially-attributed interval to close at the window
        edge, so the camp-uniform settle is a documented no-op (the lean
        camp's interval accounting is the one that needs flushing).
        """


class LeanCore:
    """A lean-camp core: processor sharing among runnable hardware contexts.

    Runnable contexts split the core's issue bandwidth equally (fine-grained
    round-robin); a context that misses beyond the L1 stalls until serviced
    while the core keeps running the others.  Core-level stall time is
    accounted only when *all* contexts are stalled, attributed to the
    category of the context that wakes first (DESIGN.md decision 6).
    """

    def __init__(self, core_id: int, params: CoreParams, hierarchy,
                 context_traces: list[list[Trace]],
                 context_offsets: list[list[int]] | None = None):
        if len(context_traces) > params.n_contexts:
            raise ValueError(
                f"{len(context_traces)} contexts exceed the core's "
                f"{params.n_contexts} hardware contexts"
            )
        self.core_id = core_id
        self.params = params
        self.hier = hierarchy
        if context_offsets is None:
            context_offsets = [None] * len(context_traces)
        self.contexts = [
            _Context(traces, params, offs)
            for traces, offs in zip(context_traces, context_offsets)
        ]
        self.t = 0.0
        self.breakdown = Breakdown()
        self.pass_target: int | None = None
        #: Steps :meth:`loop` ran past the first of a ``send``.
        self.batched_steps = 0
        for ctx in self.contexts:
            if ctx.state == _Context.RUNNABLE:
                self._load_next_block(ctx)

    @property
    def retired(self) -> int:
        """Instructions retired across all contexts."""
        return sum(c.retired for c in self.contexts)

    # ------------------------------------------------------------------ #
    # Event machinery                                                     #
    # ------------------------------------------------------------------ #

    def _runnable(self) -> list[_Context]:
        return [c for c in self.contexts if c.state == _Context.RUNNABLE]

    def next_time(self) -> float:
        """Earliest of: next wake-up, next processor-sharing completion."""
        nxt = math.inf
        n_run = 0
        min_work = math.inf
        stalled = _Context.STALLED
        runnable = _Context.RUNNABLE
        for c in self.contexts:
            if c.state == stalled and c.wake_time < nxt:
                nxt = c.wake_time
            elif c.state == runnable:
                n_run += 1
                if c.work_left < min_work:
                    min_work = c.work_left
        if n_run:
            completion = self.t + min_work * n_run
            if completion < nxt:
                nxt = completion
        return nxt

    def _advance_to(self, t: float) -> None:
        """Progress runnable work and attribute the elapsed interval."""
        dt = t - self.t
        if dt <= 0:
            self.t = t
            return
        runnable = self._runnable()
        bd = self.breakdown
        if runnable:
            share = dt / len(runnable)
            for c in runnable:
                c.work_left -= share
                bd.computation += share * c.comp_frac
                bd.other += share * (1.0 - c.comp_frac)
        else:
            waker = None
            for c in self.contexts:
                if c.state == _Context.STALLED and (
                    waker is None or c.wake_time < waker.wake_time
                ):
                    waker = c
            if waker is None:
                bd.idle += dt
            elif waker.wake_is_instr:
                _account_instr(bd, waker.wake_level, dt)
            else:
                _account_data(bd, waker.wake_level, dt)
        self.t = t

    def _load_next_block(self, ctx: _Context) -> None:
        """Fetch the context's next trace event and set up its work.

        An exposed instruction fetch stalls the context first; otherwise it
        becomes runnable with the block's compute work.
        """
        # Inlined _Context.advance fast path (see FatCore.loop).
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
        branch = (icount * trace.branch_mpki / 1000.0
                  * self.params.branch_penalty)
        ctx.last_region = region
        i_exposed, i_level = self.hier.instr_block(
            self.core_id, fp.base, fp.n_lines, n_lines, jumped, self.t
        )
        work = compute + branch
        ctx.work_left = work
        ctx.comp_frac = compute / work if work > 0 else 1.0
        ctx.pending_addr = addr
        ctx.pending_flags = flags
        ctx.pending_icount = icount
        ctx.has_pending = True
        if i_exposed > 0:
            ctx.state = _Context.STALLED
            ctx.wake_time = self.t + i_exposed
            ctx.wake_level = i_level
            ctx.wake_is_instr = True
        else:
            ctx.state = _Context.RUNNABLE

    def _complete_block(self, ctx: _Context, t: float) -> None:
        """Retire the context's current block and perform its data reference."""
        ctx.has_pending = False
        ctx.retired += ctx.pending_icount
        lat, level = self.hier.data_access(
            self.core_id,
            ctx.pending_addr,
            bool(ctx.pending_flags & FLAG_WRITE),
            t,
        )
        if level != L1 and ctx.pending_flags & FLAG_WRITE:
            # Store-buffer drain (see CoreParams.store_buffer_depth).
            lat = lat / self.params.store_buffer_depth
        elif (level != L1 and ctx.pending_flags & FLAG_STREAM
              and lat >= 100):
            # Sequential-scan miss: the line buffer streams it from
            # memory; an in-order core gets about half the fat camp's
            # benefit (no out-of-order slip to run ahead).
            lat = lat / 2.0
        elif level != L1 and not ctx.pending_flags & FLAG_DEPENDENT:
            # Lockup-free L1: an independent access overlaps with the
            # compiler-scheduled slack before its first use.
            lat = max(0.0, lat - self.params.hit_under_miss_cycles)
        last_of_pass = ctx.pos == ctx.n - 1
        if (
            self.pass_target is not None
            and last_of_pass
            and ctx.passes + 1 >= self.pass_target
        ):
            # Response-time mode: the pass (query/transaction batch) ends
            # once the final reference is serviced.
            ctx.finished_at = t if level == L1 else t + lat
            ctx.state = _Context.IDLE
            return
        if level == L1 or lat <= 0:
            self._load_next_block(ctx)
        else:
            ctx.state = _Context.STALLED
            ctx.wake_time = t + lat
            ctx.wake_level = level
            ctx.wake_is_instr = False

    def settle(self, horizon: float) -> None:
        """Close the window: attribute the trailing interval up to horizon.

        A lean core accounts time as explicit intervals (processor
        sharing / all-stalled attribution), so the stretch between its
        last event and the measurement horizon must be attributed like
        any other interval.  Only the genuinely trailing case advances —
        a core whose next event lies *inside* the window never reaches
        here with ``next_time() < horizon``.  The machine calls this
        uniformly for both camps; :meth:`FatCore.settle` documents why
        the fat camp's is a no-op.
        """
        if self.t < horizon and self.next_time() >= horizon:
            self._advance_to(horizon)

    def loop(self, horizon: float = math.inf):
        """The :meth:`FatCore.loop` protocol over :meth:`step`.

        Lean cores keep their per-event methods; the generator only
        batches steps whose next event strictly precedes ``top``.
        """
        top = yield self.next_time()
        batched = 0
        try:
            while True:
                self.step()
                nt = self.next_time()
                while nt < top and nt <= horizon:
                    self.step()
                    nt = self.next_time()
                    batched += 1
                top = yield nt
        finally:
            self.batched_steps += batched

    def step(self) -> None:
        """Advance to the next event and process every due transition."""
        t = self.next_time()
        if t is math.inf:
            return
        self._advance_to(t)
        stalled = _Context.STALLED
        runnable = _Context.RUNNABLE
        deadline = t + _EPS
        for ctx in self.contexts:
            if ctx.state == stalled and ctx.wake_time <= deadline:
                ctx.wake_time = math.inf
                ctx.state = runnable
                if not ctx.wake_is_instr:
                    # The data stall ended the block; move to the next one.
                    self._load_next_block(ctx)
        for ctx in self.contexts:
            if (
                ctx.state == runnable
                and ctx.has_pending
                and ctx.work_left <= _EPS
            ):
                self._complete_block(ctx, t)
