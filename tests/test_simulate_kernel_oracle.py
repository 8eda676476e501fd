"""Oracle for the simulate path's exact window accounting.

Lean cores' per-core breakdowns must attribute the measurement window
*exactly*, which only holds if ``_run_throughput`` settles the open
interval between each core's last event and the horizon.  The check
runs twice: once deriving the warm state by the full warm walk, and
once restoring it from the L2-free warm memo, which must leave the
measured run bit-identical to the derived one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.parallel import WARM_FRACTIONS
from repro.simulator import machine as machine_mod
from repro.simulator.configs import lc_cmp
from repro.simulator.machine import Machine
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
