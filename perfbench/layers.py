"""Per-layer instrumentation for the traced run.

Two tools, both installed from the benchmark's own process and never
from inside the program:

- :class:`SpanRecorder` wraps functions at layer boundaries and records
  one span (id, name, parent, start, end) per call.  Spans stay in
  memory until the run ends; self time is a span's duration minus the
  durations of its direct children (one thread, so children never
  overlap).
- :class:`ModuleSampler` charges CPU-time samples to the ``repro``
  module the interpreter is executing, in this process and in every
  pool worker forked from it.  A builtin (C) function has no frame of
  its own, so its time lands on the Python frame that called it.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
from multiprocessing import util


class SpanRecorder:
    """In-memory span log for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.monotonic(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = time.monotonic()

    def install(self, name: str, fn) -> int:
        """Replace ``fn`` by a traced wrapper wherever a loaded ``repro``
        module or class binds it; returns the number of bindings patched.

        Every binding matters because modules import functions by name
        (``from .parallel import execute``)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for owner in [module] + [v for v in vars(module).values()
                                     if isinstance(v, type)]:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, attr, traced)
                        patched += 1
        return patched

    def self_times(self) -> dict[int, float]:
        """Span id -> self seconds."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)


def module_name(filename: str, package_dir: str) -> str | None:
    """``<package_dir>/db/exec/fused.py`` -> ``db.exec.fused``; None for
    a file outside the package."""
    if not filename.startswith(package_dir) or not filename.endswith(".py"):
        return None
    rel = filename[len(package_dir):-3].replace(os.sep, ".")
    if rel.endswith("__init__"):
        rel = rel[:-len("__init__")].rstrip(".")
    return rel or "repro"


class ModuleSampler:
    """CPU-time samples per (phase, module) — statistical self time.

    ``SIGPROF`` fires every ``INTERVAL`` seconds of process CPU time and
    the handler charges one sample to the module of the frame the main
    thread is in (``""`` outside the package).  A process blocked on a
    lock or a pipe uses no CPU and collects no samples.

    Pool workers forked while the sampler runs start their own timer
    (interval timers are not inherited across ``fork``), count under
    the ``run`` phase and write their counts to ``out_dir`` every
    ``FLUSH`` samples, at a normal exit, and on the ``SIGTERM`` with
    which the sweep layer tears its pool down.
    """

    INTERVAL = 0.001
    FLUSH = 100

    def __init__(self, package_dir: str, out_dir: str):
        self.package_dir = package_dir.rstrip(os.sep) + os.sep
        self.out_dir = out_dir
        self.phase = "build"
        self.counts: dict[str, dict[str, int]] = {}
        self.active = False
        self._worker = False
        self._unflushed = 0
        self._flushing = False
        self._terminating = False
        self._names: dict[str, str] = {}
        util.register_after_fork(self, ModuleSampler._after_fork)

    def start(self) -> None:
        self.active = True
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.active = False

    def _on_sample(self, signum, frame) -> None:
        if self._flushing:
            # A handler can run inside another handler's Python code;
            # never touch the counts while they are being written out.
            return
        filename = frame.f_code.co_filename
        mod = self._names.get(filename)
        if mod is None:
            mod = self._names[filename] = (
                module_name(filename, self.package_dir) or "")
        per = self.counts.setdefault(self.phase, {})
        per[mod] = per.get(mod, 0) + 1
        if self._worker:
            self._unflushed += 1
            if self._unflushed >= self.FLUSH:
                self._flush()

    def _after_fork(self) -> None:
        if not self.active:
            return
        self._worker = True
        self.counts = {}
        self.phase = "run"
        util.Finalize(None, self._flush, exitpriority=100)
        signal.signal(signal.SIGTERM, self._on_terminate)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def _on_terminate(self, signum, frame) -> None:
        """A terminated worker writes its counts out, then exits."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._terminating = True
        if not self._flushing:
            self._flush()
        # Otherwise the flush this handler interrupted exits when done.

    def _flush(self) -> None:
        self._flushing = True
        try:
            self._unflushed = 0
            path = os.path.join(self.out_dir, f"samples-{os.getpid()}.json")
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(self.counts, fh)
            os.replace(path + ".tmp", path)
        finally:
            self._flushing = False
        if self._terminating:
            os._exit(128 + signal.SIGTERM)

    def totals(self) -> dict[str, dict[str, int]]:
        """Samples per phase and module, this process plus its workers."""
        merged = {phase: dict(per) for phase, per in self.counts.items()}
        for name in sorted(os.listdir(self.out_dir)):
            if not (name.startswith("samples-") and name.endswith(".json")):
                continue
            with open(os.path.join(self.out_dir, name),
                      encoding="utf-8") as fh:
                for phase, per in json.load(fh).items():
                    into = merged.setdefault(phase, {})
                    for mod, n in per.items():
                        into[mod] = into.get(mod, 0) + n
        return merged
