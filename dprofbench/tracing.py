"""Traced-run instruments: benchmark-side spans and a host-time sampler.

Spans are recorded by the benchmark around each call it makes into the
program (and around ``Kernel.run`` phases, by wrapping the method for
the duration of a traced run).  They stay in memory and are written as
JSON lines when the run ends.

The sampler attributes in-process host time to simulator layers: a
``signal.setitimer(ITIMER_PROF)`` tick charges the innermost ``repro``
frame's module to one ``host.*`` bucket (the call-stack approach of
"Understanding Simulated Architecture via gem5 Call-Stack Profiling").
"""

from __future__ import annotations

import json
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **counts):
        stack = self._stack()
        with self._lock:
            span = Span(
                span_id=len(self.spans),
                parent=stack[-1].span_id if stack else None,
                name=name,
                start=time.perf_counter(),
                counts=dict(counts),
            )
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_times(self) -> dict[int, float]:
        """span_id -> duration minus the part its children cover."""
        kids = self.children()
        return {
            s.span_id: s.duration
            - covered(s.start, s.end, [(c.start, c.end) for c in kids.get(s.span_id, ())])
            for s in self.spans
        }

    def min_root_coverage(self) -> float:
        """Smallest share of an operation's wall that call spans cover.

        A root span is one operation.  Its children are the calls it
        made; a root without children is itself the span of its one call.
        """
        selfs = self.self_times()
        kids = self.children()
        shares = [
            1.0 - selfs[r.span_id] / r.duration if r.span_id in kids else 1.0
            for r in self.spans
            if r.parent is None and r.duration > 0
        ]
        return min(shares) if shares else 0.0

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent,
                            "name": s.name,
                            "start_s": round(s.start - t0, 6),
                            "dur_s": round(s.duration, 6),
                            "self_s": round(selfs[s.span_id], 6),
                            "counts": s.counts,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class _NullSpan:
    counts: dict = {}


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    _SPAN = _NullSpan()

    @contextmanager
    def span(self, name: str, **counts):
        yield self._SPAN


NULL_TRACER = NullTracer()


def _sim_counts(machine) -> dict:
    delivered, _dropped, _corrupted = machine.ibs_delivery_counts()
    return {
        "instructions": machine.total_instructions,
        "ibs_samples": delivered,
        "overhead_cycles": machine.total_overhead_cycles(),
        "core_cycles": machine.total_cycles(),
    }


@contextmanager
def kernel_run_spans(tracer: Tracer, kernel_cls, names: tuple[str, ...]):
    """Record a span around each ``kernel_cls.run`` call while active.

    The n-th call is named ``names[n]`` (the last name repeats).  Each
    span carries the simulated instructions, IBS samples, overhead
    cycles and summed core cycles that phase added.
    """
    original = kernel_cls.run
    calls = [0]

    def run(self, **kwargs):
        name = names[min(calls[0], len(names) - 1)]
        calls[0] += 1
        before = _sim_counts(self.machine)
        with tracer.span(name) as span:
            original(self, **kwargs)
        after = _sim_counts(self.machine)
        span.counts.update({k: after[k] - before[k] for k in after})

    kernel_cls.run = run
    try:
        yield
    finally:
        kernel_cls.run = original


# ----------------------------------------------------------------------
# Host-time attribution
# ----------------------------------------------------------------------

#: host.* bucket -> the repro modules it owns.  An entry names a module
#: and, unless it is listed in EXACT_ONLY, every module below it.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "hw.machine": ("repro.hw", "repro.hw.machine", "repro.hw.core", "repro.hw.events"),
    "hw.hierarchy": (
        "repro.hw.fastpath",
        "repro.hw.hierarchy",
        "repro.hw.coherence",
        "repro.hw.cache",
        "repro.hw.memory",
        "repro.hw.interconnect",
        "repro.hw.addr",
    ),
    "hw.ibs": ("repro.hw.ibs", "repro.hw.pebs", "repro.dprof.access_sampler"),
    "dprof.history": ("repro.dprof.history", "repro.hw.debugreg"),
    "kernel": ("repro.kernel",),
    "workloads": ("repro.workloads",),
    "dprof.analysis": (
        "repro.dprof",
        "repro.dprof.analysis",
        "repro.dprof.cachesim",
        "repro.dprof.diagnosis",
        "repro.dprof.extensions",
        "repro.dprof.pathtrace",
        "repro.dprof.profiler",
        "repro.dprof.quality",
        "repro.dprof.records",
        "repro.dprof.report",
        "repro.dprof.resolver",
        "repro.dprof.session_io",
        "repro.dprof.views",
        "repro.metrics",
    ),
    "serve": ("repro.serve",),
    "other": (
        "repro",
        "repro.api",
        "repro.baselines",
        "repro.bench",
        "repro.cli",
        "repro.config",
        "repro.errors",
        "repro.faults",
        "repro.fixes",
        "repro.trace",
        "repro.util",
    ),
}

#: Package names that own only their ``__init__`` (their submodules are
#: assigned one by one above).
EXACT_ONLY = frozenset({"repro", "repro.hw", "repro.dprof"})

#: Ticks with no repro frame on the stack (the benchmark itself, stdlib).
OUTSIDE = "outside"
BUCKETS = tuple(LAYER_MODULES) + (OUTSIDE,)


def owners(module: str) -> list[str]:
    """Every bucket whose entries claim *module* (exactly one, ideally)."""
    found = []
    for bucket, entries in LAYER_MODULES.items():
        for entry in entries:
            if module == entry or (
                entry not in EXACT_ONLY and module.startswith(entry + ".")
            ):
                found.append(bucket)
    return found


class HostSampler:
    """ITIMER_PROF sampler charging each tick to one host.* bucket."""

    # 4 ms: a finer ITIMER_PROF interval is rounded up to the kernel's
    # timer tick on common configurations, so it adds no resolution.
    def __init__(self, interval_s: float = 0.004) -> None:
        self.interval_s = interval_s
        self.ticks = dict.fromkeys(BUCKETS, 0)
        #: Process CPU and wall seconds while sampling; the timer only
        #: advances on CPU time, so cpu_s / wall_s is the share of wall
        #: the samples can speak for.
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._bucket_of: dict[str, str] = {}
        self._previous = None
        self._t0 = (0.0, 0.0)

    def _bucket(self, module: str) -> str:
        bucket = self._bucket_of.get(module)
        if bucket is None:
            found = owners(module)
            bucket = found[0] if found else "other"
            self._bucket_of[module] = bucket
        return bucket

    def _tick(self, _signum, frame) -> None:
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module == "repro" or module.startswith("repro."):
                self.ticks[self._bucket(module)] += 1
                return
            frame = frame.f_back
        self.ticks[OUTSIDE] += 1

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self._t0 = (time.process_time(), time.perf_counter())
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self.cpu_s += time.process_time() - self._t0[0]
        self.wall_s += time.perf_counter() - self._t0[1]

    @property
    def total_ticks(self) -> int:
        return sum(self.ticks.values())

    def shares_pct(self) -> dict[str, float]:
        total = self.total_ticks or 1
        return {b: 100.0 * n / total for b, n in self.ticks.items()}

    def coverage_pct(self) -> float:
        return 100.0 * self.cpu_s / self.wall_s if self.wall_s else 0.0

    def seconds_in(self, bucket: str) -> float:
        """CPU seconds charged to *bucket* (its tick share of cpu_s)."""
        return self.cpu_s * self.ticks[bucket] / (self.total_ticks or 1)
