"""Job execution and the multiprocessing worker pool.

:func:`execute_job` is the single definition of "run one profiling
session": build a kernel with the job's engine and seed, attach DProf
(with the job's fault plan, if any), drive the scenario from the
``SCENARIOS`` registry, detach, and serialize the session.  Everything
that runs jobs -- pool workers, the CLI's one-shot ``run-once``, and the
``dprofbench`` kernel workload -- goes through this function, which is
what makes service results bit-identical to one-shot runs.
:func:`collect_history_session` is the other session recipe: a full
case-study run with pairwise history collection.

The pool itself is deliberately simple: N long-lived processes pulling
``(job_id, spec)`` tuples from a shared task queue and pushing
``(kind, worker_id, payload)`` events to a shared result queue.  The
*server* owns scheduling (it holds jobs in a priority queue and only
dispatches when a worker slot is free), so the mp queues never hold more
than one task per worker and priority inversion cannot occur.  Workers
that die mid-job are detected by liveness polling; the server requeues
the orphaned job and calls :meth:`WorkerPool.restart`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import signal
import time

from repro.dprof.profiler import DProf, DProfConfig
from repro.dprof.session_io import export_session
from repro.serve.jobs import JobSpec, status_from_exit_code
from repro.serve.store import SessionStore
from repro.trace import (
    TRACE_SUFFIX,
    NULL_TRACER,
    SimProbe,
    Tracer,
    config_fingerprint,
)
from repro.workloads import (
    SCENARIOS,
    ApacheWorkload,
    MemcachedWorkload,
    build_kernel,
)

#: Poison pill telling a worker to exit its loop.
_STOP = None

#: How often an idle worker checks that its server is still alive.
PARENT_POLL_S = 1.0


def execute_job(spec: JobSpec, tracer=None) -> tuple[str, str, dict]:
    """Run one profiling session; returns (status, archive_text, info).

    Deterministic: equal specs yield byte-identical ``archive_text``
    (the simulation, fault plans, and JSON encoding are all seed-driven
    and order-stable).  ``status`` maps the session's
    :class:`~repro.dprof.quality.DataQuality` to ok/degraded/failed the
    same way the one-shot CLI maps it to exit codes 0/3/4.

    ``spec.trace`` (or an explicit *tracer*) records run -> scenario ->
    machine-sim spans; the simulator is observed through a cheap sampled
    :class:`~repro.trace.SimProbe`, never per-event spans, so tracing
    does not perturb the archive bytes.
    """
    if tracer is None:
        tracer = Tracer(seed=spec.seed) if spec.trace else NULL_TRACER
    with tracer.span("run", scenario=spec.scenario, engine=spec.engine):
        kernel = build_kernel(spec.cores, seed=spec.seed, engine=spec.engine)
        dprof = DProf(
            kernel,
            DProfConfig(ibs_interval=spec.interval, analysis=spec.analysis),
            faults=spec.fault_plan(),
            tracer=tracer,
        )
        dprof.attach()
        try:
            with tracer.span("scenario", scenario=spec.scenario):
                probe = SimProbe() if tracer.enabled else None
                kernel.machine.trace_probe = probe
                try:
                    with tracer.span("machine-sim"):
                        result = SCENARIOS[spec.scenario](kernel, spec.duration)
                        if probe is not None:
                            tracer.add(**probe.counters())
                finally:
                    kernel.machine.trace_probe = None
        finally:
            dprof.detach()
        quality = dprof.data_quality()
        archive_text = json.dumps(export_session(dprof))
        code = quality.exit_code()
        tracer.add(
            instructions=kernel.machine.total_instructions,
            archive_bytes=len(archive_text),
        )
    info = {
        "throughput": round(result.throughput, 3),
        "quality": quality.coverage_line(),
        "exit_code": code,
    }
    return status_from_exit_code(code), archive_text, info


def execute_job_to_store(spec: JobSpec, store_root) -> dict:
    """Execute *spec* and land its archive in the store; returns the
    outcome blob the service attaches to the job record.

    With ``spec.trace`` set, the span trace is written next to the
    archive as ``<digest>.trace.jsonl`` (manifest first line) and the
    raw span blobs ride along in the outcome so the server can adopt
    them into its own trace.
    """
    t0 = time.perf_counter()
    tracer = Tracer(seed=spec.seed) if spec.trace else NULL_TRACER
    status, archive_text, info = execute_job(spec, tracer=tracer)
    store = SessionStore(store_root)
    put = tracer.begin("store-put")
    digest = store.put_text(archive_text)
    if put is not None:
        tracer.end(put, bytes=len(archive_text))
    outcome = {
        "status": status,
        "digest": digest,
        "wall_s": time.perf_counter() - t0,
        **info,
    }
    if tracer.enabled:
        manifest = tracer.manifest(
            fingerprint=config_fingerprint(spec.canonical()),
            engine=spec.engine,
            analysis=spec.analysis,
            quality=info.get("quality", ""),
            scenario=spec.scenario,
            digest=digest,
        )
        trace_path = store.path_for(digest).with_name(digest + TRACE_SUFFIX)
        tracer.write_jsonl(trace_path, manifest)
        outcome["trace_path"] = str(trace_path)
        outcome["spans"] = tracer.to_blobs()
    return outcome


def collect_history_session(
    name: str, *, ncores: int, seed: int
):
    """Run one case-study workload under DProf and collect pairwise
    skbuff histories (the same attach/collect pattern the ``diagnose``
    command uses); returns the detached profiler."""
    kernel = build_kernel(ncores, seed=seed, engine="fast")
    workload = (
        MemcachedWorkload(kernel) if name == "memcached" else ApacheWorkload(kernel)
    )
    workload.setup()
    workload.start()
    if name == "apache":
        # Apache traffic is arrival-driven (memcached's clients are
        # self-sustaining); push a schedule long enough to cover history
        # collection or no skbuffs ever churn.  Its packet rate is also
        # lower, so sample denser and warm up longer before arming the
        # collector -- every seed then fills all three history sets.
        workload.schedule_arrivals(
            30_000_000, start_cycle=kernel.elapsed_cycles()
        )
    ibs_interval = 200 if name == "apache" else 400
    warmup = 1_200_000 if name == "apache" else 600_000
    kernel.run(until_cycle=150_000)
    dprof = DProf(kernel, DProfConfig(ibs_interval=ibs_interval))
    dprof.attach()
    kernel.run(until_cycle=kernel.elapsed_cycles() + warmup)
    dprof.collect_histories(
        "skbuff", sets=3, hot_chunks=4, member_offsets=[0], pair=True
    )
    kernel.run(
        until_cycle=kernel.elapsed_cycles() + 20_000_000,
        stop_when=lambda: dprof.histories_done,
    )
    dprof.detach()
    return dprof


def worker_main(worker_id: int, task_q, result_q, store_root: str) -> None:
    """One pool worker's loop (runs in a child process).

    SIGINT is ignored (Ctrl-C belongs to the server, which drains);
    SIGTERM keeps its default so the server can terminate a stuck worker
    during drain and requeue its job.  A server killed outright sends no
    poison pill, so an idle worker also exits once it has been reparented.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    while True:
        try:
            item = task_q.get(timeout=PARENT_POLL_S)
        except queue.Empty:
            if os.getppid() != parent:
                # Nobody reads the results any more: don't wait on the
                # queue's feeder thread at exit.
                result_q.cancel_join_thread()
                return
            continue
        if item is _STOP:
            result_q.put(("exit", worker_id, None))
            return
        job_id, spec_wire = item
        result_q.put(("started", worker_id, job_id))
        try:
            spec = JobSpec.from_wire(spec_wire)
            outcome = execute_job_to_store(spec, store_root)
            result_q.put(("done", worker_id, (job_id, outcome)))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            result_q.put(
                ("failed", worker_id, (job_id, f"{type(exc).__name__}: {exc}"))
            )


def _mp_context():
    """Fork where available (fast, inherits the imported simulator);
    platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class WorkerPool:
    """N worker processes around shared task/result queues."""

    def __init__(self, nworkers: int, store_root) -> None:
        self.nworkers = nworkers
        self.store_root = str(store_root)
        self._ctx = _mp_context()
        self.task_q = self._ctx.Queue()
        self.result_q = self._ctx.Queue()
        self.procs: dict[int, multiprocessing.Process] = {}
        self._next_id = 0

    def start(self) -> None:
        for _ in range(self.nworkers):
            self._spawn()

    def _spawn(self) -> int:
        worker_id = self._next_id
        self._next_id += 1
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.task_q, self.result_q, self.store_root),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        proc.start()
        self.procs[worker_id] = proc
        return worker_id

    def submit(self, job_id: str, spec: JobSpec) -> None:
        self.task_q.put((job_id, spec.to_wire()))

    def dead_workers(self) -> list[int]:
        """Workers whose process has exited without being stopped."""
        return [wid for wid, proc in self.procs.items() if not proc.is_alive()]

    def restart(self, worker_id: int) -> int:
        """Reap a dead worker and spawn its replacement."""
        proc = self.procs.pop(worker_id, None)
        if proc is not None:
            proc.join(timeout=0.1)
        return self._spawn()

    def terminate_worker(self, worker_id: int) -> None:
        """Forcibly stop one worker (drain-timeout path)."""
        proc = self.procs.pop(worker_id, None)
        if proc is not None:
            proc.terminate()
            proc.join(timeout=2.0)

    def stop(self, grace_s: float = 5.0) -> None:
        """Poison-pill every worker, then terminate stragglers."""
        for _ in self.procs:
            self.task_q.put(_STOP)
        deadline = time.monotonic() + grace_s
        for proc in list(self.procs.values()):
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for wid, proc in list(self.procs.items()):
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            self.procs.pop(wid, None)
