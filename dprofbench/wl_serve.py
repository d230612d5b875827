"""serve-mixed: a real ``repro.cli serve --workers 1`` under a read/write mix.

Two closed-loop callers, each on its own connection, drive one server
from this process (caller 0 on the main thread, caller 1 on a second
thread), so one job is usually queued behind the running one.  Each
caller repeats the cycle in :data:`CYCLE`:

- write: submit a fresh-seed job (memcached, apache, synthetic in
  turn), wait for it, fetch its data-profile and working-set views;
- read: fetch a view of one of the caller's earlier archives; three
  reads in four are views already rendered (``ViewCache`` hits), one in
  four is a view not rendered yet;
- resubmit: submit an earlier write's spec again and fetch its data
  profile (the server re-executes it today).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    WORK,
    child_pids,
    fresh_seeds,
    mean,
    percentile,
    proc_peak_rss_mb,
    program_env,
    rng_for,
)
from outcome import Outcome
from tracing import NULL_TRACER

NAME = "serve-mixed"
SCENARIOS = ("memcached", "apache", "synthetic")
CALLERS = 2
CYCLE = ("write", "write", "read", "read", "read", "read", "resubmit")
#: Views every write fetches, so later reads of them are cache hits.
WARM_VIEWS = ("data-profile", "working-set")
#: (view, top) pairs no write fetches: a read of one is a cold render.
COLD_VIEWS = (("metrics", None), ("quality", None), ("data-profile", 12), ("working-set", 12))
#: Nominal host seconds for one cycle of both callers (6 jobs, 1 worker).
NOMINAL_CYCLE_S = 0.8
#: Enough cycles that job and read latencies each have >= 100 samples,
#: so their p90 has at least ten samples beyond it.
MIN_CYCLES = 17
#: Server boots timed per run for set-up (median reported).
SETUP_BOOTS = 5
POLL_S = 0.003
BOOT_TIMEOUT_S = 60.0


def operations(seed: int, seconds: int) -> list[list[tuple]]:
    """Each caller's fixed operation list, from (*seed*, *seconds*) alone.

    Reads and resubmits name one of the same caller's earlier writes by
    index, so they always target an archive already in the store.
    """
    cycles = max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S))
    rng = rng_for(seed, NAME)
    seeds = iter(fresh_seeds(rng, CALLERS * cycles * CYCLE.count("write")))
    plans = []
    for caller in range(CALLERS):
        ops: list[tuple] = []
        writes = reads = 0
        unused_cold: list[set] = []
        for _ in range(cycles):
            for step in CYCLE:
                if step == "write":
                    scenario = SCENARIOS[(caller + writes) % len(SCENARIOS)]
                    ops.append(("write", scenario, next(seeds)))
                    unused_cold.append(set(range(len(COLD_VIEWS))))
                    writes += 1
                elif step == "read":
                    if reads % 4 == 3:
                        target = rng.choice([w for w in range(writes) if unused_cold[w]])
                        pick = rng.choice(sorted(unused_cold[target]))
                        unused_cold[target].discard(pick)
                        view, top = COLD_VIEWS[pick]
                        ops.append(("read", target, view, top, True))
                    else:
                        view = rng.choice(WARM_VIEWS)
                        ops.append(("read", rng.randrange(writes), view, None, False))
                    reads += 1
                else:
                    ops.append(("resubmit", rng.randrange(writes)))
        plans.append(ops)
    return plans


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One ``python -m repro.cli serve --workers 1`` child process."""

    def __init__(self, api, home) -> None:
        self.api = api
        self.store = home / "store"
        shutil.rmtree(home, ignore_errors=True)
        home.mkdir(parents=True)
        port_file = home / "port"
        self._log = open(home / "server.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--queue-size", "64", "--store", str(self.store), "--port-file", str(port_file)],
            cwd=ROOT, env=program_env(), stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._await_port(port_file)
            while not self.request({"op": "ping"}).get("ok"):
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - t0

    def _await_port(self, port_file) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during boot ({self.proc.returncode})")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.005)
        raise RuntimeError("server did not report its port")

    def request(self, message: dict) -> dict:
        return self.api.request_once("127.0.0.1", self.port, message, timeout=120.0)

    def client(self):
        return self.api.ServeClient("127.0.0.1", self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """Largest VmHWM in the server's process tree."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return max(proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Drain and stop the server, then wait for its whole tree."""
        kids = child_pids(self.proc.pid)
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"})
                self.proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 - fall back to signals below
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for pid in kids:
            _await_exit(pid)
        self._log.close()


def _alive(pid: int) -> bool:
    """True while *pid* runs (a zombie has ended; only its entry is left)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _await_exit(pid: int, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    if _alive(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


# ----------------------------------------------------------------------
# Callers
# ----------------------------------------------------------------------


def _wait(client, job_id: str, tracer) -> dict:
    with tracer.span("wait"):
        while True:
            with tracer.span("status"):
                reply = client.request({"op": "status", "job_id": job_id})
            if not reply.get("ok"):
                raise RuntimeError(f"status {job_id}: {reply.get('error')}")
            job = reply["job"]
            if job["state"] in ("done", "failed"):
                return job
            time.sleep(POLL_S)


def _fetch(client, tracer, span="fetch", **message) -> str:
    with tracer.span(span, view=message["view"]):
        reply = client.request({"op": "fetch", **message})
    if not reply.get("ok"):
        raise RuntimeError(f"fetch {message}: {reply.get('error')}")
    return reply["rendered"]


def _submit_and_wait(client, tracer, scenario: str, seed: int) -> dict:
    submitted = time.time()
    t0 = time.perf_counter()
    with tracer.span("submit", scenario=scenario):
        reply = client.request({"op": "submit", "scenario": scenario, "seed": seed})
    rpc_s = time.perf_counter() - t0
    if not reply.get("ok"):
        raise RuntimeError(f"submit {scenario}/{seed}: {reply.get('error')}")
    job = _wait(client, reply["job_id"], tracer)
    problems = []
    if job["state"] != "done" or job["status"] != "ok":
        problems.append(f"job {job['job_id']}: {job['state']}/{job['status']} {job.get('error')}")
    return {
        "job_id": job["job_id"],
        "digest": job["digest"],
        "latency": job["finished_s"] - submitted,
        "execute": job["wall_s"],
        "queue_wait": job["finished_s"] - job["submitted_s"] - job["wall_s"],
        "submit_rpc": rpc_s,
        "problems": problems,
    }


def _caller(client, ops, out: Outcome, tracer) -> None:
    writes: list[dict | None] = []
    for op in ops:
        t0 = time.perf_counter()
        record = out.attempt(lambda: _do(client, op, writes, tracer))
        if record is not None:
            record["wall"] = time.perf_counter() - t0
        if op[0] == "write":
            writes.append(record)  # None keeps later indices aligned


def _do(client, op, writes, tracer) -> dict:
    """One operation; its span covers only the calls into the server,
    and its output checks run after the span closes."""
    kind = op[0]
    if kind == "write":
        _, scenario, seed = op
        with tracer.span("op.write", scenario=scenario):
            record = _submit_and_wait(client, tracer, scenario, seed)
            renders = {
                view: _fetch(client, tracer, digest=record["digest"], view=view)
                for view in WARM_VIEWS
            }
        record.update(kind="write", scenario=scenario, seed=seed, renders=renders)
        return record
    target = writes[op[1]]
    if target is None:
        raise RuntimeError("the write this operation reads failed")
    if kind == "read":
        _, _, view, top, cold = op
        message = {"digest": target["digest"], "view": view}
        if top is not None:
            message["top"] = top
        # A read is one call, so its operation span is the fetch itself.
        t0 = time.perf_counter()
        text = _fetch(client, tracer, "op.read", **message)
        record = {"kind": "read", "cold": cold, "rtt": time.perf_counter() - t0, "problems": []}
        if not text.strip():
            record["problems"].append(f"read {view} of {target['digest'][:12]}: empty")
        if not cold and text != target["renders"][view]:
            record["problems"].append(f"warm read {view} differs from its cold render")
        return record
    with tracer.span("op.resubmit", scenario=target["scenario"]):
        record = _submit_and_wait(client, tracer, target["scenario"], target["seed"])
        text = _fetch(client, tracer, digest=record["digest"], view="data-profile")
    record["kind"] = "resubmit"
    if record["digest"] != target["digest"]:
        record["problems"].append(f"resubmit of seed {target['seed']} gave another archive")
    elif text != target["renders"]["data-profile"]:
        record["problems"].append("resubmit data profile differs from the original")
    return record


def _drive(server, plans, out: Outcome, tracer, sampler=None) -> float:
    """Run both callers to completion; returns the run's wall seconds."""
    clients = [server.client() for _ in plans]
    # Both callers share the interpreter lock; a short switch interval
    # keeps a caller from waiting up to 5 ms for it after a sub-ms reply.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        worker = threading.Thread(
            target=_caller, args=(clients[1], plans[1], out, tracer), name="caller-1"
        )
        t0 = time.perf_counter()
        worker.start()
        with sampler or contextlib.nullcontext():
            _caller(clients[0], plans[0], out, tracer)
        worker.join()
        return time.perf_counter() - t0
    finally:
        sys.setswitchinterval(switch)
        for client in clients:
            client.close()


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def _boot_with_warmup(api, home, seed: int) -> tuple[Server, float]:
    """Boot a server, run one warm-up job and fetch; (server, seconds)."""
    t0 = time.perf_counter()
    server = Server(api, home)
    try:
        with server.client() as client:
            job = _submit_and_wait(client, NULL_TRACER, "memcached", seed)
            if job["problems"]:
                raise RuntimeError(f"warm-up job failed: {job['problems']}")
            _fetch(client, NULL_TRACER, digest=job["digest"], view="data-profile")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _check_archives(api, server, records, out: Outcome) -> None:
    """Served archive bytes equal execute_job for one spec per scenario."""
    for scenario in SCENARIOS:
        record = next(
            (r for r in records if r["kind"] == "write" and r["scenario"] == scenario), None
        )
        if record is None:
            continue
        served = server.request({"op": "fetch", "digest": record["digest"], "view": "archive"})
        spec = api.JobSpec.create(scenario=scenario, seed=record["seed"])
        _status, text, _info = api.execute_job(spec)
        if served.get("archive") != text:
            out.blame(record, f"{scenario} seed {record['seed']}: served archive differs")


def _archive_counts(api, store, jobs: list[dict]) -> list[dict]:
    """Per executed job: hardware counters and sizes from its archive."""
    archives = api.SessionStore(store)
    cache: dict[str, dict] = {}
    counts = []
    for job in jobs:
        if job["digest"] not in cache:
            text = archives.read_text(job["digest"])
            blob = json.loads(text)
            cache[job["digest"]] = {
                "counters": blob["hw_counters"],
                "ibs_samples": blob["data_quality"]["samples_delivered"],
                "bytes": len(text),
            }
        counts.append(cache[job["digest"]])
    return counts


def _pass(api, seed: int, plans, out: Outcome, tag: str, setup: bool, tracer, sampler):
    """Boot (timing set-up if asked), drive the mix, check, stop."""
    homes = [WORK / f"serve-{tag}-{k}" for k in range(SETUP_BOOTS if setup else 1)]
    warm_seeds = fresh_seeds(rng_for(seed, f"{NAME}:warmup"), len(homes))
    setups, boots = [], []
    for k, home in enumerate(homes):
        server, setup_s = _boot_with_warmup(api, home, warm_seeds[k])
        setups.append(setup_s)
        boots.append(server.boot_s)
        if k < len(homes) - 1:
            server.stop()
    first = len(out.records)
    try:
        wall = _drive(server, plans, out, tracer, sampler)
        records = [r for r in out.records[first:] if "kind" in r]
        metrics = server.request({"op": "metrics"})["counters"]
        if not metrics["reconciled"]:
            out.blame(records[-1], f"server metrics do not reconcile: {metrics}")
        _check_archives(api, server, records, out)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    jobs = [r for r in records if r["kind"] in ("write", "resubmit") and r["digest"]]
    archive = _archive_counts(api, server.store, jobs)
    for home in homes:
        shutil.rmtree(home, ignore_errors=True)
    return {
        "wall": wall,
        "records": records,
        "jobs": jobs,
        "archive": archive,
        "metrics": metrics,
        "rss": rss,
        "setups": setups,
        "boots": boots,
    }


def run(api, seed: int, seconds: int, tracer=None, sampler=None) -> Outcome:
    """One run; traced (per-layer metrics) when a tracer is given."""
    out = Outcome()
    plans = operations(seed, seconds)
    WORK.mkdir(exist_ok=True)
    plain = _pass(api, seed, plans, out, f"{seed}-plain", True, NULL_TRACER, None)
    n_ops = len(plain["records"])
    instructions = sum(a["counters"]["instructions"] for a in plain["archive"])
    execute_s = sum(j["execute"] for j in plain["jobs"])
    out.e2e["setup_s"] = (statistics.median(plain["setups"]), len(plain["setups"]))
    out.e2e["ops_per_s"] = (n_ops / plain["wall"], n_ops)
    out.e2e["sim_instr_per_s"] = (instructions / execute_s, len(plain["jobs"]))
    out.e2e["peak_rss_mb"] = (plain["rss"], 1)
    if tracer is None:
        return out

    traced = _pass(api, seed, plans, out, f"{seed}-traced", False, tracer, sampler)
    layer = out.layer
    records, jobs = plain["records"], plain["jobs"]
    reads = [r for r in records if r["kind"] == "read"]
    layer["serve.job_p50_s"] = percentile([j["latency"] for j in jobs], 50)
    layer["serve.job_p90_s"] = percentile([j["latency"] for j in jobs], 90)
    layer["serve.view_p50_s"] = percentile([r["rtt"] for r in reads], 50)
    layer["serve.view_p90_s"] = percentile([r["rtt"] for r in reads], 90)
    layer["serve.execute_s"] = mean(j["execute"] for j in jobs)
    layer["serve.wait_s"] = mean(j["queue_wait"] for j in jobs)
    layer["serve.submit_rpc_s"] = mean(j["submit_rpc"] for j in jobs)
    layer["serve.resubmit_s"] = mean(r["wall"] for r in records if r["kind"] == "resubmit")
    layer["serve.view_warm_s"] = mean(r["rtt"] for r in reads if not r["cold"])
    layer["serve.view_cold_s"] = mean(r["rtt"] for r in reads if r["cold"])
    counters = plain["metrics"]
    lookups = counters["view_cache_hits"] + counters["view_cache_misses"]
    layer["serve.store.view_cache_hit_ratio"] = counters["view_cache_hits"] / max(1, lookups)
    layer["serve.jobs_rejected"] = counters["jobs_rejected"]
    layer["serve.jobs_requeued"] = counters["jobs_requeued"]
    layer["setup.server_boot_s"] = statistics.median(plain["boots"])
    out.add_sim_counts(plain["archive"])
    out.add_host_shares(sampler)
    out.add_trace_quality(tracer, plain["wall"], traced["wall"])
    return out
