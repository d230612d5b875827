"""session-memcached: full one-shot DProf sessions, back to back.

One caller in a closed loop.  Each operation is one complete session:
``collect_history_session("memcached", ncores=4, seed=s)``, then
``export_session`` + ``json.dumps``, then the four views (data profile,
working set, miss classification and data flow for ``skbuff``).
"""

from __future__ import annotations

import hashlib
import json
import time

from common import fresh_seeds, rng_for
from outcome import Outcome
from tracing import NULL_TRACER, kernel_run_spans

NAME = "session-memcached"
#: Nominal host seconds per session on a 2-core x86-64 container.  A
#: run holds 1.5x ``--seconds`` of sessions: session cost is two-mode
#: (~2 s or ~3.3 s by seed), so this workload needs the most samples.
NOMINAL_OP_S = 2.9
SHARE_OF_SECONDS = 1.5
RUN_PHASES = ("run.prewarm", "run.ibs_window", "run.history")
VIEWS = ("data_profile", "working_set", "miss_class", "data_flow")


def operations(seed: int, seconds: int) -> list[int]:
    """The run's session seeds: fixed by (*seed*, *seconds*) alone."""
    count = max(2, round(SHARE_OF_SECONDS * seconds / NOMINAL_OP_S))
    return fresh_seeds(rng_for(seed, NAME), count)


def _session(api, sim_seed: int, tracer):
    with tracer.span("collect_history_session", seed=sim_seed):
        dprof = api.collect_history_session("memcached", ncores=4, seed=sim_seed)
    with tracer.span("export_session") as span:
        text = json.dumps(api.export_session(dprof))
        span.counts["archive_bytes"] = len(text)
    renders = {}
    with tracer.span("view.data_profile"):
        renders["data_profile"] = dprof.data_profile().render()
    with tracer.span("view.working_set"):
        renders["working_set"] = dprof.working_set().render()
    with tracer.span("view.miss_class"):
        renders["miss_class"] = dprof.miss_classification("skbuff").render()
    with tracer.span("view.data_flow"):
        renders["data_flow"] = dprof.data_flow("skbuff").render_text()
    return dprof, text, renders


def _problems(dprof, renders) -> list[str]:
    problems = []
    code = dprof.data_quality().exit_code()
    if code != 0:
        problems.append(f"data quality exit code {code}")
    if not dprof.histories_done:
        problems.append("history sets did not fill")
    problems += [f"view {v} rendered empty" for v, text in renders.items() if not text.strip()]
    return problems


def run_op(api, sim_seed: int, tracer=NULL_TRACER) -> dict:
    """One timed session; returns its record (wall, counts, problems)."""
    t0 = time.perf_counter()
    with tracer.span("op.session", seed=sim_seed):
        dprof, text, renders = _session(api, sim_seed, tracer)
    wall = time.perf_counter() - t0
    machine = dprof.kernel.machine
    quality = dprof.data_quality()
    return {
        "seed": sim_seed,
        "wall": wall,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text),
        "counters": api.machine_counters(machine),
        "ibs_samples": machine.ibs_delivery_counts()[0],
        "history_attempts": quality.history_attempts,
        "histories_complete": quality.histories_complete,
        "problems": _problems(dprof, renders),
    }


def _reference_digest(api, sim_seed: int) -> str:
    """The archive digest of the program's own recipe, run again."""
    dprof = api.collect_history_session("memcached", ncores=4, seed=sim_seed)
    return hashlib.sha256(json.dumps(api.export_session(dprof)).encode()).hexdigest()


def _e2e(out: Outcome, records: list[dict]) -> None:
    out.add_rates(records, sum(r["counters"]["instructions"] for r in records))


def run(api, seed: int, seconds: int, tracer=None, sampler=None) -> Outcome:
    """One run; traced (per-layer metrics) when a tracer is given."""
    out = Outcome()
    seeds = operations(seed, seconds)
    if tracer is None:
        records = [out.attempt(lambda s=s: run_op(api, s)) for s in seeds]
        records = [r for r in records if r is not None]
        out.check_first_archive(records, lambda s: _reference_digest(api, s))
        _e2e(out, records)
        return out

    # Traced run: each session runs untraced, then again traced, so the
    # difference between the two passes is the tracing overhead.
    kernel_cls = type(api.build_kernel(1, seed=seed, engine="fast"))
    plain, traced = [], []
    for sim_seed in seeds:
        plain.append(out.attempt(lambda s=sim_seed: run_op(api, s)))
        with kernel_run_spans(tracer, kernel_cls, RUN_PHASES), sampler:
            traced.append(out.attempt(lambda s=sim_seed: run_op(api, s, tracer)))
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    for a, b in zip(plain, traced):
        if a["digest"] != b["digest"]:
            out.blame(b, f"seed {b['seed']}: traced archive differs from untraced")
    out.check_first_archive(plain, lambda s: _reference_digest(api, s))
    _e2e(out, plain)
    layer = out.layer
    n = len(traced)
    layer["session.ibs_window_s"] = tracer.total("run.ibs_window") / n
    layer["session.history_s"] = tracer.total("run.history") / n
    layer["session.export_s"] = tracer.total("export_session") / n
    for view in VIEWS:
        layer[f"views.{view}_s"] = tracer.total(f"view.{view}") / n
    layer["dprof.history.attempts"] = sum(r["history_attempts"] for r in traced)
    layer["dprof.history.complete_ratio"] = sum(
        r["histories_complete"] for r in traced
    ) / max(1, layer["dprof.history.attempts"])
    out.add_sim_counts(traced)
    out.add_phase_counts(tracer, RUN_PHASES)
    out.add_host_shares(sampler)
    out.add_trace_quality(
        tracer, sum(r["wall"] for r in plain), sum(r["wall"] for r in traced)
    )
    return out
