"""kernels-truth: the six generated-kernel families through execute_job.

One caller in a closed loop runs the families in a fixed rotating order.
Each operation is one job plus a read of its top-down metrics view,
checked against the family's closed-form ``expected_metrics`` model.
"""

from __future__ import annotations

import json
import time

from common import fresh_seeds, rng_for
from outcome import Outcome
from tracing import NULL_TRACER, kernel_run_spans

NAME = "kernels-truth"

#: Job ``duration`` (the kernels' work budget) per family, balanced so
#: each job costs about the same host time (~0.2-0.35 s on a 2-core
#: x86-64 container); at the scenario default of 100,000 kernel-stream
#: takes ~1 s and the other five 10-25 ms.
DURATIONS = {
    "kernel-chase": 4_800_000,
    "kernel-counters": 3_600_000,
    "kernel-pingpong": 2_400_000,
    "kernel-ring": 3_000_000,
    "kernel-stream": 50_000,
    "kernel-strided": 1_400_000,
}
#: Nominal host seconds for one round of all six families.
NOMINAL_ROUND_S = 1.8
RUN_PHASES = ("run.sim",)


def operations(seed: int, seconds: int) -> list[tuple[str, int]]:
    """(family, seed) per job: whole rounds in a fixed family order."""
    rounds = max(1, round(seconds / NOMINAL_ROUND_S))
    families = sorted(DURATIONS) * rounds
    return list(zip(families, fresh_seeds(rng_for(seed, NAME), len(families))))


def _model_check(api, family: str, spec, summary) -> tuple[int, list[str]]:
    """(checks passed, problems) against the family's ground truth."""
    # The two helpers that say which KernelSpec a scenario duration runs
    # and how a model key reads a summary; used for checking only.
    from repro.workloads.kernels import metric_value, spec_for_duration

    kspec = spec_for_duration(family, spec.duration)
    model = api.expected_metrics(kspec, api.MachineConfig(ncores=spec.cores))
    if not model:
        return 0, [f"{family}: empty ground-truth model"]
    problems = []
    for metric, expectation in sorted(model.items()):
        value = metric_value(summary, metric)
        if not expectation.check(value):
            problems.append(
                f"{family} seed {spec.seed}: {metric}={value} outside "
                f"[{expectation.lo}, {expectation.hi}]"
            )
    return len(model) - len(problems), problems


def run_op(api, family: str, sim_seed: int, tracer=NULL_TRACER) -> dict:
    spec = api.JobSpec.create(scenario=family, seed=sim_seed, duration=DURATIONS[family])
    t0 = time.perf_counter()
    with tracer.span("op.kernel_job", family=family):
        with tracer.span("execute_job"):
            status, text, _info = api.execute_job(spec)
        with tracer.span("view.metrics"):
            blob = json.loads(text)
            summary = api.OfflineSession(blob).metrics()
            rendered = summary.render()
    wall = time.perf_counter() - t0
    passed, problems = _model_check(api, family, spec, summary)
    if status != "ok":
        problems.append(f"{family} seed {sim_seed}: job status {status}")
    if not rendered.strip():
        problems.append(f"{family} seed {sim_seed}: metrics view rendered empty")
    return {
        "family": family,
        "seed": sim_seed,
        "wall": wall,
        "bytes": len(text),
        "counters": blob["hw_counters"],
        "ibs_samples": blob["data_quality"]["samples_delivered"],
        "checks_passed": passed,
        "problems": problems,
    }


def _e2e(out: Outcome, records: list[dict]) -> None:
    out.add_rates(records, sum(r["counters"]["instructions"] for r in records))


def run(api, seed: int, seconds: int, tracer=None, sampler=None) -> Outcome:
    """One run; traced (per-layer metrics) when a tracer is given."""
    out = Outcome()
    ops = operations(seed, seconds)
    if tracer is None:
        records = [out.attempt(lambda op=op: run_op(api, *op)) for op in ops]
        _e2e(out, [r for r in records if r is not None])
        return out

    # Traced run: each job runs untraced, then again traced.
    kernel_cls = type(api.build_kernel(1, seed=seed, engine="fast"))
    plain, traced = [], []
    for op in ops:
        plain.append(out.attempt(lambda op=op: run_op(api, *op)))
        with kernel_run_spans(tracer, kernel_cls, RUN_PHASES), sampler:
            traced.append(out.attempt(lambda op=op: run_op(api, *op, tracer)))
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    for a, b in zip(plain, traced):
        if a["counters"] != b["counters"]:
            out.blame(b, f"{b['family']} seed {b['seed']}: traced counters differ")
    _e2e(out, plain)
    for family in DURATIONS:
        walls = [r["wall"] for r in plain if r["family"] == family]
        out.layer[f"kernels.{family}_s"] = sum(walls) / max(1, len(walls))
    out.layer["kernels.truth_checks_passed"] = sum(r["checks_passed"] for r in traced)
    out.add_sim_counts(traced)
    out.add_phase_counts(tracer, RUN_PHASES)
    out.add_host_shares(sampler)
    out.add_trace_quality(
        tracer, sum(r["wall"] for r in plain), sum(r["wall"] for r in traced)
    )
    return out
