#!/usr/bin/env python3
"""Benchmark for the DProf reproduction: one workload per invocation.

Run from the repository root::

    python3 dprofbench/run.py --workload session-memcached --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the traced variant and prints the per-layer metrics.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import wl_kernels  # noqa: E402
import wl_serve  # noqa: E402
import wl_session  # noqa: E402
from common import (  # noqa: E402
    SRC,
    WORK,
    declared_metrics,
    host_probe,
    self_peak_rss_mb,
    setup_probes,
    steal_s,
)
from tracing import HostSampler, Tracer  # noqa: E402

WORKLOADS = {m.NAME: m for m in (wl_session, wl_kernels, wl_serve)}
#: Fresh interpreters timed for set-up in one run (median reported).
SETUP_PROBES = 7
#: Per-operation fields kept in the run's ``ops-*.json`` record file.
OP_FIELDS = ("kind", "family", "scenario", "seed", "cold", "wall", "latency", "rtt", "problems")


def load_program():
    """Import the program from this checkout's ``src``; exit if absent."""
    if not (SRC / "repro" / "api.py").is_file():
        raise SystemExit(f"dprofbench: no program found at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro.api as api

    return api


def measure_setup(outcome, seed: int) -> None:
    """setup_s: median of import + first kernel build in fresh processes."""
    probes = setup_probes(seed, SETUP_PROBES)
    outcome.e2e["setup_s"] = (statistics.median(p["setup_s"] for p in probes), len(probes))
    outcome.layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    outcome.layer["setup.build_kernel_s"] = statistics.median(
        p["build_kernel_s"] for p in probes
    )


def assemble(outcome, trace: bool) -> dict:
    """The metrics object: exactly the declared names for this mode."""
    e2e_units, layer_units = declared_metrics()
    undeclared = set(outcome.e2e) - set(e2e_units) | set(outcome.layer) - set(layer_units)
    if undeclared:
        raise SystemExit(f"dprofbench: undeclared metrics {sorted(undeclared)}")
    if not trace:
        missing = set(e2e_units) - set(outcome.e2e)
        if missing:
            raise SystemExit(f"dprofbench: end-to-end metrics not measured: {sorted(missing)}")
        return {
            name: {"value": outcome.e2e[name][0], "unit": unit}
            for name, unit in e2e_units.items()
        }
    # Layers a workload does not exercise read 0 (see NOTES.md).
    return {
        name: {"value": outcome.layer.get(name, 0), "unit": unit}
        for name, unit in layer_units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    api = load_program()
    print(f"host-probe before: {host_probe():.4f} s", flush=True)
    steal0, wall0 = steal_s(), time.perf_counter()
    module = WORKLOADS[args.workload]
    tracer, sampler = (Tracer(), HostSampler()) if trace else (None, None)
    outcome = module.run(api, args.seed, args.seconds, tracer, sampler)
    if "setup_s" not in outcome.e2e:
        measure_setup(outcome, args.seed)
    outcome.e2e.setdefault("peak_rss_mb", (self_peak_rss_mb(), 1))
    steal = steal_s() - steal0
    share = 100.0 * steal / ((time.perf_counter() - wall0) * (os.cpu_count() or 1))
    print(f"host steal during run: {steal:.2f} vCPU-s ({share:.1f}% of vCPU time)")
    print(f"host-probe after: {host_probe():.4f} s", flush=True)

    metrics = assemble(outcome, trace)
    e2e_units, layer_units = declared_metrics()
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (WORK / f"ops-{stem}.json").write_text(json.dumps(
        [{k: r[k] for k in OP_FIELDS if k in r} for r in outcome.records], indent=0
    ))
    if trace:
        tracer.write_jsonl(WORK / f"spans-{stem}.jsonl")
        print(f"spans: {len(tracer.spans)}, per-op records and spans in {WORK.name}/")
    for name, (value, samples) in sorted(outcome.e2e.items()):
        print(f"  {name:<34} {value:>14.6g} {e2e_units[name]:<6} n={samples}")
    if trace:
        for name, value in sorted(outcome.layer.items()):
            print(f"  {name:<34} {value:>14.6g} {layer_units[name]}")
    for problem in outcome.problems()[:20]:
        print(f"dprofbench: FAILED CHECK: {problem}", file=sys.stderr)
    print(f"attempted {outcome.attempted}, failed {outcome.failed}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
