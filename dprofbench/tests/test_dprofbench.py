"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest dprofbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import wl_kernels  # noqa: E402
import wl_serve  # noqa: E402
import wl_session  # noqa: E402
from common import SRC, TooFewSamples, declared_metrics, percentile  # noqa: E402
from outcome import Outcome  # noqa: E402
from tracing import BUCKETS, LAYER_MODULES, Tracer, covered, owners  # noqa: E402

WORKLOAD_MODULES = (wl_session, wl_kernels, wl_serve)


# -- operation lists ---------------------------------------------------------


@pytest.mark.parametrize("module", WORKLOAD_MODULES, ids=lambda m: m.NAME)
def test_same_seed_same_operations(module):
    assert module.operations(7, 20) == module.operations(7, 20)


@pytest.mark.parametrize("module", WORKLOAD_MODULES, ids=lambda m: m.NAME)
def test_other_seed_other_operations(module):
    assert module.operations(7, 20) != module.operations(8, 20)


@pytest.mark.parametrize("module", WORKLOAD_MODULES, ids=lambda m: m.NAME)
def test_operation_count_depends_only_on_seconds(module):
    # No jitter: the list's shape is the same for every seed.
    def shape(ops):
        return [len(x) if isinstance(x, list) else 1 for x in ops]

    assert shape(module.operations(1, 20)) == shape(module.operations(99, 20))


def test_kernel_budgets_are_fixed_per_family():
    ops = wl_kernels.operations(3, 20)
    families = [family for family, _seed in ops]
    assert families == sorted(wl_kernels.DURATIONS) * (len(ops) // 6)
    assert len(ops) % 6 == 0


def test_serve_mix_proportions():
    for ops in wl_serve.operations(5, 20):
        kinds = [op[0] for op in ops]
        assert kinds == list(wl_serve.CYCLE) * (len(ops) // len(wl_serve.CYCLE))
        reads = [op for op in ops if op[0] == "read"]
        cold = [op for op in reads if op[4]]
        assert len(cold) * 4 == len(reads)
        # Each cold read names a (write, view) pair no earlier op rendered.
        pairs = [(op[1], op[2], op[3]) for op in cold]
        assert len(set(pairs)) == len(pairs)
        assert all((op[2], op[3]) in wl_serve.COLD_VIEWS for op in cold)
        # Reads and resubmits only name writes made before them.
        writes = 0
        for op in ops:
            if op[0] == "write":
                writes += 1
            else:
                assert 0 <= op[1] < writes


def test_serve_minimum_gives_enough_tail_samples():
    plans = wl_serve.operations(1, 1)
    jobs = sum(op[0] in ("write", "resubmit") for ops in plans for op in ops)
    reads = sum(op[0] == "read" for ops in plans for op in ops)
    assert jobs >= 100 and reads >= 100


# -- statistics ----------------------------------------------------------------


def test_percentile_refuses_thin_tails():
    values = list(range(100))
    assert percentile(values, 90) == 89  # exactly ten samples beyond
    with pytest.raises(TooFewSamples):
        percentile(values[:99], 90)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


# -- spans ---------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(6.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_span_self_time_arithmetic():
    tracer = Tracer()
    with tracer.span("root") as root:
        time.sleep(0.01)
        with tracer.span("a") as a:
            time.sleep(0.02)
            with tracer.span("a.inner") as inner:
                time.sleep(0.01)
        with tracer.span("b") as b:
            time.sleep(0.01)
    selfs = tracer.self_times()
    assert selfs[inner.span_id] == pytest.approx(inner.duration)
    assert selfs[a.span_id] == pytest.approx(a.duration - inner.duration)
    assert selfs[root.span_id] == pytest.approx(root.duration - a.duration - b.duration)
    assert tracer.min_root_coverage() == pytest.approx(
        (a.duration + b.duration) / root.duration
    )
    with tracer.span("single-call root"):
        pass
    assert tracer.min_root_coverage() == pytest.approx(
        (a.duration + b.duration) / root.duration
    )


# -- host-time buckets -----------------------------------------------------------


def _repro_modules() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_every_repro_module_has_exactly_one_bucket():
    modules = _repro_modules()
    assert len(modules) > 50
    bad = {m: owners(m) for m in modules if len(owners(m)) != 1}
    assert not bad, bad


def test_bucket_entries_name_real_modules():
    modules = set(_repro_modules())
    entries = [e for bucket in LAYER_MODULES.values() for e in bucket]
    assert sorted(set(entries) - modules) == []


# -- declared metrics ------------------------------------------------------------


def test_benchmark_json_declares_every_bucket_and_family():
    _e2e, layer = declared_metrics()
    for bucket in BUCKETS:
        assert f"host.{bucket}_pct" in layer
    for family in wl_kernels.DURATIONS:
        assert f"kernels.{family}_s" in layer


def test_assemble_refuses_undeclared_names():
    out = Outcome()
    out.layer["not.a.metric"] = 1.0
    with pytest.raises(SystemExit):
        run.assemble(out, trace=True)


def _result(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ("0", "1"))
def test_printed_metrics_are_exactly_the_declared_ones(trace):
    e2e, layer = declared_metrics()
    result = _result("--workload", "kernels-truth", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = layer if trace == "1" else e2e
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == declared[name]
    if trace == "1":
        assert result["metrics"]["kernels.truth_checks_passed"]["value"] > 0
        assert result["metrics"]["trace.span_coverage_pct"]["value"] >= 95.0


def test_deterministic_counts_repeat():
    names = ("hw.instructions", "hw.accesses", "hw.ibs.samples", "sim.cycles",
             "sim.overhead_pct", "kernels.truth_checks_passed")
    args = ("--workload", "kernels-truth", "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = _result(*args), _result(*args)
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "dprofbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "dprofbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "dprofbench/run.py", "--workload", "kernels-truth",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
