"""repro.api facade: the pinned public surface."""

import importlib
import sys
import warnings

from repro.dprof.profiler import DProf
from repro.serve.jobs import JobSpec
from repro.workloads import SCENARIOS

#: The public API contract.  Additions belong at the right spot in
#: repro.api.__all__ AND here; removals/renames are breaking changes.
EXPECTED_ALL = (
    "ANALYSIS_MODES",
    "ClusterConfig",
    "ClusterServer",
    "DProf",
    "DProfConfig",
    "DataQuality",
    "Diagnosis",
    "Finding",
    "JobSpec",
    "KERNEL_FAMILIES",
    "KernelSpec",
    "MachineConfig",
    "MetricsSummary",
    "NULL_TRACER",
    "OfflineSession",
    "ProfilingServer",
    "RetryExhaustedError",
    "RetryPolicy",
    "SCENARIOS",
    "ServeClient",
    "SessionStore",
    "SimProbe",
    "Tracer",
    "analyze_histories",
    "build_kernel",
    "collect_history_session",
    "critical_path",
    "execute_job",
    "execute_job_to_store",
    "expected_metrics",
    "export_session",
    "load_session",
    "load_trace",
    "machine_counters",
    "reconcile_serve",
    "render_tree",
    "request_once",
    "stage_totals",
)


def test_api_all_is_pinned():
    import repro.api

    assert repro.api.__all__ == EXPECTED_ALL


def test_api_names_resolve_and_match_defining_modules():
    import repro.api

    for name in EXPECTED_ALL:
        assert getattr(repro.api, name) is not None
    # Facade names are re-exports, not copies.
    assert repro.api.DProf is DProf
    assert repro.api.JobSpec is JobSpec
    assert repro.api.SCENARIOS is SCENARIOS


def test_api_imports_clean_under_deprecation_errors():
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "repro.api"
    }
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.import_module("repro.api")
    finally:
        sys.modules.update(saved)
