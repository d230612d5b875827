"""Retired: the benchmark is ``python3 dprofbench/run.py``.

This module used to hold the replay-speed, analysis-corpus, service,
self-profile and load-sweep benchmarks that wrote ``BENCH_dprof.json``.
Those are gone; whole profiling sessions are timed by ``dprofbench/``,
and the tracing-overhead gate lives in ``tests/test_trace.py``.

The module name is kept, empty, because the benchmark's host-time layer
map (``dprofbench/tracing.py`` ``LAYER_MODULES``) still names it and its
tests require every entry there to be a real module.  Delete this file
together with that entry.
"""

if __name__ == "__main__":
    raise SystemExit("repro.bench is retired; run `python3 dprofbench/run.py`")
