"""Retired: there is no shared run-config object any more.

This module used to hold a frozen bundle of ``seed``, ``engine``,
``analysis`` and ``analysis_workers`` with adapters to the per-layer
configs.  The engine and analysis-pipeline choices no longer exist above
:class:`~repro.hw.machine.MachineConfig` (the fast engine runs
everywhere; the reference engine and reference analysis are test
oracles), so callers build :class:`~repro.hw.machine.MachineConfig`,
:class:`~repro.dprof.profiler.DProfConfig` or
:class:`~repro.serve.jobs.JobSpec` directly.

The module name is kept, empty, because the benchmark's host-time layer
map (``dprofbench/tracing.py`` ``LAYER_MODULES``) still names it and its
tests require every entry there to be a real module.  Delete this file
together with that entry.
"""
