"""Differential tests: the fast engine must be bit-identical to the reference.

Two layers of comparison, each across 5 seeds:

1. *Live machines* (all three scenarios: memcached, apache, synthetic):
   a full workload run with ``engine="fast"`` must land on exactly the
   same hierarchy stats, cache counters, invalidation count, and DProf
   top-10 data-profile ranking as ``engine="reference"``.
2. *Access by access*: the trace recorded from the reference run, and a
   seeded high-eviction generated stream, are fed through a fresh
   :class:`MemoryHierarchy` and a fresh :class:`FastHierarchy` via
   ``.access(...)``.  Both must agree on every per-access outcome (level,
   miss classification, latency, loss records), all counters, the
   complete LRU state of every cache, and the residual loss-record maps.

Any nonzero delta anywhere fails; there is no tolerance.
"""

from __future__ import annotations

import random
from dataclasses import astuple

import pytest

from repro.dprof import DProf, DProfConfig
from repro.hw.fastpath import FastHierarchy, outcome_of
from repro.hw.hierarchy import MemoryHierarchy
from repro.hw.machine import MachineConfig
from repro.workloads import SCENARIOS, build_kernel

SEEDS = (3, 7, 11, 23, 42)
DURATION = 60_000
NCORES = 4
IBS_INTERVAL = 29  # runs are instruction-sparse; sample densely


def profiled_run(engine: str, scenario: str, seed: int, *, record: bool = False):
    """One live workload run under DProf; optionally record the trace.

    Returns (comparable_state, trace, hierarchy_config): everything in
    ``comparable_state`` must match exactly between engines.
    """
    kernel = build_kernel(NCORES, seed=seed, engine=engine)
    trace: list | None = [] if record else None
    if record:
        kernel.machine.hierarchy.trace_sink = trace
    dprof = DProf(kernel, DProfConfig(ibs_interval=IBS_INTERVAL))
    dprof.attach()
    result = SCENARIOS[scenario](kernel, DURATION)
    dprof.detach()
    hierarchy = kernel.machine.hierarchy
    ranking = [
        (r.type_name, r.miss_share, r.bounce, r.sample_count, r.working_set_bytes)
        for r in dprof.data_profile().top(10)
    ]
    state = {
        "stats": hierarchy.stats.snapshot(),
        "counters": hierarchy.cache_counters(),
        "lru": hierarchy.replacement_snapshot(),
        "invalidations": hierarchy.directory.invalidation_count,
        "top10": ranking,
        "requests": result.requests_completed,
        "elapsed": result.elapsed_cycles,
    }
    return state, trace, kernel.machine.config.hierarchy_config()


def loss_records(hierarchy):
    """The directory's residual loss maps as plain tuples."""
    inv = [
        {line: astuple(rec) for line, rec in per_cpu.items()}
        for per_cpu in hierarchy.directory.invalidated
    ]
    ev = [
        {line: astuple(rec) for line, rec in per_cpu.items()}
        for per_cpu in hierarchy.directory.evicted
    ]
    return inv, ev


def access_both(accesses, config):
    """Feed ``(cpu, addr, size, is_write, ip, cycle)`` tuples through a
    fresh reference and a fresh fast hierarchy; both must agree on every
    outcome and on their end state.  Returns the reference hierarchy."""
    ref = MemoryHierarchy(config)
    fast = FastHierarchy(config)
    for index, args in enumerate(accesses):
        expected = outcome_of(ref.access(*args))
        got = outcome_of(fast.access(*args))
        assert got == expected, (index, args)
    assert fast.stats.snapshot() == ref.stats.snapshot()
    assert fast.cache_counters() == ref.cache_counters()
    assert fast.replacement_snapshot() == ref.replacement_snapshot()
    assert fast.directory.invalidation_count == ref.directory.invalidation_count
    assert loss_records(fast) == loss_records(ref)
    return ref


def generated_accesses(seed: int, per_core: int, private_lines: int):
    """A seeded multi-core access stream, round-robin across cores.

    The mix exercises every coherence path: 32 shared lines
    (invalidations and foreign serves), a per-core private region
    (evictions once it exceeds the private caches), writes, and
    occasional line-straddling accesses.
    """
    rng = random.Random(seed)
    line_size = MachineConfig().line_size
    cycle = 0
    for i in range(per_core * NCORES):
        cpu = i % NCORES
        cycle += rng.randint(1, 10)
        if rng.random() < 0.25:
            line = rng.randrange(32)
        else:
            line = (1 << 20) * (cpu + 1) + rng.randrange(private_lines)
        if rng.random() < 0.05:
            offset, size = line_size - 8, 16
        else:
            offset, size = 8 * rng.randrange(line_size // 8 - 1), 8
        is_write = rng.random() < 0.3
        yield cpu, line * line_size + offset, size, is_write, 0x40_0000 + cpu, cycle


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_engines_equivalent(scenario: str, seed: int) -> None:
    """Live runs, per-access outcomes, and DProf rankings agree bit for bit."""
    ref_state, events, config = profiled_run(
        "reference", scenario, seed, record=True
    )
    fast_state, _, _ = profiled_run("fast", scenario, seed)
    assert fast_state == ref_state

    assert events, "reference run recorded no trace"
    ref = access_both(
        ((ev.cpu, ev.addr, ev.size, ev.is_write, ev.ip, ev.cycle) for ev in events),
        config,
    )
    # The trace replay must also reproduce the live run it came from.
    assert ref.stats.snapshot() == ref_state["stats"]
    assert ref.cache_counters() == ref_state["counters"]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_trace_equivalence(seed: int) -> None:
    """Access-by-access equivalence holds on a high-eviction stream too."""
    # private_lines must exceed the private-cache capacity (L1+L2 =
    # 1280 lines) or the stream never produces an eviction-classed miss.
    config = MachineConfig(ncores=NCORES, seed=seed).hierarchy_config()
    ref = access_both(
        generated_accesses(seed, per_core=2_000, private_lines=1_536), config
    )
    # The stream must exercise every miss class to be a meaningful check.
    kinds = ref.stats.snapshot()["miss_kinds"]
    assert all(kinds.get(k, 0) > 0 for k in ("cold", "invalidation", "eviction"))
