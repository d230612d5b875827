"""Tests for the machine event loop, IBS, and debug registers."""

import pytest

from repro.errors import SimulationError
from repro.hw.debugreg import NUM_DEBUG_REGISTERS
from repro.hw.events import Instr, Pause
from repro.hw.machine import Machine, MachineConfig


def small_machine(ncores=2, **kwargs):
    return Machine(MachineConfig(ncores=ncores, seed=1, **kwargs))


def loads(n, base=0x100000, fn="fn", ip=1, stride=64):
    for i in range(n):
        yield Instr("load", fn, ip, addr=base + (i % 8) * stride, size=8)


def test_threads_run_to_completion():
    m = small_machine()
    t = m.spawn("t", 0, loads(50))
    m.run()
    assert t.done
    assert m.cores[0].instructions == 50
    assert m.cores[0].cycle > 0


def test_pause_wakes_later():
    m = small_machine()

    def body():
        yield Instr("exec", "fn", 1, work=10)
        yield Pause(500)
        yield Instr("exec", "fn", 1, work=10)

    t = m.spawn("sleeper", 0, body())
    m.run()
    assert t.done
    assert m.cores[0].cycle >= 520


def test_two_threads_interleave_on_one_core():
    m = small_machine(quantum=4)
    order = []

    def body(tag):
        for _ in range(8):
            order.append(tag)
            yield Instr("exec", "fn", 1, work=1)

    m.spawn("a", 0, body("a"))
    m.spawn("b", 0, body("b"))
    m.run()
    # With quantum 4 the schedule must switch between threads at least once.
    switches = sum(1 for x, y in zip(order, order[1:]) if x != y)
    assert switches >= 2


def test_until_cycle_bounds_run():
    m = small_machine()

    def forever():
        while True:
            yield Instr("exec", "fn", 1, work=10)

    m.spawn("spin", 0, forever())
    m.run(until_cycle=1000)
    assert 1000 <= m.cores[0].cycle <= 1400


def test_stop_when_predicate():
    m = small_machine()
    count = [0]

    def body():
        while True:
            count[0] += 1
            yield Instr("exec", "fn", 1, work=1)

    m.spawn("t", 0, body())
    m.run(stop_when=lambda: count[0] >= 100)
    assert count[0] >= 100
    assert count[0] < 200  # stopped promptly (within a quantum or two)


def test_cores_advance_together():
    # The min-cycle scheduling policy keeps core clocks close.
    m = small_machine(ncores=4)
    for cpu in range(4):
        m.spawn(f"t{cpu}", cpu, loads(200, base=0x100000 + cpu * 0x10000))
    m.run()
    cycles = [c.cycle for c in m.cores]
    assert max(cycles) < 2 * min(cycles) + 1000


def test_ibs_sampling_delivers_and_charges_overhead():
    m = small_machine()
    samples = []
    m.configure_ibs(interval=10, handler=samples.append)
    m.spawn("t", 0, loads(500))
    m.run()
    assert len(samples) > 20
    assert m.cores[0].overhead_cycles >= len(samples) * 2000
    s = samples[0]
    assert s.cpu == 0
    assert s.fn == "fn"
    assert s.is_memory


def test_ibs_disabled_means_no_overhead():
    m = small_machine()
    m.spawn("t", 0, loads(500))
    m.run()
    assert m.cores[0].overhead_cycles == 0


def test_ibs_rate_scales_with_interval():
    def run_with_interval(interval):
        m = small_machine()
        samples = []
        m.configure_ibs(interval=interval, handler=samples.append)
        m.spawn("t", 0, loads(2000))
        m.run()
        return len(samples)

    assert run_with_interval(10) > 2.5 * run_with_interval(50)


def test_watchpoint_fires_on_overlap_only():
    m = small_machine()
    hits = []

    def handler(cpu, instr, result, cycle):
        hits.append((cpu, instr.addr))

    m.watches.arm_all_cores(0x100000, 8, handler)

    def body():
        yield Instr("load", "fn", 1, addr=0x100000, size=8)  # hit
        yield Instr("load", "fn", 1, addr=0x100040, size=8)  # same-page miss
        yield Instr("store", "fn", 2, addr=0x100004, size=4)  # hit
        yield Instr("load", "fn", 1, addr=0x100008, size=8)  # adjacent, miss

    m.spawn("t", 0, body())
    m.run()
    assert [a for _, a in hits] == [0x100000, 0x100004]
    assert m.cores[0].overhead_cycles == 2 * 1000


def test_watchpoint_traps_on_any_core():
    m = small_machine()
    hits = []
    m.watches.arm_all_cores(0x100000, 4, lambda c, i, r, cy: hits.append(c))
    m.spawn("a", 0, iter([Instr("load", "f", 1, addr=0x100000, size=4)]))
    m.spawn("b", 1, iter([Instr("store", "f", 2, addr=0x100002, size=2)]))
    m.run()
    assert sorted(hits) == [0, 1]


def test_watch_disarm_stops_traps():
    m = small_machine()
    hits = []
    w = m.watches.arm_all_cores(0x100000, 8, lambda c, i, r, cy: hits.append(c))
    m.watches.disarm(w)
    m.spawn("t", 0, iter([Instr("load", "f", 1, addr=0x100000, size=8)]))
    m.run()
    assert hits == []
    assert not m.watches.any_armed


def test_watch_limits_enforced():
    m = small_machine()
    with pytest.raises(SimulationError):
        m.watches.arm_all_cores(0x100000, 16, lambda *a: None)  # > 8 bytes
    watches = [
        m.watches.arm_all_cores(0x100000 + i * 64, 8, lambda *a: None)
        for i in range(NUM_DEBUG_REGISTERS)
    ]
    with pytest.raises(SimulationError):
        m.watches.arm_all_cores(0x100400, 8, lambda *a: None)  # all 4 busy
    for w in watches:
        m.watches.disarm(w)
    # After disarm a slot is free again.
    m.watches.arm_all_cores(0x100400, 8, lambda *a: None)


def test_observers_see_every_access():
    m = small_machine()
    seen = []
    m.add_access_observer(lambda cpu, instr, result, cycle: seen.append(instr.addr))
    m.spawn("t", 0, loads(10))
    m.run()
    assert len(seen) == 10


def test_spawn_rejects_bad_cpu():
    m = small_machine()
    with pytest.raises(SimulationError):
        m.spawn("t", 99, loads(1))


def test_deterministic_replay():
    def build_and_run():
        m = small_machine()
        samples = []
        m.configure_ibs(interval=7, handler=lambda s: samples.append((s.cpu, s.ip)))
        m.spawn("a", 0, loads(300))
        m.spawn("b", 1, loads(300, base=0x200000))
        m.run()
        return samples, [c.cycle for c in m.cores]

    first = build_and_run()
    second = build_and_run()
    assert first == second


# ----------------------------------------------------------------------
# The fused instruction loop: IBS countdown and mid-quantum handler edges
# ----------------------------------------------------------------------


def mixed_stream(n):
    for i in range(n):
        if i % 5 == 4:
            yield Instr("exec", "fn", 100 + i % 3, work=2 + i % 4)
        else:
            kind = "store" if i % 3 == 0 else "load"
            yield Instr(kind, "fn", 200 + i % 7, addr=0x100000 + (i * 72) % 4096, size=8)


def test_loop_ibs_samples_match_unit_api():
    """The loop's inline countdown delivers exactly the samples that
    ``IbsUnit.on_instruction`` delivers for the same instruction stream."""
    m = small_machine(ncores=1, quantum=5)
    looped = []
    m.configure_ibs(interval=7, handler=looped.append)
    executed = []
    m.add_instr_observer(lambda cpu, instr, result, cycle: executed.append((instr, result)))
    m.spawn("t", 0, mixed_stream(600))
    m.run()

    unit = small_machine(ncores=1).cores[0].ibs  # same seed, same rng stream
    direct = []
    unit.configure(7, direct.append)
    cycle = 0
    for instr, result in executed:
        cycle += instr.work + (result.latency if result is not None else 0)
        cycle += unit.on_instruction(instr, result, cycle)

    assert len(looped) > 50
    assert [(s.cycle, s.ip, s.addr) for s in looped] == [
        (s.cycle, s.ip, s.addr) for s in direct
    ]
    assert m.cores[0].cycle == cycle
    assert m.cores[0].overhead_cycles == len(looped) * unit.interrupt_cycles


def test_disable_ibs_from_handler_stops_sampling_mid_quantum():
    m = small_machine(ncores=1, quantum=64)
    samples = []

    def handler(sample):
        samples.append(sample)
        m.disable_ibs()

    # Interval ~3 against a 64-instruction quantum: the first sample
    # fires a few instructions into the first quantum.
    m.configure_ibs(interval=3, handler=handler)
    m.spawn("t", 0, loads(200))
    m.run()
    assert len(samples) == 1
    assert m.cores[0].overhead_cycles == m.cores[0].ibs.interrupt_cycles


def test_watch_disarmed_by_its_own_handler_traps_once():
    m = small_machine(ncores=1, quantum=64)
    hits = []

    def handler(cpu, instr, result, cycle):
        hits.append(cycle)
        m.watches.disarm(watch)

    watch = m.watches.arm_all_cores(0x100000, 8, handler)
    m.spawn("t", 0, iter([Instr("load", "f", 1, addr=0x100000, size=8)] * 20))
    m.run()
    assert len(hits) == 1
    assert m.cores[0].overhead_cycles == m.watches.trap_cycles
    assert m.cores[0].instructions == 20


def test_watch_armed_by_ibs_handler_traps_later_in_the_quantum():
    m = small_machine(ncores=1, quantum=64)
    hits = []

    def arm_once(sample):
        if not m.watches.any_armed:
            m.watches.arm_all_cores(0x100000, 8, lambda *a: hits.append(a[3]))

    m.configure_ibs(interval=3, handler=arm_once)
    m.spawn("t", 0, iter([Instr("load", "f", 1, addr=0x100000, size=8)] * 20))
    m.run()
    # The first sample lands within the first few instructions; every
    # later load of the same 20-instruction quantum traps.
    assert 10 <= len(hits) < 20
