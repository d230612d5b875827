"""Batched fast-path engine for the access-simulation hot loop.

Every evaluation number in the reproduction derives from pushing millions
of memory accesses through the MESI hierarchy, and the reference
implementation (:mod:`repro.hw.cache` / :mod:`repro.hw.hierarchy`) pays
for its readability on every single access: an ``OrderedDict`` reorder
per cache probe, a ``set`` allocation per directory consultation, and an
:class:`~repro.hw.events.AccessResult` object per event.  This module
provides the fast path:

- :class:`LineInterner` maps sparse global line addresses to dense ids,
  so directory state lives in flat lists instead of hash tables;
- :class:`FastCacheArray` replaces the per-access ``OrderedDict`` LRU
  churn with array-backed recency counters (parallel tag/stamp arrays
  per set; the victim is the minimum stamp);
- :class:`FastDirectory` keeps holder sets as integer bitmasks;
- :class:`FastHierarchy` is a drop-in :class:`MemoryHierarchy`
  replacement built from the above (``MachineConfig(engine="fast")``);
- :class:`BatchReplayEngine` replays a pre-encoded trace through one
  monolithic loop with everything held in local variables -- the engine
  ``repro.bench`` times and the differential suite checks bit-for-bit
  against the reference path;
- :func:`build_synthetic_trace` shards independent per-CPU event streams
  across ``multiprocessing`` workers (each seeded through
  :class:`repro.util.rng.DeterministicRng` children) and merges them with
  a deterministic cycle-ordered merge, so generated traces are identical
  no matter how many workers produced them.

Equivalence contract: for any event sequence, the fast structures make
exactly the replacement, coherence, and classification decisions the
reference structures make.  ``tests/test_fastpath_equivalence.py`` and
``tests/test_coherence_property.py`` enforce this.
"""

from __future__ import annotations

import heapq
import multiprocessing

from repro.hw.cache import CacheGeometry
from repro.hw.events import (
    AccessResult,
    CacheLevel,
    EvictionRecord,
    InvalidationRecord,
    MissKind,
    TraceEvent,
)
from repro.hw.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.util.rng import DeterministicRng

#: Compact miss-kind codes used by encoded outcomes (0 = hit / no kind).
KIND_NONE = 0
KIND_COLD = 1
KIND_INVALIDATION = 2
KIND_EVICTION = 3

_KIND_CODE = {
    None: KIND_NONE,
    MissKind.COLD: KIND_COLD,
    MissKind.INVALIDATION: KIND_INVALIDATION,
    MissKind.EVICTION: KIND_EVICTION,
}
_KIND_NAME = {
    KIND_COLD: MissKind.COLD.value,
    KIND_INVALIDATION: MissKind.INVALIDATION.value,
    KIND_EVICTION: MissKind.EVICTION.value,
}


class LineInterner:
    """Dense integer ids for the line addresses a trace touches.

    Ids are assigned in first-appearance order, so interning the same
    event sequence always yields the same mapping -- a requirement for
    the bit-for-bit replay guarantee.
    """

    __slots__ = ("_ids", "raw_lines")

    def __init__(self) -> None:
        self._ids: dict[int, int] = {}
        self.raw_lines: list[int] = []

    def intern(self, line: int) -> int:
        """Return the dense id for *line*, assigning one if new."""
        lid = self._ids.get(line)
        if lid is None:
            lid = len(self.raw_lines)
            self._ids[line] = lid
            self.raw_lines.append(line)
        return lid

    def __len__(self) -> int:
        return len(self.raw_lines)


class FastCacheArray:
    """API-compatible :class:`~repro.hw.cache.CacheArray` replacement.

    Each set is a pair of parallel arrays -- resident tags and their
    recency stamps -- instead of an ``OrderedDict``.  A hit overwrites
    one stamp (no reordering); the victim on insert is the tag with the
    minimum stamp.  Stamps come from one per-cache monotonic clock, so
    victim choice is always unique and exactly matches the reference
    array's least-recently-used order.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._nsets = geometry.num_sets
        self._tags: list[list[int]] = [[] for _ in range(self._nsets)]
        self._stamps: list[list[int]] = [[] for _ in range(self._nsets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, line: int) -> bool:
        """Probe for *line*; refresh its recency stamp on a hit."""
        s = line % self._nsets
        tags = self._tags[s]
        try:
            i = tags.index(line)
        except ValueError:
            self.misses += 1
            return False
        self._clock += 1
        self._stamps[s][i] = self._clock
        self.hits += 1
        return True

    def contains(self, line: int) -> bool:
        """Probe without disturbing recency or counters."""
        return line in self._tags[line % self._nsets]

    def insert(self, line: int) -> int | None:
        """Insert *line*, returning the evicted victim line if the set was full."""
        s = line % self._nsets
        tags = self._tags[s]
        stamps = self._stamps[s]
        self._clock += 1
        try:
            i = tags.index(line)
        except ValueError:
            i = -1
        if i >= 0:
            stamps[i] = self._clock
            return None
        victim = None
        if len(tags) >= self.geometry.ways:
            i = stamps.index(min(stamps))
            victim = tags.pop(i)
            stamps.pop(i)
            self.evictions += 1
        tags.append(line)
        stamps.append(self._clock)
        return victim

    def remove(self, line: int) -> bool:
        """Drop *line* if present (invalidation); returns whether it was there."""
        s = line % self._nsets
        tags = self._tags[s]
        try:
            i = tags.index(line)
        except ValueError:
            return False
        tags.pop(i)
        self._stamps[s].pop(i)
        return True

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(tags) for tags in self._tags)

    def set_occupancy(self, set_index: int) -> int:
        """Number of lines resident in one associativity set."""
        return len(self._tags[set_index])

    def lines(self):
        """Iterate over resident lines, oldest-first per set (reference order)."""
        for s, tags in enumerate(self._tags):
            stamps = self._stamps[s]
            for _, line in sorted(zip(stamps, tags)):
                yield line

    def lru_snapshot(self) -> tuple[tuple[int, ...], ...]:
        """Per-set lines in replacement order (next victim first)."""
        return tuple(
            tuple(line for _, line in sorted(zip(self._stamps[s], tags)))
            for s, tags in enumerate(self._tags)
        )

    def clear(self) -> None:
        """Empty the cache (used between profiling runs)."""
        for s in range(self._nsets):
            self._tags[s].clear()
            self._stamps[s].clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FastCacheArray({self.name}, {self.geometry.size}B, "
            f"{self.geometry.ways}-way, occ={self.occupancy()})"
        )


class FastDirectory:
    """Bitmask-backed MESI directory, API-compatible with
    :class:`~repro.hw.coherence.Directory` for everything the hierarchy,
    profilers, and tests consume (``holders_of``, ``record_*``,
    ``take_loss_record``, ``dirty_elsewhere``, loss-record maps, and
    ``invalidation_count``)."""

    def __init__(self, ncores: int) -> None:
        self.ncores = ncores
        self._holders: dict[int, int] = {}
        self._dirty: dict[int, int] = {}
        self.invalidated: list[dict[int, InvalidationRecord]] = [
            {} for _ in range(ncores)
        ]
        self.evicted: list[dict[int, EvictionRecord]] = [{} for _ in range(ncores)]
        self.invalidation_count = 0

    def holders_of(self, line: int) -> set[int]:
        """Cores currently holding *line* in a private cache."""
        mask = self._holders.get(line, 0)
        out = set()
        while mask:
            bit = mask & -mask
            out.add(bit.bit_length() - 1)
            mask ^= bit
        return out

    def record_read(self, cpu: int, line: int) -> None:
        """Note that *cpu* now holds *line* (shared)."""
        self._holders[line] = self._holders.get(line, 0) | (1 << cpu)
        owner = self._dirty.get(line)
        if owner is not None and owner != cpu:
            del self._dirty[line]

    def record_write(
        self,
        cpu: int,
        line: int,
        ip: int,
        addr: int,
        size: int,
        cycle: int,
    ) -> list[int]:
        """Note that *cpu* wrote *line*; invalidate and return other holders."""
        bit = 1 << cpu
        losers_mask = self._holders.get(line, 0) & ~bit
        losers = []
        mask = losers_mask
        while mask:
            low = mask & -mask
            loser = low.bit_length() - 1
            mask ^= low
            losers.append(loser)
            self.invalidated[loser][line] = InvalidationRecord(
                writer_cpu=cpu,
                writer_ip=ip,
                writer_addr=addr,
                writer_size=size,
                cycle=cycle,
            )
            self.invalidation_count += 1
        self._holders[line] = bit
        self._dirty[line] = cpu
        return losers

    def record_eviction(self, cpu: int, line: int, set_index: int, cycle: int) -> None:
        """Note that *cpu* lost *line* to set pressure in its private cache."""
        mask = self._holders.get(line)
        if mask is not None:
            self._holders[line] = mask & ~(1 << cpu)
            if self._dirty.get(line) == cpu:
                del self._dirty[line]
        self.evicted[cpu][line] = EvictionRecord(set_index=set_index, cycle=cycle)

    def take_loss_record(
        self, cpu: int, line: int
    ) -> tuple[InvalidationRecord | None, EvictionRecord | None]:
        """Pop and return why *cpu* last lost *line* (invalidation wins)."""
        inv = self.invalidated[cpu].pop(line, None)
        ev = self.evicted[cpu].pop(line, None)
        if inv is not None:
            return inv, None
        if ev is not None:
            return None, ev
        return None, None

    def dirty_elsewhere(self, cpu: int, line: int) -> int | None:
        """Return the core holding *line* dirty, if it is not *cpu*."""
        owner = self._dirty.get(line)
        if owner is not None and owner != cpu:
            return owner
        return None


class FastHierarchy(MemoryHierarchy):
    """Drop-in :class:`MemoryHierarchy` built from the fast structures.

    Selected with ``MachineConfig(engine="fast")``.  Behaviour is
    bit-identical to the reference hierarchy -- same levels, latencies,
    miss classifications, loss records, and counter values -- it just
    avoids the per-access ``OrderedDict`` reorders and ``set``
    allocations on the hot path.
    """

    def __init__(self, config: HierarchyConfig) -> None:
        super().__init__(config)
        self.l1 = [
            FastCacheArray(config.l1_geometry(), f"L1.{i}")
            for i in range(config.ncores)
        ]
        self.l2 = [
            FastCacheArray(config.l2_geometry(), f"L2.{i}")
            for i in range(config.ncores)
        ]
        self.l3 = FastCacheArray(config.l3_geometry(), "L3")
        self.directory = FastDirectory(config.ncores)

    def access(
        self,
        cpu: int,
        addr: int,
        size: int,
        is_write: bool,
        ip: int,
        cycle: int,
    ) -> AccessResult:
        """:meth:`MemoryHierarchy.access`, with the common case inlined.

        A single-line access probes the L1 and updates the stats right
        here.  Split accesses and runs with a ``trace_sink`` attached take
        the shared path in :class:`MemoryHierarchy`.
        """
        line_size = self.line_size
        line = addr // line_size
        if self.trace_sink is not None or (
            size > 1 and (addr + size - 1) // line_size != line
        ):
            return super().access(cpu, addr, size, is_write, ip, cycle)
        l1 = self.l1[cpu]
        s = line % l1._nsets
        tags = l1._tags[s]
        if line in tags:
            l1._clock += 1
            l1._stamps[s][tags.index(line)] = l1._clock
            l1.hits += 1
            latency = self.latencies.l1
            if is_write:
                # A line this core holds exclusive and dirty stays so:
                # record_write would change nothing.
                directory = self.directory
                if (
                    directory._dirty.get(line) != cpu
                    or directory._holders.get(line) != 1 << cpu
                ):
                    latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            result = AccessResult(CacheLevel.L1, latency)
        else:
            l1.misses += 1
            result = self._access_past_l1(cpu, line, is_write, ip, addr, size, cycle)
        stats = self.stats
        stats.accesses += 1
        level = result.level
        stats.level_counts[level] += 1
        stats.latency_by_level[level] += result.latency
        if result.miss_kind is not None:
            stats.miss_kind_counts[result.miss_kind] += 1
        users = stats.line_users
        users[line] = users.get(line, 0) | 1 << cpu
        return result

    def _access_line(
        self,
        cpu: int,
        line: int,
        is_write: bool,
        ip: int,
        addr: int,
        size: int,
        cycle: int,
    ) -> AccessResult:
        if self.l1[cpu].lookup(line):
            latency = self.latencies.l1
            if is_write:
                latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            return AccessResult(CacheLevel.L1, latency)
        return self._access_past_l1(cpu, line, is_write, ip, addr, size, cycle)

    def _access_past_l1(
        self,
        cpu: int,
        line: int,
        is_write: bool,
        ip: int,
        addr: int,
        size: int,
        cycle: int,
    ) -> AccessResult:
        """The rest of :meth:`_access_line` once the L1 probe missed."""
        lat = self.latencies
        l2 = self.l2[cpu]
        if l2.lookup(line):
            l2.remove(line)
            self._insert_private(cpu, line, cycle)
            latency = lat.l2
            if is_write:
                latency += self._write_upgrade(cpu, line, ip, addr, size, cycle)
            return AccessResult(CacheLevel.L2, latency)

        directory = self.directory
        inv = directory.invalidated[cpu].pop(line, None)
        ev = directory.evicted[cpu].pop(line, None)
        if inv is not None:
            miss_kind = MissKind.INVALIDATION
            ev = None
        elif ev is not None:
            miss_kind = MissKind.EVICTION
        else:
            miss_kind = MissKind.COLD

        owner = directory._dirty.get(line)
        if owner is not None and owner != cpu:
            level = CacheLevel.FOREIGN
            latency = lat.foreign
            self.l3.insert(line)
        elif self.l3.lookup(line):
            level = CacheLevel.L3
            latency = lat.l3
        elif directory._holders.get(line, 0) & ~(1 << cpu):
            level = CacheLevel.FOREIGN
            latency = lat.foreign_clean
        else:
            level = CacheLevel.DRAM
            latency = lat.dram

        if is_write:
            losers = directory.record_write(cpu, line, ip, addr, size, cycle)
            for loser in losers:
                self.l1[loser].remove(line)
                self.l2[loser].remove(line)
        else:
            directory.record_read(cpu, line)

        self._insert_private(cpu, line, cycle)
        return AccessResult(level, latency, miss_kind, inv, ev)

    def _write_upgrade(
        self, cpu: int, line: int, ip: int, addr: int, size: int, cycle: int
    ) -> int:
        losers = self.directory.record_write(cpu, line, ip, addr, size, cycle)
        if not losers:
            return 0
        for loser in losers:
            self.l1[loser].remove(line)
            self.l2[loser].remove(line)
        return self.latencies.upgrade

    def flush_all(self) -> None:
        """Empty every cache and forget coherence state (run boundary)."""
        for cache in self.l1:
            cache.clear()
        for cache in self.l2:
            cache.clear()
        self.l3.clear()
        self.directory = FastDirectory(self.config.ncores)


# ----------------------------------------------------------------------
# Trace encoding
# ----------------------------------------------------------------------


def encode_trace(
    events: list[TraceEvent],
    config: HierarchyConfig,
    interner: LineInterner | None = None,
) -> tuple[list[tuple], LineInterner]:
    """Pre-digest a trace for :class:`BatchReplayEngine`.

    Splits each access into the lines it touches, interns every line
    address, and precomputes each line's L1/L2/L3 set index, so the
    replay loop does no division and no hashing of sparse addresses.
    Encoded events are ``(cpu, is_write, ip, addr, size, cycle, parts)``
    with ``parts`` a tuple of ``(line_id, l1_set, l2_set, l3_set)``.
    """
    if interner is None:
        interner = LineInterner()
    intern = interner.intern
    line_size = config.line_size
    nsets1 = config.l1_geometry().num_sets
    nsets2 = config.l2_geometry().num_sets
    nsets3 = config.l3_geometry().num_sets
    # Traces revisit the same lines constantly; memoise each line's
    # (id, set indices) so per-event work is two dict probes.
    part_of: dict[int, tuple[int, int, int, int]] = {}
    single: dict[int, tuple] = {}
    encoded = []
    append = encoded.append
    for ev in events:
        addr = ev.addr
        size = ev.size
        first = addr // line_size
        last = (addr + size - 1) // line_size if size > 1 else first
        if first == last:
            parts = single.get(first)
            if parts is None:
                parts = (
                    (intern(first), first % nsets1, first % nsets2, first % nsets3),
                )
                single[first] = parts
        else:
            parts = tuple(
                part_of.get(line)
                or part_of.setdefault(
                    line,
                    (intern(line), line % nsets1, line % nsets2, line % nsets3),
                )
                for line in range(first, last + 1)
            )
        append((ev.cpu, ev.is_write, ev.ip, addr, size, ev.cycle, parts))
    return encoded, interner


def outcome_of(result: AccessResult) -> tuple:
    """Flatten an :class:`AccessResult` to the batch engine's outcome shape.

    ``(level, kind_code, latency, invalidation_tuple, eviction_tuple)`` --
    the differential tests compare these across engines access by access.
    """
    inv = result.invalidation
    ev = result.eviction
    return (
        int(result.level),
        _KIND_CODE[result.miss_kind],
        result.latency,
        None
        if inv is None
        else (inv.writer_cpu, inv.writer_ip, inv.writer_addr, inv.writer_size, inv.cycle),
        None if ev is None else (ev.set_index, ev.cycle),
    )


def replay_reference(
    events: list[TraceEvent],
    config: HierarchyConfig,
    collect: bool = False,
) -> tuple[MemoryHierarchy, list[tuple] | None]:
    """Replay a trace through a fresh reference hierarchy (the baseline)."""
    hierarchy = MemoryHierarchy(config)
    access = hierarchy.access
    if not collect:
        for ev in events:
            access(ev.cpu, ev.addr, ev.size, ev.is_write, ev.ip, ev.cycle)
        return hierarchy, None
    outcomes = [
        outcome_of(access(ev.cpu, ev.addr, ev.size, ev.is_write, ev.ip, ev.cycle))
        for ev in events
    ]
    return hierarchy, outcomes


# ----------------------------------------------------------------------
# The batched replay engine
# ----------------------------------------------------------------------


class BatchReplayEngine:
    """Replays an encoded trace through flat-array MESI state.

    One call to :meth:`run` is the entire hot loop: per-CPU tag/stamp
    arrays for L1/L2, one pair for L3, directory holder bitmasks and
    dirty owners in lists indexed by interned line id, and plain-int
    counters.  No objects are allocated for hits, and nothing is hashed
    except the (rare) loss-record maps.
    """

    def __init__(self, config: HierarchyConfig, interner: LineInterner) -> None:
        self.config = config
        self.interner = interner
        ncores = config.ncores
        g1, g2, g3 = (
            config.l1_geometry(),
            config.l2_geometry(),
            config.l3_geometry(),
        )
        self._geoms = (g1, g2, g3)
        self.l1_tags = [[[] for _ in range(g1.num_sets)] for _ in range(ncores)]
        self.l1_stamps = [[[] for _ in range(g1.num_sets)] for _ in range(ncores)]
        self.l2_tags = [[[] for _ in range(g2.num_sets)] for _ in range(ncores)]
        self.l2_stamps = [[[] for _ in range(g2.num_sets)] for _ in range(ncores)]
        self.l3_tags = [[] for _ in range(g3.num_sets)]
        self.l3_stamps = [[] for _ in range(g3.num_sets)]
        n = len(interner)
        self.holders = [0] * n
        self.dirty = [-1] * n
        self.inv_records: list[dict[int, tuple]] = [{} for _ in range(ncores)]
        self.ev_records: list[dict[int, tuple]] = [{} for _ in range(ncores)]
        self.invalidation_count = 0
        self.l1_hits = [0] * ncores
        self.l1_misses = [0] * ncores
        self.l1_evictions = [0] * ncores
        self.l2_hits = [0] * ncores
        self.l2_misses = [0] * ncores
        self.l2_evictions = [0] * ncores
        self.l3_hits = 0
        self.l3_misses = 0
        self.l3_evictions = 0
        self.accesses = 0
        self.level_counts = [0] * (max(CacheLevel) + 1)
        self.kind_counts = [0] * 4
        self._clock = 0

    def run(self, encoded: list[tuple], collect: bool = False) -> list[tuple] | None:
        """Replay every encoded event; optionally collect per-event outcomes."""
        # Local bindings: every container the loop touches is a local.
        cfg = self.config
        lat = cfg.latencies
        lat_l1, lat_l2, lat_l3 = lat.l1, lat.l2, lat.l3
        lat_foreign, lat_foreign_clean = lat.foreign, lat.foreign_clean
        lat_dram, lat_upgrade = lat.dram, lat.upgrade
        g1, g2, g3 = self._geoms
        l1_ways, l2_ways, l3_ways = g1.ways, g2.ways, g3.ways
        nsets2, nsets3 = g2.num_sets, g3.num_sets
        raw_of = self.interner.raw_lines
        l1_tags, l1_stamps = self.l1_tags, self.l1_stamps
        l2_tags, l2_stamps = self.l2_tags, self.l2_stamps
        l3_tags, l3_stamps = self.l3_tags, self.l3_stamps
        holders, dirty = self.holders, self.dirty
        inv_records, ev_records = self.inv_records, self.ev_records
        l1_hits, l1_misses, l1_ev = self.l1_hits, self.l1_misses, self.l1_evictions
        l2_hits, l2_misses, l2_ev = self.l2_hits, self.l2_misses, self.l2_evictions
        level_counts, kind_counts = self.level_counts, self.kind_counts
        clock = self._clock
        inv_count = self.invalidation_count
        accesses = self.accesses
        l3h, l3m, l3e = self.l3_hits, self.l3_misses, self.l3_evictions
        outcomes = [] if collect else None

        for cpu, wr, ip, addr, size, cycle, parts in encoded:
            bit = 1 << cpu
            not_bit = ~bit
            t1c, s1c = l1_tags[cpu], l1_stamps[cpu]
            t2c, s2c = l2_tags[cpu], l2_stamps[cpu]
            best_level = 0
            best_kind = KIND_NONE
            best_inv = best_ev = None
            total_latency = 0
            for lid, set1, set2, set3 in parts:
                inv_rec = ev_rec = None
                kind = KIND_NONE
                tags = t1c[set1]
                try:
                    i = tags.index(lid)
                except ValueError:
                    i = -1
                if i >= 0:
                    # L1 hit.
                    clock += 1
                    s1c[set1][i] = clock
                    l1_hits[cpu] += 1
                    level = 1
                    latency = lat_l1
                    if wr:
                        losers = holders[lid] & not_bit
                        if losers:
                            latency += lat_upgrade
                            mask = losers
                            while mask:
                                low = mask & -mask
                                loser = low.bit_length() - 1
                                mask ^= low
                                inv_records[loser][lid] = (cpu, ip, addr, size, cycle)
                                inv_count += 1
                                lt = l1_tags[loser][set1]
                                try:
                                    j = lt.index(lid)
                                    lt.pop(j)
                                    l1_stamps[loser][set1].pop(j)
                                except ValueError:
                                    lt2 = l2_tags[loser][set2]
                                    try:
                                        j = lt2.index(lid)
                                        lt2.pop(j)
                                        l2_stamps[loser][set2].pop(j)
                                    except ValueError:
                                        pass
                        holders[lid] = bit
                        dirty[lid] = cpu
                else:
                    l1_misses[cpu] += 1
                    tags2 = t2c[set2]
                    try:
                        i = tags2.index(lid)
                    except ValueError:
                        i = -1
                    if i >= 0:
                        # L2 hit: promote to L1 (exclusive hierarchy).
                        l2_hits[cpu] += 1
                        tags2.pop(i)
                        s2c[set2].pop(i)
                        level = 2
                        latency = lat_l2
                        if wr:
                            losers = holders[lid] & not_bit
                            if losers:
                                latency += lat_upgrade
                                mask = losers
                                while mask:
                                    low = mask & -mask
                                    loser = low.bit_length() - 1
                                    mask ^= low
                                    inv_records[loser][lid] = (
                                        cpu,
                                        ip,
                                        addr,
                                        size,
                                        cycle,
                                    )
                                    inv_count += 1
                                    lt = l1_tags[loser][set1]
                                    try:
                                        j = lt.index(lid)
                                        lt.pop(j)
                                        l1_stamps[loser][set1].pop(j)
                                    except ValueError:
                                        lt2 = l2_tags[loser][set2]
                                        try:
                                            j = lt2.index(lid)
                                            lt2.pop(j)
                                            l2_stamps[loser][set2].pop(j)
                                        except ValueError:
                                            pass
                            holders[lid] = bit
                            dirty[lid] = cpu
                    else:
                        # Local miss: classify, pick the serve level,
                        # update the directory -- reference order.
                        l2_misses[cpu] += 1
                        inv_rec = inv_records[cpu].pop(lid, None)
                        ev_rec = ev_records[cpu].pop(lid, None)
                        if inv_rec is not None:
                            kind = KIND_INVALIDATION
                            ev_rec = None
                        elif ev_rec is not None:
                            kind = KIND_EVICTION
                        else:
                            kind = KIND_COLD
                        owner = dirty[lid]
                        if owner >= 0 and owner != cpu:
                            level = 4
                            latency = lat_foreign
                            # Dirty line served to another core: write it
                            # back into the shared L3.
                            t3 = l3_tags[set3]
                            clock += 1
                            try:
                                j = t3.index(lid)
                                l3_stamps[set3][j] = clock
                            except ValueError:
                                st3 = l3_stamps[set3]
                                if len(t3) >= l3_ways:
                                    k = st3.index(min(st3))
                                    t3.pop(k)
                                    st3.pop(k)
                                    l3e += 1
                                t3.append(lid)
                                st3.append(clock)
                        else:
                            t3 = l3_tags[set3]
                            try:
                                j = t3.index(lid)
                            except ValueError:
                                j = -1
                            if j >= 0:
                                clock += 1
                                l3_stamps[set3][j] = clock
                                l3h += 1
                                level = 3
                                latency = lat_l3
                            else:
                                l3m += 1
                                if holders[lid] & not_bit:
                                    level = 4
                                    latency = lat_foreign_clean
                                else:
                                    level = 5
                                    latency = lat_dram
                        if wr:
                            losers = holders[lid] & not_bit
                            mask = losers
                            while mask:
                                low = mask & -mask
                                loser = low.bit_length() - 1
                                mask ^= low
                                inv_records[loser][lid] = (cpu, ip, addr, size, cycle)
                                inv_count += 1
                                lt = l1_tags[loser][set1]
                                try:
                                    j = lt.index(lid)
                                    lt.pop(j)
                                    l1_stamps[loser][set1].pop(j)
                                except ValueError:
                                    lt2 = l2_tags[loser][set2]
                                    try:
                                        j = lt2.index(lid)
                                        lt2.pop(j)
                                        l2_stamps[loser][set2].pop(j)
                                    except ValueError:
                                        pass
                            holders[lid] = bit
                            dirty[lid] = cpu
                        else:
                            holders[lid] |= bit
                            owner = dirty[lid]
                            if owner >= 0 and owner != cpu:
                                dirty[lid] = -1
                    # Promote/fill into L1, cascading evictions downward
                    # (shared by the L2-hit and local-miss paths).
                    tags = t1c[set1]
                    clock += 1
                    if len(tags) >= l1_ways:
                        st1 = s1c[set1]
                        k = st1.index(min(st1))
                        victim = tags.pop(k)
                        st1.pop(k)
                        l1_ev[cpu] += 1
                        tags.append(lid)
                        st1.append(clock)
                        vset2 = raw_of[victim] % nsets2
                        vt2 = t2c[vset2]
                        vs2 = s2c[vset2]
                        clock += 1
                        try:
                            j = vt2.index(victim)
                            vs2[j] = clock
                        except ValueError:
                            if len(vt2) >= l2_ways:
                                k = vs2.index(min(vs2))
                                victim2 = vt2.pop(k)
                                vs2.pop(k)
                                l2_ev[cpu] += 1
                                vt2.append(victim)
                                vs2.append(clock)
                                # Line leaves the private domain: release
                                # the holder bit, log why, spill to L3.
                                raw2 = raw_of[victim2]
                                holders[victim2] &= not_bit
                                if dirty[victim2] == cpu:
                                    dirty[victim2] = -1
                                ev_records[cpu][victim2] = (raw2 % nsets2, cycle)
                                vset3 = raw2 % nsets3
                                t3 = l3_tags[vset3]
                                clock += 1
                                try:
                                    j = t3.index(victim2)
                                    l3_stamps[vset3][j] = clock
                                except ValueError:
                                    st3 = l3_stamps[vset3]
                                    if len(t3) >= l3_ways:
                                        k = st3.index(min(st3))
                                        t3.pop(k)
                                        st3.pop(k)
                                        l3e += 1
                                    t3.append(victim2)
                                    st3.append(clock)
                            else:
                                vt2.append(victim)
                                vs2.append(clock)
                    else:
                        tags.append(lid)
                        s1c[set1].append(clock)
                # Merge multi-line parts exactly like the reference:
                # latencies add, the worst level's classification wins.
                total_latency += latency
                if level > best_level:
                    best_level = level
                    best_kind = kind
                    best_inv = inv_rec
                    best_ev = ev_rec
            accesses += 1
            level_counts[best_level] += 1
            if best_kind:
                kind_counts[best_kind] += 1
            if collect:
                outcomes.append(
                    (best_level, best_kind, total_latency, best_inv, best_ev)
                )

        self._clock = clock
        self.invalidation_count = inv_count
        self.accesses = accesses
        self.l3_hits, self.l3_misses, self.l3_evictions = l3h, l3m, l3e
        return outcomes

    def run_traced(
        self,
        encoded: list[tuple],
        probe,
        collect: bool = False,
        chunk: int = 4096,
    ) -> list[tuple] | None:
        """Replay in chunks, ticking a :class:`repro.trace.SimProbe` between
        them.  All replay state lives on the instance, so chunked calls to
        :meth:`run` are event-for-event identical to one call; the hot loop
        itself stays untouched.
        """
        outcomes = [] if collect else None
        for start in range(0, len(encoded), chunk):
            batch = encoded[start : start + chunk]
            result = self.run(batch, collect=collect)
            if collect:
                outcomes.extend(result)
            probe.tick_events(len(batch))
        return outcomes

    # ------------------------------------------------------------------
    # Snapshots mirroring the reference hierarchy's comparison surface
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Same shape as :meth:`HierarchyStats.snapshot`."""
        return {
            "accesses": self.accesses,
            "levels": {
                level.name: self.level_counts[level] for level in CacheLevel
            },
            "miss_kinds": {
                _KIND_NAME[code]: self.kind_counts[code]
                for code in (KIND_COLD, KIND_INVALIDATION, KIND_EVICTION)
            },
        }

    def cache_counters(self) -> dict[str, tuple[int, int, int]]:
        """Same shape as :meth:`MemoryHierarchy.cache_counters`."""
        counters = {}
        for cpu in range(self.config.ncores):
            counters[f"L1.{cpu}"] = (
                self.l1_hits[cpu],
                self.l1_misses[cpu],
                self.l1_evictions[cpu],
            )
        for cpu in range(self.config.ncores):
            counters[f"L2.{cpu}"] = (
                self.l2_hits[cpu],
                self.l2_misses[cpu],
                self.l2_evictions[cpu],
            )
        counters["L3"] = (self.l3_hits, self.l3_misses, self.l3_evictions)
        return counters

    def replacement_snapshot(self) -> dict[str, tuple]:
        """Same shape as :meth:`MemoryHierarchy.replacement_snapshot`."""
        raw_of = self.interner.raw_lines

        def order(tag_sets, stamp_sets):
            return tuple(
                tuple(
                    raw_of[lid]
                    for _, lid in sorted(zip(stamp_sets[s], tags))
                )
                for s, tags in enumerate(tag_sets)
            )

        snapshot = {}
        for cpu in range(self.config.ncores):
            snapshot[f"L1.{cpu}"] = order(self.l1_tags[cpu], self.l1_stamps[cpu])
        for cpu in range(self.config.ncores):
            snapshot[f"L2.{cpu}"] = order(self.l2_tags[cpu], self.l2_stamps[cpu])
        snapshot["L3"] = order(self.l3_tags, self.l3_stamps)
        return snapshot

    def loss_records(self) -> tuple[list[dict], list[dict]]:
        """Remaining (invalidated, evicted) maps keyed by raw line address."""
        raw_of = self.interner.raw_lines
        inv = [
            {raw_of[lid]: rec for lid, rec in records.items()}
            for records in self.inv_records
        ]
        ev = [
            {raw_of[lid]: rec for lid, rec in records.items()}
            for records in self.ev_records
        ]
        return inv, ev


def replay_fast(
    events: list[TraceEvent],
    config: HierarchyConfig,
    collect: bool = False,
) -> tuple[BatchReplayEngine, list[tuple] | None]:
    """Encode a trace and replay it through a fresh batch engine."""
    encoded, interner = encode_trace(events, config)
    engine = BatchReplayEngine(config, interner)
    outcomes = engine.run(encoded, collect=collect)
    return engine, outcomes


# ----------------------------------------------------------------------
# Sharded per-CPU stream generation + deterministic merge
# ----------------------------------------------------------------------


def synthetic_stream(
    seed: int,
    cpu: int,
    n_events: int,
    *,
    seq_base: int = 0,
    seq_step: int = 1,
    shared_lines: int = 32,
    private_lines: int = 256,
    line_size: int = 64,
    write_fraction: float = 0.3,
    shared_fraction: float = 0.25,
    straddle_fraction: float = 0.05,
) -> list[TraceEvent]:
    """One CPU's independent access stream, fully determined by (seed, cpu).

    Draws from a :class:`DeterministicRng` child named for the CPU, so the
    stream is identical whether it is generated inline or inside a
    ``multiprocessing`` worker.  The mix exercises every coherence path:
    shared lines (invalidations and foreign serves), a per-CPU private
    region (evictions once it exceeds the private caches), writes, and
    occasional line-straddling accesses.
    """
    rng = DeterministicRng(seed, "synthetic-trace").child(f"cpu{cpu}")
    private_base = (1 << 20) * (cpu + 1)
    events = []
    cycle = 0
    seq = seq_base
    for _ in range(n_events):
        cycle += rng.randint(1, 40)
        if rng.random() < shared_fraction:
            line = rng.randint(0, shared_lines - 1)
        else:
            line = private_base + rng.randint(0, private_lines - 1)
        if rng.random() < straddle_fraction:
            offset, size = line_size - 8, 16
        else:
            offset, size = 8 * rng.randint(0, (line_size // 8) - 2), 8
        events.append(
            TraceEvent(
                seq=seq,
                cycle=cycle,
                cpu=cpu,
                addr=line * line_size + offset,
                size=size,
                is_write=rng.random() < write_fraction,
                ip=0x40_0000 + cpu,
            )
        )
        seq += seq_step
    return events


def merge_streams(streams: list[list[TraceEvent]]) -> list[TraceEvent]:
    """Deterministic cycle-ordered merge of per-CPU event streams.

    Each input stream must be cycle-sorted (per-CPU streams are, by
    construction); ties are broken by ``seq``, which is unique across
    streams, so the merged order is a pure function of the events.
    """
    return list(heapq.merge(*streams, key=lambda ev: (ev.cycle, ev.seq)))


def _stream_shard(args: tuple) -> list[TraceEvent]:
    """Worker entry point for sharded stream generation (must be picklable)."""
    seed, cpu, n_events, ncores, kwargs = args
    return synthetic_stream(
        seed, cpu, n_events, seq_base=cpu, seq_step=ncores, **kwargs
    )


def build_synthetic_trace(
    seed: int,
    ncores: int,
    events_per_cpu: int,
    workers: int = 0,
    **kwargs,
) -> list[TraceEvent]:
    """Generate a multi-CPU trace, optionally sharding across processes.

    With ``workers > 1`` each per-CPU stream is generated in a
    ``multiprocessing`` pool; because every stream is a pure function of
    ``(seed, cpu)`` and the merge is cycle-ordered with seq tie-breaks,
    the result is bit-identical to the serial path (a pool failure --
    e.g. a sandbox without fork -- silently degrades to serial, keeping
    the same output).
    """
    shard_args = [
        (seed, cpu, events_per_cpu, ncores, kwargs) for cpu in range(ncores)
    ]
    streams: list[list[TraceEvent]] | None = None
    if workers > 1:
        try:
            with multiprocessing.Pool(min(workers, ncores)) as pool:
                streams = pool.map(_stream_shard, shard_args)
        except OSError:
            streams = None
    if streams is None:
        streams = [_stream_shard(args) for args in shard_args]
    return merge_streams(streams)
