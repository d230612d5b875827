"""What one benchmark run measured: operation records and metrics."""

from __future__ import annotations

import traceback


class Outcome:
    """Operation records plus the metrics derived from them.

    Every operation is one record; a record with any problem (an
    exception, or a failed output check, including checks made after the
    timed loop) counts as one failed operation.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        #: end-to-end name -> (value, sample count)
        self.e2e: dict[str, tuple[float, int]] = {}
        #: per-layer name -> value
        self.layer: dict[str, float] = {}

    def attempt(self, op) -> dict | None:
        """Run one operation; returns its record, or None if it raised."""
        try:
            record = op()
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            self.records.append(
                {"problems": [f"{type(exc).__name__}: {exc}"],
                 "traceback": traceback.format_exc()}
            )
            return None
        record.setdefault("problems", [])
        self.records.append(record)
        return record

    @staticmethod
    def blame(record: dict, problem: str) -> None:
        record["problems"].append(problem)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    def problems(self) -> list[str]:
        return [p for r in self.records for p in r["problems"]]

    def check_first_archive(self, records: list[dict], reference_digest) -> None:
        """The first operation's archive must equal a rerun of its seed."""
        if records and reference_digest(records[0]["seed"]) != records[0]["digest"]:
            self.blame(records[0], f"seed {records[0]['seed']}: archive differs on rerun")

    def add_rates(self, records: list[dict], instructions: int) -> None:
        """ops_per_s and sim_instr_per_s over the operations' summed wall."""
        wall = sum(r["wall"] for r in records)
        self.e2e["ops_per_s"] = (len(records) / wall, len(records))
        self.e2e["sim_instr_per_s"] = (instructions / wall, len(records))

    # ------------------------------------------------------------------
    # Per-layer helpers shared by the workloads
    # ------------------------------------------------------------------

    def add_sim_counts(self, records: list[dict]) -> None:
        """Deterministic simulator counts summed over *records*."""
        counters = [r["counters"] for r in records]
        layer = self.layer
        layer["hw.instructions"] = sum(c["instructions"] for c in counters)
        layer["hw.accesses"] = sum(c["accesses"] for c in counters)
        layer["hw.l1_hits"] = sum(c["levels"]["L1"] for c in counters)
        layer["hw.foreign"] = sum(c["levels"]["FOREIGN"] for c in counters)
        layer["hw.dram"] = sum(c["levels"]["DRAM"] for c in counters)
        layer["hw.invalidations"] = sum(c["miss_kinds"]["invalidation"] for c in counters)
        layer["hw.ibs.samples"] = sum(r["ibs_samples"] for r in records)
        layer["sim.cycles"] = sum(c["cycles"] for c in counters)
        layer["archive.bytes"] = sum(r["bytes"] for r in records)

    def add_phase_counts(self, tracer, phases: tuple[str, ...]) -> None:
        """Host us per simulated instruction and simulated overhead share,
        from the ``Kernel.run`` phase spans."""
        spans = [s for s in tracer.spans if s.name in phases]
        instructions = sum(s.counts["instructions"] for s in spans)
        core_cycles = sum(s.counts["core_cycles"] for s in spans)
        self.layer["sim.host_us_per_instr"] = (
            1e6 * sum(s.duration for s in spans) / max(1, instructions)
        )
        self.layer["sim.overhead_pct"] = (
            100.0 * sum(s.counts["overhead_cycles"] for s in spans) / max(1, core_cycles)
        )

    def add_host_shares(self, sampler) -> None:
        """host.* shares, sampler coverage, and host ns per access."""
        for bucket, share in sampler.shares_pct().items():
            self.layer[f"host.{bucket}_pct"] = share
        self.layer["host.coverage_pct"] = sampler.coverage_pct()
        accesses = self.layer.get("hw.accesses", 0)
        if accesses:
            self.layer["sim.host_ns_per_access"] = (
                1e9 * sampler.seconds_in("hw.hierarchy") / accesses
            )

    def add_trace_quality(self, tracer, plain_s: float, traced_s: float) -> None:
        """Tracing overhead and span coverage.

        *plain_s* and *traced_s* are the wall seconds of the same
        operations untraced and traced; ops/s is n / wall, so the
        relative drop in ops/s is 1 - plain_s / traced_s.
        """
        self.layer["trace.overhead_pct"] = 100.0 * (1.0 - plain_s / traced_s)
        self.layer["trace.span_coverage_pct"] = 100.0 * tracer.min_root_coverage()
