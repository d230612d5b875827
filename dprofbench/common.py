"""Shared helpers: seeded operation lists, statistics, host probes.

Nothing here imports the program under test at module level, so the
unit tests can exercise these helpers without a simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

#: Repository root (the checkout the benchmark runs in).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server stores and trace files (git-ignored).
WORK = ROOT / ".dprofbench-work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


def rng_for(seed: int, label: str) -> random.Random:
    """An independent, reproducible stream for (*seed*, *label*)."""
    digest = hashlib.sha256(f"dprofbench:{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def fresh_seeds(rng: random.Random, count: int) -> list[int]:
    """*count* distinct simulation seeds drawn from *rng*."""
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < count:
        seed = rng.randrange(1, 2**31)
        if seed not in seen:
            seen.add(seed)
            seeds.append(seed)
    return seeds


def percentile(values, q: float) -> float:
    """Nearest-rank *q*-th percentile of *values*.

    Raises :class:`TooFewSamples` unless at least ten samples lie above
    the returned rank, so a tail figure is never read off a handful of
    points.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})"
        )
    return ordered[rank - 1]


def mean(values) -> float:
    """Arithmetic mean; 0.0 for no values (every operation failed)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def host_probe(loops: int = 1_500_000) -> float:
    """Seconds a fixed pure-Python loop takes: a host-speed diagnostic.

    Printed before and after each run so host drift can be told apart
    from a regression; it scales no metric.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += (i * i) & 7
    return time.perf_counter() - t0


def steal_s() -> float:
    """Seconds of vCPU time the hypervisor has taken, summed over CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


_SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import repro.api as api
t1 = time.perf_counter()
api.build_kernel(4, seed=int(sys.argv[1]), engine="fast")
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_kernel_s": t2 - t1}))
"""


def setup_probes(seed: int, count: int) -> list[dict]:
    """Time import plus first kernel build in *count* fresh interpreters.

    Run one after another, so at most one probe process exists at a time.
    """
    samples = []
    for kseed in fresh_seeds(rng_for(seed, "setup"), count):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(kseed)],
            cwd=ROOT,
            env=program_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        blob = json.loads(out.stdout.strip().splitlines()[-1])
        blob["setup_s"] = blob["import_s"] + blob["build_kernel_s"]
        samples.append(blob)
    return samples


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return proc_peak_rss_mb(os.getpid())


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM of *pid* in MiB (0.0 when the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid* (Linux /proc)."""
    kids: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                kids.extend(int(tok) for tok in fh.read().split())
    except (FileNotFoundError, ProcessLookupError):
        pass
    return kids


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    blob = json.loads(BENCHMARK_JSON.read_text())
    e2e = {m["name"]: m["unit"] for m in blob["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in blob["per_layer"]}
    return e2e, layer
