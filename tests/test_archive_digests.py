"""Pinned archive digests: the simulator's output, byte for byte.

``test_fastpath_equivalence.py`` compares the fast engine with the
reference engine, but both run through the same ``Machine`` loop, so a
bug in the loop changes both sides alike and that comparison cannot see
it.  This file pins the sha256 of the ``export_session`` JSON for full
history-collecting sessions and for every registered scenario's default
served job, as written by a known-good tree.  Any change to scheduling,
IBS sampling, watch traps or the hierarchy moves a digest.

A change that is *meant* to alter archive bytes regenerates the data
file with::

    PYTHONPATH=src python tests/test_archive_digests.py --regenerate

and must say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.serve.workers
from repro.api import (
    SCENARIOS,
    JobSpec,
    collect_history_session,
    execute_job,
    export_session,
)

DATA = Path(__file__).parent / "data" / "archive_digests.json"
SEEDS = (1, 2)
SESSION_SCENARIOS = ("memcached", "apache")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def session_digest(name: str, seed: int) -> str:
    dprof = collect_history_session(name, ncores=4, seed=seed)
    return _sha(json.dumps(export_session(dprof)))


def job_digest(scenario: str, seed: int) -> str:
    _status, archive_text, _info = execute_job(
        JobSpec.create(scenario=scenario, seed=seed)
    )
    return _sha(archive_text)


def compute_all() -> dict:
    return {
        "sessions": {
            f"{name}/{seed}": session_digest(name, seed)
            for name in SESSION_SCENARIOS
            for seed in SEEDS
        },
        "jobs": {
            f"{scenario}/{seed}": job_digest(scenario, seed)
            for scenario in sorted(SCENARIOS)
            for seed in SEEDS
        },
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


def test_every_scenario_is_pinned(pinned):
    assert set(pinned["jobs"]) == {
        f"{scenario}/{seed}" for scenario in SCENARIOS for seed in SEEDS
    }


@pytest.mark.parametrize("name", SESSION_SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_history_session_digest(pinned, name, seed):
    assert session_digest(name, seed) == pinned["sessions"][f"{name}/{seed}"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_job_digest(pinned, scenario, seed):
    assert job_digest(scenario, seed) == pinned["jobs"][f"{scenario}/{seed}"]


def test_noop_observers_leave_archive_unchanged(pinned, monkeypatch):
    """Attached observers take the loop's observer branch; doing nothing
    there must change nothing."""
    seen = {"instr": 0, "access": 0}
    build = repro.serve.workers.build_kernel

    def build_observed(*args, **kwargs):
        kernel = build(*args, **kwargs)

        def on_instr(cpu, instr, result, cycle):
            seen["instr"] += 1

        def on_access(cpu, instr, result, cycle):
            seen["access"] += 1

        kernel.machine.add_instr_observer(on_instr)
        kernel.machine.add_access_observer(on_access)
        return kernel

    monkeypatch.setattr(repro.serve.workers, "build_kernel", build_observed)
    digest = session_digest("memcached", SEEDS[0])
    assert seen["instr"] > seen["access"] > 0
    assert digest == pinned["sessions"][f"memcached/{SEEDS[0]}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_archive_digests.py --regenerate")
    DATA.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
