"""``RunConfig`` -- the one set of knobs shared by every pipeline layer.

``seed``, ``engine``, ``analysis``, and ``analysis_workers`` were
historically duplicated across :class:`~repro.dprof.profiler.DProfConfig`,
:class:`~repro.hw.machine.MachineConfig`, and
:class:`~repro.serve.jobs.JobSpec`, each with its own default and its own
validation.  :class:`RunConfig` folds them into a single frozen value
accepted by :class:`~repro.dprof.profiler.DProf`, the CLI, and
:meth:`~repro.serve.jobs.JobSpec.create` -- while the
legacy per-layer configs keep working unchanged via the adapter methods
(:meth:`RunConfig.machine_config`, :meth:`RunConfig.dprof_config`,
:meth:`RunConfig.job_kwargs`), which are tested to produce bit-identical
sessions to the old kwargs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Valid access-simulation engines (mirrors MachineConfig validation).
ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class RunConfig:
    """The knobs every layer shares, stated once.

    ``seed`` drives the machine RNG, the workload, and deterministic
    trace ids; ``engine`` picks the access-simulation implementation;
    ``analysis``/``analysis_workers`` select the path-trace pipeline.
    ``trace`` turns on span tracing for the run.
    """

    seed: int = 42
    engine: str = "reference"
    analysis: str = "indexed"
    analysis_workers: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r} (choose {' or '.join(ENGINES)})"
            )
        # Analysis modes are validated here too so a bad RunConfig fails
        # at construction, not deep inside analyze_histories.
        from repro.dprof.analysis import ANALYSIS_MODES

        if self.analysis not in ANALYSIS_MODES:
            raise ConfigError(
                f"unknown analysis mode {self.analysis!r} "
                f"(choose {' or '.join(ANALYSIS_MODES)})"
            )
        if self.analysis_workers < 0:
            raise ConfigError("analysis_workers must be >= 0")

    # ------------------------------------------------------------------
    # Adapters to the legacy per-layer configs
    # ------------------------------------------------------------------

    def machine_config(self, **overrides):
        """A :class:`~repro.hw.machine.MachineConfig` with these knobs.

        Extra machine-only kwargs (``ncores``, cache geometry, ...) pass
        through unchanged.
        """
        from repro.hw.machine import MachineConfig

        kwargs = {"seed": self.seed, "engine": self.engine}
        kwargs.update(overrides)
        return MachineConfig(**kwargs)

    def dprof_config(self, **overrides):
        """A :class:`~repro.dprof.profiler.DProfConfig` with these knobs.

        Note: DProfConfig's ``seed`` is the *profiler* seed (defaults to
        99, independent of the machine seed) so it is NOT overridden
        here unless passed explicitly -- matching how every existing
        call site builds the two configs.
        """
        from repro.dprof.profiler import DProfConfig

        kwargs = {
            "analysis": self.analysis,
            "analysis_workers": self.analysis_workers,
        }
        kwargs.update(overrides)
        return DProfConfig(**kwargs)

    def job_kwargs(self) -> dict:
        """The :meth:`~repro.serve.jobs.JobSpec.create` kwargs this
        config implies."""
        return {
            "seed": self.seed,
            "engine": self.engine,
            "analysis": self.analysis,
            "trace": self.trace,
        }
