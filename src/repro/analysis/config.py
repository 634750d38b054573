"""Per-rule configuration for the analysis engine.

Scopes are prefixes of the *package-relative* path of a module (e.g.
``core/scheduler.py`` has module path ``core/scheduler.py``); an empty
prefix matches everything. Rules consult the config so tests can widen
or narrow scopes without monkey-patching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.findings import Severity

#: Directories whose code runs under simulated time. Wall-clock reads,
#: blocking I/O, and ambient entropy are forbidden here.
SIM_SCOPE: tuple[str, ...] = (
    "sim/", "core/", "net/", "faults/", "obs/", "campus/",
)

#: Directories whose iteration order can reach scheduling decisions.
ORDER_SCOPE: tuple[str, ...] = ("core/", "net/", "faults/", "campus/")

#: Directories where bare time/size literals must use ``repro.units``.
UNITS_SCOPE: tuple[str, ...] = ("core/", "net/", "campus/")

#: Directories whose public API must be fully type-annotated.
API_SCOPE: tuple[str, ...] = ("core/", "energy/")

#: Modules allowed to touch entropy sources (the blessed RNG factory).
ENTROPY_ALLOWED: tuple[str, ...] = ("sim/random.py",)

#: Modules allowed to write (``record``, OBS001) or read (``query`` /
#: ``count`` / ``all``, OBS002) trace rows directly — the Recorder
#: facade and exporters, and the trace module they wrap.
OBS_ALLOWED: tuple[str, ...] = ("obs/", "sim/trace.py")

#: Artifact driver modules that must execute runs through the sweep
#: engine (SweepSpec + SweepEngine) rather than calling the simulation
#: runner directly — that is what makes caching and parallel fan-out
#: apply to every figure/table/baseline/report uniformly.
SWEEP_SCOPE: tuple[str, ...] = (
    "experiments/figures.py",
    "experiments/tables.py",
    "experiments/baselines.py",
    "experiments/report_gen.py",
)

#: Modules allowed to call the shard-migration primitives
#: (``release_client`` / ``adopt_client`` / ``forget_client``) — the
#: HandoffCoordinator is the single place cross-shard state may move.
CAMPUS_HANDOFF_ALLOWED: tuple[str, ...] = ("campus/handoff.py",)


@dataclass(frozen=True)
class AnalysisConfig:
    """Engine-wide settings; the defaults encode the repo's invariants."""

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    severities: Mapping[str, Severity] = field(default_factory=dict)

    entropy_allowed: tuple[str, ...] = ENTROPY_ALLOWED
    obs_allowed: tuple[str, ...] = OBS_ALLOWED
    sim_scope: tuple[str, ...] = SIM_SCOPE
    order_scope: tuple[str, ...] = ORDER_SCOPE
    units_scope: tuple[str, ...] = UNITS_SCOPE
    api_scope: tuple[str, ...] = API_SCOPE
    sweep_scope: tuple[str, ...] = SWEEP_SCOPE
    campus_handoff_allowed: tuple[str, ...] = CAMPUS_HANDOFF_ALLOWED

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select is not None:
            return rule_id in self.select
        return True


#: Config used by tests to run every rule on a snippet regardless of
#: where the snippet file lives.
EVERYWHERE = AnalysisConfig(
    entropy_allowed=(),
    obs_allowed=(),
    sim_scope=("",),
    order_scope=("",),
    units_scope=("",),
    api_scope=("",),
    sweep_scope=("",),
    campus_handoff_allowed=(),
)
