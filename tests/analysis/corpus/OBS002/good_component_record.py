# repro: module-path=energy/fake_analyzer.py
"""GOOD: results read the component's own record, never the trace."""

from repro.experiments.runner import ExperimentResult
from repro.net.medium import WirelessMedium


class FakeAnalyzer:
    def __init__(self, medium: WirelessMedium) -> None:
        self.medium = medium

    def missed(self, ip: str) -> int:
        return sum(1 for miss in self.medium.misses if miss.dst == ip)


def rows(result: ExperimentResult) -> int:
    return len(result.obs.trace)
