# repro: module-path=energy/fake_analyzer.py
"""BAD: a result computed from trace rows reads 0 when events are off."""


class FakeAnalyzer:
    def __init__(self, trace) -> None:
        self.trace = trace

    def missed(self, ip: str) -> int:
        return sum(
            1 for row in self.trace.query("medium.miss")
            if row.fields["dst"] == ip
        )


def drops(scenario) -> int:
    return scenario.trace.count("medium.drop.channel")


def rows(result) -> int:
    return len(result.obs.trace.all())
