"""§5 overhead estimation — remote-browser communication cost.

"The amounts of data transferring time and the bus contention time
spent for communication among browser caches … is very low.  The
largest accumulated communication and network contention portion out of
the total workload service time for all the traces is less than 1.2%.
In addition, the contention time only contributes up to 0.12% of the
total communication time."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.simulator import simulate
from repro.traces.profiles import PAPER_TRACES, load_paper_trace
from repro.util.fmt import ascii_table

__all__ = ["OverheadExperimentResult", "run"]


@dataclass
class OverheadExperimentResult:
    results: dict[str, SimulationResult]

    def render(self) -> str:
        headers = [
            "trace",
            "remote hits",
            "comm time (s)",
            "comm/total",
            "contention/comm",
            "index msgs",
        ]
        rows = []
        for name, r in self.results.items():
            o = r.overhead
            rows.append(
                [
                    name,
                    r.by_location_remote_hits(),
                    f"{o.remote_communication_time:.1f}",
                    f"{o.communication_fraction * 100:.3f}%",
                    f"{o.contention_fraction_of_communication * 100:.3f}%",
                    o.index_update_messages,
                ]
            )
        return ascii_table(
            headers,
            rows,
            title="Section 5: remote-browser communication overhead (BAPS, 10% cache)",
        )

    def max_communication_fraction(self) -> float:
        return max(
            (r.overhead.communication_fraction for r in self.results.values()),
            default=0.0,
        )

    def max_contention_fraction(self) -> float:
        return max(
            (r.overhead.contention_fraction_of_communication for r in self.results.values()),
            default=0.0,
        )


def run(
    trace_names: tuple[str, ...] | None = None,
    proxy_frac: float = 0.10,
    browser_sizing: str = "average",
) -> OverheadExperimentResult:
    names = trace_names or tuple(PAPER_TRACES)
    results = {}
    for name in names:
        trace = load_paper_trace(name)
        config = SimulationConfig.relative(
            trace, proxy_frac=proxy_frac, browser_sizing=browser_sizing
        )
        results[name] = simulate(trace, Organization.BROWSERS_AWARE_PROXY, config)
    return OverheadExperimentResult(results=results)
