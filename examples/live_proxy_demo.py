#!/usr/bin/env python
"""The live asyncio proxy on real localhost sockets.

Starts an origin byte server, the scheduling proxy and two power-aware
clients inside one event loop; each client downloads a paced stream
through the proxy while its *virtual* WNIC logs sleep/wake transitions
around the schedule and burst rendezvous points. Prints the wall-clock
energy estimate. (The evaluation numbers come from the discrete-event
simulator — see DESIGN.md for why; this demo shows the same mechanism
working over real sockets.)

Run:  python examples/live_proxy_demo.py
"""

import asyncio

from repro.runtime import LoadTestConfig, run_loadtest


def main() -> None:
    report = asyncio.run(
        run_loadtest(
            LoadTestConfig(
                clients=2,
                requests_per_client=1,
                bytes_per_request=300_000,
                burst_interval_s=0.1,
                origin_pace_s=0.005,
            )
        )
    )
    print("client     bytes     schedules  marks  awake   est. saved")
    for row in report.client_rows:
        print(
            f"{row['client']:<9} {row['bytes']:>8}"
            f"  {row['schedules']:>8}  {row['marks']:>5}"
            f"  {row['awake_pct']:5.1f}%"
            f"  {row['est_saved_pct']:6.1f}%"
        )


if __name__ == "__main__":
    main()
