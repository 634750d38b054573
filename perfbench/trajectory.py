"""Tags, the per-run table, and the recorded ledger with its baseline column.

A ledger row is one benchmark result tagged with the code fingerprint
(:func:`repro.sweep.code_fingerprint`), the CPU count, the Python
version and the seed. The report shows, per workload and mode, the
latest row next to its baseline: the previous row recorded on the same
CPU count.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

RULE = "═" * 72
THIN = "─" * 68


def _num(value: float) -> str:
    """Counts exactly, everything else to six significant digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def tags(seed: int) -> dict:
    from repro.sweep import code_fingerprint

    return {
        "fingerprint": code_fingerprint(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def _header(workload: str, trace: int, tag: dict) -> list[str]:
    return [
        RULE,
        f"  perfbench {workload}  |  trace {trace}  |  seed {tag['seed']}  |  "
        f"cpus {tag['cpus']}  |  python {tag['python']}",
        f"  code {tag['fingerprint'][:16]}",
        RULE,
    ]


def table(workload: str, trace: int, tag: dict, digest: str, result: dict) -> str:
    """The human-readable block printed above the JSON result line."""
    lines = _header(workload, trace, tag)
    if digest:
        lines.append(f"  simulated-output digest {digest}")
    lines.append(f"  {'Metric':<34} {'Value':>16}  Unit")
    lines.append(f"  {THIN}")
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<34} {_num(metric['value']):>16}  {metric['unit']}")
    lines.append(f"  {THIN}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines.append(
        f"  {'error_rate':<34} {rate:>16.6g}  "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    lines.append(f"  {'correct':<34} {str(result['correct']):>16}")
    lines.append(RULE)
    return "\n".join(lines)


def _load(path: Path) -> list[dict]:
    return json.loads(path.read_text()) if path.exists() else []


def record(
    path: Path, workload: str, trace: int, tag: dict, digest: str, result: dict
) -> None:
    """Append one tagged row to the ledger."""
    rows = _load(path)
    rows.append({
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "trace": trace,
        **tag,
        "digest": digest,
        **result,
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=2) + "\n")


def _baseline(rows: list[dict], latest: dict) -> Optional[dict]:
    """The previous row of the same workload and mode on the same CPU count."""
    for row in reversed(rows[: rows.index(latest)]):
        if (row["workload"], row["trace"], row["cpus"]) == (
            latest["workload"], latest["trace"], latest["cpus"]
        ):
            return row
    return None


def render(path: Path) -> str:
    """Per-workload tables of the latest rows against their baselines."""
    rows = _load(path)
    if not rows:
        return f"no rows recorded in {path}"
    latest: dict[tuple[str, int], dict] = {}
    for row in rows:
        latest[(row["workload"], row["trace"])] = row
    lines: list[str] = []
    for key in sorted(latest):
        row = latest[key]
        base = _baseline(rows, row)
        lines += _header(row["workload"], row["trace"], row)
        lines.append(
            f"  recorded {row['recorded_at']}  |  baseline "
            + (f"{base['recorded_at']} (code {base['fingerprint'][:16]})"
               if base else "—")
        )
        lines.append(f"  {'Metric':<30} {'Value':>12} {'Baseline':>12} {'Delta':>9}  Unit")
        lines.append(f"  {THIN}")
        for name, metric in row["metrics"].items():
            value = metric["value"]
            before = base["metrics"].get(name, {}).get("value") if base else None
            shown = f"{_num(before) if before is not None else '—':>12}"
            delta = (
                f"{100.0 * (value - before) / abs(before):>+8.1f}%"
                if before else f"{'—':>9}"
            )
            lines.append(f"  {name:<30} {_num(value):>12} {shown} {delta}  {metric['unit']}")
        lines.append(RULE)
        lines.append("")
    return "\n".join(lines)
