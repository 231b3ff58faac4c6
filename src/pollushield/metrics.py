"""Run reports and their CSV/JSON serialization.

CSV output is a pure function of the report: fixed column order, rows
sorted, floats printed with six fractional digits (round-half-even), so
golden files catch any behavioural drift.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

TrajectoryRow = Tuple[int, float, float, float, float]  # round, D, I, alpha, T


@dataclass(frozen=True)
class PeerSummary:
    peer: int
    behavior: str
    goodput: float                    # clean chunks per measured round
    polluted_accepted: int
    detection_round: Optional[int]    # None when never seen below threshold
    requests_received: int


@dataclass
class MetricsReport:
    trajectories: Dict[Tuple[int, int], List[TrajectoryRow]]
    summary: List[PeerSummary]
    run_meta: Dict[str, object]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def emit_csv(report: MetricsReport, out_dir: str) -> List[str]:
    """Write <name>_trajectories.csv, <name>_summary.csv and <name>_meta.json.

    Returns the list of paths written. Raises OSError when the output
    location cannot be created or written.
    """
    name = str(report.run_meta.get("name", "run"))
    os.makedirs(out_dir, exist_ok=True)

    traj_path = os.path.join(out_dir, f"{name}_trajectories.csv")
    lines = ["round,observer,subject,direct,indirect,alpha,trust\n"]
    for (observer, subject) in sorted(report.trajectories):
        for round_no, d, ind, alpha, trust in report.trajectories[(observer, subject)]:
            lines.append(
                f"{round_no},{observer},{subject},"
                f"{_fmt(d)},{_fmt(ind)},{_fmt(alpha)},{_fmt(trust)}\n"
            )
    with open(traj_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    summary_path = os.path.join(out_dir, f"{name}_summary.csv")
    lines = ["peer,behavior,goodput,polluted_accepted,detection_round,requests_received\n"]
    for row in sorted(report.summary, key=lambda s: s.peer):
        detection = "" if row.detection_round is None else str(row.detection_round)
        lines.append(
            f"{row.peer},{row.behavior},{_fmt(row.goodput)},"
            f"{row.polluted_accepted},{detection},{row.requests_received}\n"
        )
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    meta_path = os.path.join(out_dir, f"{name}_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(report.run_meta, fh, sort_keys=True, indent=2)
        fh.write("\n")

    return [traj_path, summary_path, meta_path]
