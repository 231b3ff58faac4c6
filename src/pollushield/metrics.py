"""Run reports, their CSV/JSON serialization, and the seed-by-seed
comparison of two policies' results.

CSV output is a pure function of the report: fixed column order, rows
sorted, floats printed with six fractional digits (round-half-even), so
golden files catch any behavioural drift.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

TrajectoryRow = Tuple[int, float, float, float, float]  # round, D, I, alpha, T


class PeerSummary(NamedTuple):
    peer: int
    behavior: str
    goodput: float                    # clean chunks per measured round
    polluted_accepted: int
    detection_round: Optional[int]    # None when never seen below threshold
    requests_received: int


class MetricsReport(NamedTuple):
    trajectories: Dict[Tuple[int, int], List[TrajectoryRow]]
    summary: List[PeerSummary]
    run_meta: Dict[str, object]


class PairedSeeds(NamedTuple):
    diffs: List[float]     # first - second, per seed
    mean_diff: float
    wins: int              # seeds where first > second
    losses: int
    ties: int
    p_value: float         # exact two-sided sign test over the untied seeds


def paired_seeds(first: Sequence[float], second: Sequence[float]) -> PairedSeeds:
    """Compare two equal-length lists of per-seed values seed by seed. With
    n = wins + losses, p = min(1, 2 * sum_{i <= min(wins, losses)} C(n, i) / 2^n),
    so n = 0 gives 1."""
    if not first or len(first) != len(second):
        raise ValueError("need two non-empty lists of equal length")
    diffs = [a - b for a, b in zip(first, second)]
    wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    n = wins + losses
    p = min(1.0, 2 * sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n)
    return PairedSeeds(diffs, sum(diffs) / len(diffs), wins, losses, len(diffs) - n, p)


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
            lines.append("%d,%d,%d,%.6f,%.6f,%.6f,%.6f\n"
                         % (round_no, observer, subject, d, ind, alpha, trust))
    with open(traj_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    summary_path = os.path.join(out_dir, f"{name}_summary.csv")
    lines = ["peer,behavior,goodput,polluted_accepted,detection_round,requests_received\n"]
    for row in sorted(report.summary, key=lambda s: s.peer):
        detection = "" if row.detection_round is None else str(row.detection_round)
        lines.append(
            f"{row.peer},{row.behavior},{row.goodput:.6f},"
            f"{row.polluted_accepted},{detection},{row.requests_received}\n"
        )
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    meta_path = os.path.join(out_dir, f"{name}_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(report.run_meta, fh, sort_keys=True, indent=2)
        fh.write("\n")

    return [traj_path, summary_path, meta_path]
