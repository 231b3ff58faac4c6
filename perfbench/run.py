"""Benchmark harness for pollushield.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests N

Run from the root of a source checkout. Each repeat is a fresh child process
(worker.py) with `src` on PYTHONPATH, started one at a time, so at most one
child runs at any moment. Repeats continue until S seconds have passed (at
least 3 untraced repeats, or 2 untraced and 2 traced with --trace 1), then
the medians are printed. Every time is scaled to a reference host speed
with the loop timings in worker.py. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the environment. See README.md beside this file for the
workloads and metrics.

--record-digests N rewrites digests.json with the output digests of seeds
1..N for every workload.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from statistics import median

from worker import REF_LOOP_NS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
DIGESTS = os.path.join(HERE, "digests.json")
DEADLINE_S = 170.0  # the whole invocation must end within 180 s

END_TO_END_UNITS = {"run_s": "s", "deliveries_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


class ChildFailed(Exception):
    pass


def child_env():
    # a fixed hash seed keeps dict and set layouts, and so timings, alike
    # across children; the package's output does not depend on it
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def run_child(workload, seed, trace, timeout):
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           workload, str(seed), "1" if trace else "0", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout:.0f} s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_sha():
    """HEAD's commit id, read from .git without starting git; None outside
    a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_sha": git_sha()}


def describe(name, values, unit):
    line = f"  {name}: n={len(values)} median={median(values):.6g} {unit}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f" q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"
    print(line)


def scaled(run, seconds):
    """A time of one child, in seconds at the reference host speed."""
    return seconds * REF_LOOP_NS / run["loop_ns"]


def digest_key(run):
    return (run["digests"]["trajectories"], run["digests"]["summary"])


def recorded_digest(workload, seed):
    try:
        with open(DIGESTS) as fh:
            entry = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None
    return None if entry is None else (entry["trajectories"], entry["summary"])


def per_layer_metrics(traced, untraced):
    counts = traced[0]["counts"]
    calls = lambda name: counts.get(name + ".calls", 0)
    frac = lambda key, name: counts.get(key, 0) / calls(name) if calls(name) else 0.0
    self_s = lambda name: median([scaled(r, r["self_s"].get(name, 0.0)) for r in traced])
    share = lambda name: median([r["total_s"].get(name, 0.0) / r["run_s"] for r in traced])
    round_ms = sorted(scaled(r, ms) for r in traced for ms in r["round_ms"])
    deciles = statistics.quantiles(round_ms, n=10)

    qi, adm, decay = "sim_engine.query_indirect", "sim_engine.admission", "trust_core.apply_decay"
    values = {
        qi + ".calls": (calls(qi), "count"),
        qi + ".self_s": (self_s(qi), "s"),
        qi + ".scanned": (counts.get(qi + ".scanned", 0), "count"),
        qi + ".used": (counts.get(qi + ".used", 0), "count"),
        qi + ".none_frac": (frac(qi + ".none", qi), "ratio"),
        "sim_engine.evaluate_trust.calls": (calls("sim_engine.evaluate_trust"), "count"),
        "sim_engine.evaluate_trust.self_s": (self_s("sim_engine.evaluate_trust"), "s"),
        adm + ".calls": (calls(adm), "count"),
        adm + ".refuse_frac": (frac(adm + ".refuse", adm), "ratio"),
        adm + ".probe_frac": (frac(adm + ".probe", adm), "ratio"),
        "sim_engine.run_round.calls": (calls("sim_engine.run_round"), "count"),
        "sim_engine.run_round.self_s": (self_s("sim_engine.run_round"), "s"),
        "sim_engine.run_round.p50_ms": (deciles[4], "ms"),
        "sim_engine.run_round.p90_ms": (deciles[8], "ms"),
        "behaviors.upload_quality.calls": (calls("behaviors.upload_quality"), "count"),
        "scenarios.observe.calls": (calls("scenarios.observe"), "count"),
        "scenarios.observe.share": (share("scenarios.observe"), "ratio"),
        decay + ".calls": (calls(decay), "count"),
        decay + ".exp_calls": (counts.get(decay + ".exp_calls", 0), "count"),
        decay + ".zero_rate_frac": (frac(decay + ".zero_rate", decay), "ratio"),
        "trust_core.direct_trust.calls": (calls("trust_core.direct_trust"), "count"),
        "behaviors.recommendation_value.calls":
            (calls("behaviors.recommendation_value"), "count"),
        "scenarios.build_world.s": (self_s("scenarios.build_world"), "s"),
        "scenarios.config_digest.s": (self_s("scenarios.config_digest"), "s"),
        "metrics.emit_csv.s": (self_s("metrics.emit_csv"), "s"),
        "metrics.emit_csv.bytes": (counts.get("metrics.emit_csv.bytes", 0), "bytes"),
        "trace.overhead": (median([scaled(r, r["run_s"]) for r in traced])
                           / median([scaled(r, r["run_s"]) for r in untraced]), "ratio"),
        "host.loop_ns": (median([r["loop_ns"] for r in traced + untraced]), "ns"),
    }
    print("  share of traced run_s (self, total):")
    for name in sorted(traced[0]["self_s"]):
        self_share = median([r["self_s"][name] / r["run_s"] for r in traced])
        print(f"    {name}: {self_share:.1%}, {share(name):.1%}")
    return values


def benchmark(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + seconds
    hard_stop = start + DEADLINE_S
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--warmup"],
                   cwd=ROOT, env=child_env(), check=True, timeout=60)
    runs = []  # (traced, result or None)
    kinds = [True, False] if trace else [False]
    min_runs = 4 if trace else 3
    while len(runs) < min_runs or time.monotonic() < deadline:
        remaining = hard_stop - time.monotonic()
        if remaining <= 0:
            break
        traced = kinds[len(runs) % len(kinds)]
        try:
            result = run_child(workload, seed, traced, remaining)
        except ChildFailed as exc:
            print(f"run {len(runs)} failed: {exc}", file=sys.stderr)
            result = None
        runs.append((traced, result))

    ok = [(t, r) for t, r in runs if r is not None]
    if not ok:
        return None
    common = Counter(digest_key(r) for _, r in ok).most_common(1)[0][0]
    failed = 0
    for i, (_, result) in enumerate(runs):
        reasons = []
        if result is None:
            reasons.append("no result")
        else:
            reasons += result["failures"]
            if digest_key(result) != common:
                reasons.append("output digest differs from the other runs")
        if reasons:
            failed += 1
            print(f"run {i} counted as failed: {'; '.join(reasons)}", file=sys.stderr)
    correct = failed == 0

    good = [(t, r) for t, r in ok if not r["failures"] and digest_key(r) == common]
    untraced = [r for t, r in good if not t]
    traced = [r for t, r in good if t]
    if not untraced or (trace and not traced):
        return None

    print(f"workload {workload} seed {seed}: {len(runs)} runs, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    recorded = recorded_digest(workload, seed)
    status = ("no recorded digest for this seed" if recorded is None
              else "matches digests.json" if recorded == common
              else "DIFFERS from digests.json")
    print(f"  output sha-256: trajectories {common[0]} summary {common[1]} ({status})")

    run_s = [scaled(r, r["run_s"]) for r in untraced]
    setup_s = [scaled(r, r["setup_s"]) for r in untraced + traced]
    rate = [r["deliveries"] / s for r, s in zip(untraced, run_s)]
    rss = [r["peak_rss_mb"] for r in untraced]
    for name, values in (("run_s", run_s), ("deliveries_per_s", rate),
                         ("setup_s", setup_s), ("peak_rss_mb", rss)):
        describe(name, values, END_TO_END_UNITS[name])
    describe("unscaled run_s", [r["run_s"] for r in untraced], "s")
    describe("unscaled setup_s", [r["setup_s"] for r in untraced + traced], "s")
    describe("loop time per iteration", [r["loop_ns"] for r in untraced + traced], "ns")

    if not trace:
        values = {"run_s": median(run_s), "deliveries_per_s": median(rate),
                  "setup_s": median(setup_s), "peak_rss_mb": median(rss)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        describe("traced run_s", [scaled(r, r["run_s"]) for r in traced], "s")
        for name in traced[0]["missing"]:
            print(f"  trace: {name} not found; its counters read 0", file=sys.stderr)
        if any(r["counts"] != traced[0]["counts"] for r in traced):
            print("traced work counters differ between runs", file=sys.stderr)
            correct = False
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer_metrics(traced, untraced).items()}
    return {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def record_digests(n_seeds):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(1, n_seeds + 1):
            result = run_child(workload, seed, False, DEADLINE_S)
            if result["failures"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failures']}")
            table[workload][str(seed)] = result["digests"]
            print(workload, seed, result["digests"]["trajectories"][:16])
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, metavar="N")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pollushield", "__init__.py")):
        print(f"no pollushield sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    if args.record_digests:
        record_digests(args.record_digests)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = benchmark(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        print("no successful run; no result", file=sys.stderr)
        return 1
    print(json.dumps({"env": environment()}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
