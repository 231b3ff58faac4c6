"""One measured run of a benchmark workload, in a fresh process.

Usage (normally started by run.py, with `src` on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_DIR
    python3 perfbench/worker.py --warmup

The run drives the public API only: build_experiment -> run_scenario ->
emit_csv. It prints one JSON object on its last stdout line with the wall
times, the host-speed samples, the output digests, the failed correctness
checks and, when TRACE is 1, the per-layer counters and span times.

Only `sys` and `time` are imported before set-up is timed, so `setup_s`
includes the cost of importing the package's own stdlib dependencies.
"""

import sys
import time

# Host speed on a shared virtual machine drifts by tens of percent within
# seconds. A fixed loop slows with it, so each child times the loop before
# set-up, every PROBE_EVERY_S during the run and after it, and run.py scales
# every time by REF_LOOP_NS / (mean ns per loop iteration): the times it
# reports are seconds on a host where one iteration takes REF_LOOP_NS.
REF_LOOP_NS = 250.0
PROBE_ITERATIONS = 1500
PROBE_EVERY_S = 0.05


def loop_ns():
    """Nanoseconds per iteration of a fixed loop of dict, tuple and float work."""
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        a, b = table.get(key, (0.0, 0.0))
        pair = (a * 0.99 + 1.0, b + 1.0 / (1 + (i & 7)))
        table[key] = pair
        acc += pair[0] / (pair[0] + 1.0)
    return (time.perf_counter() - t0) * 1e9 / PROBE_ITERATIONS


class HostSpeed:
    """Loop timings taken on demand and, while started, from a SIGALRM
    timer, which interrupts the run between bytecodes."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # time inside probes, taken out of measured spans

    def probe(self, *_signal_args):
        t0 = time.perf_counter()
        self.samples.append(loop_ns())
        self.spent_s += time.perf_counter() - t0

    def start(self):
        import signal

        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0)


# name -> (experiment id, build_experiment overrides). The dense workload
# runs fewer rounds than build_e4's default of 200: each member receives
# from one other member per round, so co-observer sets are full from round
# 24 on and every later round costs the same; 40 rounds put most of the run
# in that regime.
WORKLOADS = {
    "dense_collusion": ("e4", {"mode": "rotating", "group_size": 24, "rounds": 40}),
    "sparse_mesh": ("e6", {"policy": "proposed"}),
    "newcomer_reads": ("e5", {}),
}


class Tracer:
    """Counters and span times gathered by wrapping module attributes.

    A timed span's total time is its duration; its self time is that minus
    the durations of the timed spans it called. Count-only wrappers keep no
    clock, so calls that take nanoseconds are not swamped by timer cost;
    their time lands in the enclosing span's self time.
    """

    def __init__(self):
        self.counts = {}
        self.self_s = {}
        self.total_s = {}
        self.round_ms = []
        self._stack = []
        self._active = {}

    def _add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def timed(self, name, fn, before=None, after=None):
        perf_counter = time.perf_counter
        stack = self._stack
        active = self._active
        self.self_s[name] = 0.0
        self.total_s[name] = 0.0

        def wrapper(*args, **kwargs):
            self._add(name + ".calls")
            if before is not None:
                before(args)
            active[name] = active.get(name, 0) + 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                self.self_s[name] += dt - inner
                self.total_s[name] += dt
                if stack:
                    stack[-1] += dt
                active[name] -= 1
            if after is not None:
                after(result, dt)
            return result

        return wrapper

    def counted(self, name, fn, before=None, after=None):
        active = self._active

        def wrapper(*args, **kwargs):
            self._add(name + ".calls")
            if before is not None:
                before(args)
            active[name] = active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def is_active(self, name):
        return self._active.get(name, 0) > 0

    def install(self):
        """Wrap the entry points where their callers look them up."""
        import math
        import types

        from pollushield import scenarios, sim_engine, trust_core

        qi = "sim_engine.query_indirect"

        def qi_before(args):
            world, _observer, subject = args[:3]
            self._add(qi + ".scanned", len(world.observers_of.get(subject, ())))

        def qi_after(result, _dt):
            if result is None:
                self._add(qi + ".none")

        def rec_before(_args):
            if self.is_active(qi):
                self._add(qi + ".used")

        def admission_after(p):
            if p <= 0.0:
                self._add("sim_engine.admission.refuse")
            elif p < 1.0:
                self._add("sim_engine.admission.probe")

        def decay_before(args):
            params = args[2]
            if params.forgetting == 0.0 and params.forgiving == 0.0:
                self._add("trust_core.apply_decay.zero_rate")

        def exp(x):
            if self.is_active("trust_core.apply_decay"):
                self._add("trust_core.apply_decay.exp_calls")
            return math.exp(x)

        targets = [
            (sim_engine, "query_indirect",
             lambda f: self.timed(qi, f, qi_before, qi_after)),
            (sim_engine, "evaluate_trust",
             lambda f: self.timed("sim_engine.evaluate_trust", f)),
            (scenarios, "run_round",
             lambda f: self.timed("sim_engine.run_round", f,
                                  after=lambda _r, dt: self.round_ms.append(dt * 1e3))),
            (scenarios, "evaluate_components",
             lambda f: self.timed("scenarios.observe", f)),
            (scenarios, "build_world",
             lambda f: self.timed("scenarios.build_world", f)),
            (scenarios, "config_digest",
             lambda f: self.timed("scenarios.config_digest", f)),
            (sim_engine.World, "admission_probability",
             lambda f: self.counted("sim_engine.admission", f, after=admission_after)),
            (sim_engine, "upload_quality",
             lambda f: self.counted("behaviors.upload_quality", f)),
            (sim_engine, "recommendation_value",
             lambda f: self.counted("behaviors.recommendation_value", f, rec_before)),
            (sim_engine, "apply_decay",
             lambda f: self.counted("trust_core.apply_decay", f, decay_before)),
            (sim_engine, "direct_trust",
             lambda f: self.counted("trust_core.direct_trust", f)),
        ]
        missing = []
        for owner, attr, wrap in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, wrap(fn))
        math_view = types.SimpleNamespace(**vars(math))
        math_view.exp = exp
        trust_core.math = math_view
        return missing


def check_report(cfg, report, paths):
    """Correctness checks on one run; returns the failures as strings."""
    failures = []
    rounds = list(range(1, cfg.rounds + 1))
    if set(report.trajectories) != set(cfg.observed_pairs):
        failures.append("trajectory pairs differ from the observed pairs")
    for pair, rows in report.trajectories.items():
        if [row[0] for row in rows] != rounds:
            failures.append(f"pair {pair}: not one row per round")
        for row in rows:
            if not all(0.0 <= v <= 1.0 for v in row[1:]):
                failures.append(f"pair {pair} round {row[0]}: value outside [0, 1]")
                break
    for row in report.summary:
        if not row.goodput >= 0.0:
            failures.append(f"peer {row.peer}: negative goodput")
    with open(paths[0], "rb") as fh:
        lines = fh.read().count(b"\n")
    if lines != 1 + len(rounds) * len(cfg.observed_pairs):
        failures.append(f"trajectory CSV has {lines} lines")
    return failures


def main(argv):
    if argv == ["--warmup"]:
        import pollushield  # noqa: F401  (compiles the package's bytecode cache)
        return 0
    workload, seed, trace, out_dir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    exp_id, overrides = WORKLOADS[workload]
    speed = HostSpeed()
    for _ in range(8):
        speed.probe()

    t0 = time.perf_counter()
    from pollushield import build_experiment, emit_csv, run_scenario

    cfg = build_experiment(exp_id, seed=seed, **overrides)
    cfg.validate()
    setup_s = time.perf_counter() - t0

    import hashlib
    import json
    import os
    import resource

    tracer = Tracer() if trace else None
    missing = tracer.install() if trace else []

    spent_before = speed.spent_s
    speed.start()
    t0 = time.perf_counter()
    report = run_scenario(cfg)
    t1 = time.perf_counter()
    paths = emit_csv(report, out_dir)
    t2 = time.perf_counter()
    speed.stop()
    run_s = t2 - t0 - (speed.spent_s - spent_before)
    for _ in range(8):
        speed.probe()

    failures = check_report(cfg, report, paths)
    deliveries = sum(row.requests_received for row in report.summary)
    digests = {}
    for kind, path in (("trajectories", paths[0]), ("summary", paths[1])):
        with open(path, "rb") as fh:
            digests[kind] = hashlib.sha256(fh.read()).hexdigest()
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "loop_ns": sum(speed.samples) / len(speed.samples),
        "deliveries": deliveries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "failures": failures,
    }
    if tracer is not None:
        counts = dict(tracer.counts)
        counts["metrics.emit_csv.bytes"] = sum(os.path.getsize(p) for p in paths)
        if counts.get("behaviors.upload_quality.calls", 0) != deliveries:
            failures.append("requests_received does not sum to upload_quality calls")
        self_s = dict(tracer.self_s, **{"metrics.emit_csv": t2 - t1})
        total_s = dict(tracer.total_s, **{"metrics.emit_csv": t2 - t1})
        result.update(counts=counts, self_s=self_s, total_s=total_s,
                      round_ms=tracer.round_ms, missing=missing)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
