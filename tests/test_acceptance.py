"""Acceptance suite: one test per exit criterion.

Each test prints a single `ACCEPTANCE <n> [PASS|FAIL]` line so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist. Expected values
were derived by hand or by independent closed-form evaluation before the
engine was built; see the inline oracles.

Criterion 1 samples the full stated domain, where the closed-form floor on
the on-off drop/gain quotient is not a theorem everywhere, and checks it
where it is:
(a) every case with n_clean >= eta * N has ratio > 1 and ratio >= bound, and
    such cases are at least half of the draws;
(b) ratio < bound exactly when n_clean (n_clean + N + eta) < eta N (eta + N),
    cases within 1e-9 relative of that boundary aside;
(c) every case with ratio <= 1 has n_clean (n_clean + N + eta) <
    eta N (eta + 1), and differencing direct_trust confirms drop <= gain.
The counterexamples outside the region are counted and printed.
"""

import math
import random
from pollushield import replace
from functools import partial
from time import perf_counter

import pytest
from scipy.stats import spearmanr
from test_golden import GRID_REPORT_SHA256, report_digest

from pollushield.cli import run_command
from pollushield.metrics import paired_seeds
from pollushield.scenarios import (
    build_experiment, mean_requester_goodput, run_grid, run_scenario,
)
from pollushield.trust_core import (
    CFModel,
    DTModel,
    TrustParams,
    TrustState,
    direct_trust,
    onoff_resistance_margin,
)


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}{suffix}")


def test_criterion_1_onoff_margin_randomized_sweep():
    # ratio / bound = nc (nc + N + eta) / (eta N (eta + N)), so the floor holds
    # exactly where nc (nc + N + eta) >= eta N (eta + N); nc >= eta N is a
    # sufficient condition, under which a resistant rho also gives ratio > 1.
    rng = random.Random("acceptance-criterion-1")
    t0 = perf_counter()
    in_region = 0
    strict_counterexamples = 0
    floor_counterexamples = 0
    near_boundary = 0
    failures = []
    for _ in range(10_000):
        nc = 1000.0 * (1.0 - rng.random())   # (0, 1e3]
        np_ = rng.uniform(0.0, 100.0)        # [0, 1e2]
        eta = 10.0 * (1.0 - rng.random())    # (0, 10]
        eps = 2.0 * (1.0 - rng.random())     # (0, 2]
        n = rng.randint(1, 50)
        params = TrustParams(
            dt_model=DTModel.PDTM, rho=math.log1p(1.0 / eta) + eps, eta=eta
        )
        margin = onoff_resistance_margin(TrustState(nc, np_, nc + np_, 0.0), n, params)
        case = (
            f"n_clean={nc!r}, n_polluted={np_!r}, eta={eta!r}, eps={eps!r}, N={n}: "
            f"ratio={margin.ratio!r}, bound={margin.bound!r}"
        )
        strict = not margin.ratio > 1.0 - 1e-12
        below_floor = not margin.ratio >= margin.bound - 1e-12
        # (a) inside the validity region the theorem has no exception
        if nc >= eta * n:
            in_region += 1
            if strict or below_floor:
                failures.append(f"(a) in-region violation at {case}")
        else:
            strict_counterexamples += strict
            floor_counterexamples += below_floor
        # (b) the ratio falls below the floor exactly where the algebra says
        clean_side = nc * (nc + n + eta)
        floor_side = eta * n * (eta + n)
        if abs(clean_side - floor_side) <= 1e-9 * floor_side:
            near_boundary += 1
        elif below_floor != (clean_side < floor_side):
            failures.append(
                f"(b) below_floor={below_floor} but nc(nc+N+eta) < eta*N*(eta+N) is "
                f"{clean_side < floor_side} at {case}"
            )
        # (c) drop <= gain needs very thin clean evidence, and differencing the
        # trust model itself agrees; exp(-rho * n_polluted) is common to drop
        # and gain, so taking n_polluted = 0 keeps both clear of underflow
        if margin.ratio <= 1.0:
            if not clean_side < eta * n * (eta + 1.0):
                failures.append(f"(c) drop <= gain with nc(nc+N+eta) >= eta*N*(eta+1) at {case}")
            here = direct_trust(nc, 0.0, params)
            drop = here - direct_trust(nc, float(n), params)
            gain = direct_trust(nc + n, 0.0, params) - here
            if not drop <= gain * (1.0 + 1e-9):
                failures.append(f"(c) direct_trust gives drop={drop!r} > gain={gain!r} at {case}")
    elapsed = perf_counter() - t0
    populated = 2 * in_region >= 10_000
    ok = not failures and populated and elapsed < 5.0
    report(
        1,
        "drop/gain quotient exceeds 1 and its closed-form floor on 10k random cases",
        ok,
        f"in_region={in_region}, outside the region: "
        f"strict_counterexamples={strict_counterexamples}, "
        f"floor_counterexamples={floor_counterexamples}; "
        f"near_boundary={near_boundary}, elapsed={elapsed:.2f}s",
    )
    assert elapsed < 5.0
    assert populated, f"only {in_region} of 10000 cases have n_clean >= eta*N"
    assert not failures, f"{len(failures)} failures, first: " + "; ".join(failures[:3])


@pytest.fixture(scope="module")
def e2_report():
    return run_scenario(build_experiment("e2", seed=1))


def test_criterion_2_exponential_model_breaks_onoff(e2_report):
    t0 = perf_counter()
    direct = [row[1] for row in e2_report.trajectories[(0, 2)]]  # victim 0 vs 50% on-off
    value_at_10 = direct[9]
    ok = value_at_10 < 0.1
    elapsed = perf_counter() - t0
    report(2, "50% on-off trust under the exponential model < 0.1 by interaction 10",
           ok, f"trust(10)={value_at_10:.6f}, elapsed={elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def with_observer_1(cfg, **params):
    """cfg with its one parameter override, observer 1's, changed by `params`."""
    (pid, own), = cfg.param_overrides
    assert pid == 1
    return replace(cfg, param_overrides=((1, replace(own, **params)),))


def test_criterion_3_ratio_model_tolerates_onoff(e2_report):
    """DTMA, and also DTMB: observer 1 under DTMB must follow
    (clean + 1) / (chunks + 2) at every interaction, where an on-off
    uploader of cycle L has sent one polluted chunk per L, clean first."""
    t0 = perf_counter()
    dtma_20 = [row[1] for row in e2_report.trajectories[(1, 3)]]
    dtma_50 = [row[1] for row in e2_report.trajectories[(1, 2)]]
    ok_20 = all(v >= 0.8 - 1e-9 for v in dtma_20)
    ok_50 = all(v >= 0.5 - 1e-9 for v in dtma_50)
    dtmb = run_scenario(with_observer_1(build_experiment("e2", seed=1), dt_model=DTModel.DTMB))
    dtmb_ok, dtmb_detail = True, []
    for attacker, cycle in ((2, 2), (3, 5), (4, 10)):  # 50%, 20% and 10% on-off
        got = [row[1] for row in dtmb.trajectories[(1, attacker)]]
        closed = [(n - n // cycle + 1) / (n + 2) for n in range(1, len(got) + 1)]
        dtmb_ok = dtmb_ok and all(abs(a - b) < 1e-9 for a, b in zip(got, closed))
        dtmb_detail.append(f"{100 // cycle}%:min={min(got):.4f},final={got[-1]:.4f}")
    elapsed = perf_counter() - t0
    report(3, "ratio model stays above 0.8 at 20% on-off and 0.5 at 50% on-off; "
           "DTMB follows (c+1)/(m+2)",
           ok_20 and ok_50 and dtmb_ok,
           f"min@20%={min(dtma_20):.6f}, min@50%={min(dtma_50):.6f}, "
           f"DTMB {' '.join(dtmb_detail)}, elapsed={elapsed:.2f}s")
    assert ok_20 and ok_50
    assert dtmb_ok, "DTMB trajectory disagrees with its closed form"
    assert elapsed < 1.0


def first_round_at(trajectory, level):
    return next((i + 1 for i, v in enumerate(trajectory) if v >= level - 1e-9), None)


def test_criterion_4_dynamic_confidence_converges_under_slander():
    t0 = perf_counter()
    # independent oracle: 8 of 10 equal-credibility recommenders report 0,
    # two report the true value 1, so the recommendation aggregate is 0.2 and
    # the combined trust after n clean interactions is (n + 0.2) / (n + 1)
    # under CFDA, and 1 - 0.8 * 0.5^n under CFDB (weight 1 - 0.5^n)
    oracle = [(n + 0.2) / (n + 1.0) for n in range(1, 51)]
    cfdb_oracle = [1.0 - 0.8 * 0.5 ** n for n in range(1, 51)]
    cfg = build_experiment("e1", seed=1)
    rep = run_scenario(cfg)
    cfdb = [row[4] for row in
            run_scenario(with_observer_1(cfg, cf_model=CFModel.CFDB)).trajectories[(1, 2)]]
    dynamic = [row[4] for row in rep.trajectories[(0, 2)]]
    constant = [row[4] for row in rep.trajectories[(1, 2)]]
    matches_oracle = all(abs(a - b) < 1e-9 for a, b in zip(dynamic, oracle))
    cfdb_matches = all(abs(a - b) < 1e-9 for a, b in zip(cfdb, cfdb_oracle))
    cross_cfda, cross_cfdb = first_round_at(dynamic, 0.9), first_round_at(cfdb, 0.9)
    cfdb_first = cross_cfdb is not None and cross_cfda is not None and cross_cfdb < cross_cfda
    deviations = [abs(v - 1.0) for v in dynamic]
    non_increasing = all(
        deviations[i + 1] <= deviations[i] + 1e-12 for i in range(len(deviations) - 1)
    )
    final_close = deviations[-1] <= 0.02
    constant_far = abs(constant[-1] - 1.0) >= 0.3
    ok = (matches_oracle and non_increasing and final_close and constant_far
          and cfdb_matches and cfdb_first)
    elapsed = perf_counter() - t0
    report(4, "dynamic weighting converges to truth under 80% slander; fixed 0.5 does not",
           ok,
           f"|T(50)-1|={deviations[-1]:.6f}, fixed-weight deviation={abs(constant[-1]-1):.3f}, "
           f"T>=0.9 from round {cross_cfda} (CFDA) and {cross_cfdb} (CFDB), "
           f"elapsed={elapsed:.2f}s")
    assert matches_oracle, "simulated trajectory disagrees with the closed-form oracle"
    assert cfdb_matches, "CFDB trajectory disagrees with 1 - 0.8 * 0.5^n"
    assert cfdb_first, (cross_cfda, cross_cfdb)
    assert non_increasing
    assert final_close
    assert constant_far
    assert elapsed < 1.0


LOSS_GRID = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)
SEEDS = (1, 2, 3, 4, 5)


def policy_gaps(exp, axis, values, policies):
    """Per value of `axis`, the first policy's mean requester goodput over
    SEEDS (summed in seed order) minus the second's, and the two policies'
    per-seed comparison (`paired_seeds`: seeds won, sign-test p); also the
    grid points whose report drifted from its pinned digest."""
    grid = {axis: values, "policy": policies, "seed": SEEDS}
    goodput, drifted = {}, []
    for point, run in run_grid(partial(build_experiment, exp), grid):
        key = tuple(point.values())
        rep = run.report()
        if report_digest(rep) != GRID_REPORT_SHA256[(exp, *key)]:
            drifted.append(key)
        goodput[key] = mean_requester_goodput(run.cfg, rep)
    gaps, wins = {}, {}
    for value in values:
        first, second = ([goodput[value, policy, seed] for seed in SEEDS] for policy in policies)
        gaps[value] = sum(first) / len(first) - sum(second) / len(second)
        wins[value] = paired_seeds(first, second)
    return gaps, wins, drifted


def gap_detail(gaps, wins, policies):
    return f"gaps (seeds won, {'-'.join(policies)}; sign-test p)=" + ", ".join(
        f"{v:.0%}:{gap:+.4f} ({wins[v].wins}-{wins[v].losses}, p={wins[v].p_value:.4g})"
        for v, gap in gaps.items())


def test_criterion_5_double_thresholds_beat_single_under_loss():
    t0 = perf_counter()
    policies = ("proposed", "single")
    gaps, wins, drifted = policy_gaps("e3", "loss_rate", LOSS_GRID, policies)
    elapsed = perf_counter() - t0
    dominant = all(gaps[loss] >= -1e-12 for loss in LOSS_GRID)
    widening = gaps[0.10] > gaps[0.0]
    ok = dominant and widening and not drifted and elapsed < 60.0
    report(5, "double thresholds never lose to single 0.8 and the gap grows with loss",
           ok, gap_detail(gaps, wins, policies) + f", elapsed={elapsed:.1f}s")
    assert not drifted, f"runs drifted from GRID_REPORT_SHA256: {drifted}"
    assert dominant, f"single threshold won somewhere: {gaps}"
    assert widening, f"gap at 10% loss ({gaps[0.10]:.4f}) must exceed gap at 0% ({gaps[0.0]:.4f})"
    assert elapsed < 60.0


def test_criterion_6_collaboration_group_size_and_accomplice_detection():
    t0 = perf_counter()
    rep10 = run_scenario(build_experiment("e4", seed=1, mode="rotating", group_size=10))
    rep5 = run_scenario(build_experiment("e4", seed=1, mode="rotating", group_size=5))
    static = run_scenario(build_experiment("e4", seed=1, mode="static", group_size=10))
    g10 = [row[4] for row in rep10.trajectories[(0, 1)]]
    g5 = [row[4] for row in rep5.trajectories[(0, 1)]]
    pointwise = all(a >= b - 1e-9 for a, b in zip(g10[10:], g5[10:]))
    cross10 = next((i + 1 for i, v in enumerate(g10) if v < 0.5 - 1e-9), None)
    cross5 = next((i + 1 for i, v in enumerate(g5) if v < 0.5 - 1e-9), None)
    both_cross = cross10 is not None and cross5 is not None
    static_rows = {s.peer: s for s in static.summary}
    polluter_detected = static_rows[1].detection_round is not None
    accomplice = [row[4] for row in static.trajectories[(0, 2)]]
    accomplice_rising = all(
        accomplice[i + 1] >= accomplice[i] - 1e-12 for i in range(len(accomplice) - 1)
    )
    elapsed = perf_counter() - t0
    ok = pointwise and both_cross and polluter_detected and accomplice_rising
    report(6, "bigger rotating groups decay slower; static polluter caught, accomplices rise",
           ok,
           f"cross@10={cross10}, cross@5={cross5}, "
           f"polluter_detected_round={static_rows[1].detection_round}, elapsed={elapsed:.1f}s")
    assert pointwise
    assert both_cross and cross10 <= 200 and cross5 <= 200
    assert polluter_detected
    assert accomplice_rising
    assert elapsed < 5.0


def test_criterion_7_requests_follow_trust():
    t0 = perf_counter()
    cfg = build_experiment("e5", seed=1)
    rep = run_scenario(cfg)
    providers = list(range(100))
    newcomer = 130
    final_trust = [rep.trajectories[(newcomer, p)][-1][4] for p in providers]
    rows = {s.peer: s for s in rep.summary}
    requests = [rows[p].requests_received for p in providers]
    rho, _ = spearmanr(final_trust, requests)
    sorted_requests = sorted(requests)
    median = (sorted_requests[49] + sorted_requests[50]) / 2.0
    low_trust = [p for p in providers if final_trust[p] < 0.5]
    low_starved = all(rows[p].requests_received < median for p in low_trust)
    elapsed = perf_counter() - t0
    ok = rho > 0.5 and low_starved and len(low_trust) > 0
    report(7, "request volume tracks trust as seen by a newcomer",
           ok,
           f"spearman={rho:.3f}, low-trust peers={len(low_trust)}, "
           f"median requests={median:.1f}, elapsed={elapsed:.1f}s")
    assert rho > 0.5
    assert low_trust, "expected some peers below 0.5 trust"
    assert low_starved
    assert elapsed < 10.0


FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
EQUALITY_BAND = 0.005  # two stochastic systems can only tie up to sampling noise


def test_criterion_8_proposed_system_beats_fixed_weight_baseline():
    t0 = perf_counter()
    policies = ("proposed", "peertrust")
    gaps, wins, drifted = policy_gaps("e6", "malicious_fraction", FRACTIONS, policies)
    elapsed = perf_counter() - t0
    at_zero_ok = gaps[0.0] >= -EQUALITY_BAND
    strictly_ahead = all(gaps[f] > 0.0 for f in FRACTIONS[1:])
    ordered = sorted(gaps)
    non_decreasing = all(
        gaps[b] >= gaps[a] - 1e-12 or (a == 0.0 and gaps[b] >= gaps[a] - EQUALITY_BAND)
        for a, b in zip(ordered, ordered[1:])
    )
    ok = at_zero_ok and strictly_ahead and non_decreasing and not drifted and elapsed < 60.0
    report(8, "proposed pipeline dominates the fixed-weight baseline, gap widening",
           ok, gap_detail(gaps, wins, policies) + f", elapsed={elapsed:.1f}s")
    assert not drifted, f"runs drifted from GRID_REPORT_SHA256: {drifted}"
    assert at_zero_ok, f"baseline clearly ahead with no attackers: gap={gaps[0.0]:.4f}"
    assert strictly_ahead, f"baseline won at a positive fraction: {gaps}"
    assert non_decreasing, f"advantage must grow with the malicious fraction: {gaps}"
    assert elapsed < 60.0


def test_criterion_9_byte_identical_reruns(tmp_path):
    t0 = perf_counter()
    identical = True
    for exp in ("e1", "e2", "e3", "e4", "e5", "e6"):
        dirs = (tmp_path / f"{exp}_a", tmp_path / f"{exp}_b")
        for out in dirs:
            assert run_command(
                ["run", "--experiment", exp, "--seed", "7", "--out", str(out)]
            ) == 0
        for suffix in ("trajectories.csv", "summary.csv", "meta.json"):
            a = (dirs[0] / f"{exp}_{suffix}").read_bytes()
            b = (dirs[1] / f"{exp}_{suffix}").read_bytes()
            identical = identical and a == b
    elapsed = perf_counter() - t0
    report(9, "every experiment replays to byte-identical CSV output",
           identical, f"elapsed={elapsed:.1f}s")
    assert identical
