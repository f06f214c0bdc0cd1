"""Acceptance gate: one test per criterion, one verdict line each.

Heavy runs (100-trial presets, calibrations) are cached per module so each
preset's trials execute once no matter how many criteria consume them.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from posverify.adversary import FakingSearchConfig, Region
from posverify.calibration import genuine_acceptance_prob, malicious_approval_bound, threshold
from posverify.channel import (
    TRUTHFUL_ACCEPT_PROB,
    SignalParams,
    deception_probability,
    ideal_received_power,
    simulate_approval_rate,
)
from posverify.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    NoiseMode,
    PRESETS,
    deploy,
    emit_report,
    resolve_theta_table,
    run_experiment,
)
from posverify.protocol import (
    AccusationMatrix,
    Node,
    NodeKind,
    accuse_approve,
    count_approvals,
    filter_fixpoint,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


@lru_cache(maxsize=None)
def hundred_trials(name: str):
    return run_experiment(replace(PRESETS[name], trials=100), workers=2)


def test_criterion_01_truthful_claims_pass():
    rng = np.random.default_rng(101)
    worst_analytic = 0.0
    worst_gap = 0.0
    for _ in range(20):
        d = float(10 ** rng.uniform(0.0, 2.15))
        base = SignalParams(transmit_power=1.0, wavelength=0.125)
        # sigma at most a third of the ideal power so a truthful reading
        # stays positive at the 3-sigma edge
        sigma = float(rng.uniform(0.1, 1.0)) * ideal_received_power(base, d) / 3.0
        params = replace(base, noise_sigma=sigma)
        analytic = deception_probability(params, d, d)
        worst_analytic = max(worst_analytic, abs(analytic - 0.9973))
        empirical = simulate_approval_rate(params, d, d, 1_000_000, rng)
        worst_gap = max(worst_gap, abs(empirical - analytic))
    verdict(
        1,
        worst_analytic <= 1e-4 and worst_gap <= 1e-3,
        f"max |analytic-0.9973|={worst_analytic:.2e}, max |mc-analytic|={worst_gap:.2e}",
    )


def test_criterion_02_analytic_matches_monte_carlo():
    rng = np.random.default_rng(202)
    params_base = SignalParams(transmit_power=1.0, wavelength=0.125)
    worst = 0.0
    for _ in range(50):
        true_d = float(10 ** rng.uniform(0.0, 2.15))
        claimed_d = float(10 ** rng.uniform(0.0, 2.15))
        sigma = float(10 ** rng.uniform(-9.0, -5.0))
        params = replace(params_base, noise_sigma=sigma)
        analytic = deception_probability(params, true_d, claimed_d)
        empirical = simulate_approval_rate(params, true_d, claimed_d, 100_000, rng)
        worst = max(worst, abs(analytic - empirical))
    verdict(2, worst <= 0.01, f"max |analytic-mc|={worst:.4f} over 50 triples")


def test_criterion_03_near_noiseless_calibration(neg_table):
    p = TRUTHFUL_ACCEPT_PROB
    lo, hi = 1.95 * p, 2.05 * p
    in_band = all(lo <= s <= hi for s in neg_table.samples)
    verdict(
        3,
        neg_table.theta_star == 2 and in_band,
        f"theta_star={neg_table.theta_star}, samples in [{min(neg_table.samples):.4f},"
        f" {max(neg_table.samples):.4f}] vs band [{lo:.4f}, {hi:.4f}]",
    )


def test_criterion_04_majority_boundary():
    rates = [
        hundred_trials(name).success_rate
        for name in ("neg-noise-52", "neg-noise-51", "neg-noise-101-52", "neg-noise-101-51")
    ]
    verdict(
        4,
        rates == [1.0, 0.0, 1.0, 0.0],
        "success rates n=100 n0=52/51 then n=101 n0=52/51: "
        + "/".join(f"{r:.2f}" for r in rates),
    )


def test_criterion_05_first_round_trace():
    report = run_experiment(PRESETS["neg-noise-52"])
    res = report.per_trial[0].result
    first, second = res.rounds[0], res.rounds[1]
    ok = (
        first.threshold == 51.0
        and first.removed_ids == tuple(range(52, 100))
        and set(first.removed_approvals) == {50}
        and second.threshold == 27.0
        and second.removed_ids == ()
        and len(res.rounds) == 2
        and report.per_trial[0].genuine_retained == 52
    )
    verdict(
        5,
        ok,
        f"round-1 bar {first.threshold}, removed {len(first.removed_ids)} nodes at "
        f"{set(first.removed_approvals)} approvals; round-2 bar {second.threshold} "
        f"removed {len(second.removed_ids)}",
    )


def test_criterion_06_noisy_regime(neg_table, sig_table):
    wider = sig_table.theta_star > neg_table.theta_star
    report = hundred_trials("sig-noise-62")
    cfg = report.config
    assert cfg.n0 >= math.ceil((cfg.n + report.theta_star) / 2)

    lost_some_first_round = 0
    malicious_gone_by_third = 0
    ends_quiet = 0
    for rec in report.per_trial:
        rounds = rec.result.rounds
        if any(i < cfg.n0 for i in rounds[0].removed_ids):
            lost_some_first_round += 1
        early = {i for r in rounds[:3] for i in r.removed_ids if i >= cfg.n0}
        if len(early) == cfg.n1:
            malicious_gone_by_third += 1
        if rounds[-1].removed_ids == ():
            ends_quiet += 1
    ok = (
        wider
        and report.success_rate >= 0.95
        and lost_some_first_round > 0
        and malicious_gone_by_third == cfg.trials
        and ends_quiet == cfg.trials
    )
    verdict(
        6,
        ok,
        f"theta_star noisy {sig_table.theta_star} vs near-noiseless {neg_table.theta_star}; "
        f"success {report.success_rate:.2f}; genuine lost in round 1 in "
        f"{lost_some_first_round}/100 trials; malicious cleared by round 3 in "
        f"{malicious_gone_by_third}/100",
    )


def test_criterion_07_quantile_schedule(tmp_path):
    report = hundred_trials("sig-noise-q-60")
    n0 = report.config.n0
    clean = sum(
        1
        for rec in report.per_trial
        if rec.malicious_removed == report.config.n1 and rec.genuine_retained == n0
    )
    path = tmp_path / "steps.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().strip().splitlines()
    structure = lines[0] == ",".join(CSV_COLUMNS) and all(
        len(line.split(",")) == len(CSV_COLUMNS) for line in lines[1:]
    )
    verdict(
        7,
        clean >= 90 and structure,
        f"all-malicious-removed with zero genuine lost in {clean}/100 trials; "
        f"CSV rows of {len(CSV_COLUMNS)} columns: {structure}",
    )


def _genuine_acceptance_frequency(n: int, n0: int, theta: int, trials: int, seed: int) -> float:
    # honest-only population: every other node measures node 0's truthful
    # claim, so its approval count is 1 + the number of in-band readings.
    # The bar still uses the full n as if the adversary held the remainder.
    region = Region(0.0, 100.0, 0.0, 100.0)
    base = SignalParams(transmit_power=1.0, wavelength=0.125)
    sigma = ideal_received_power(base, region.diagonal) / 3.0
    params = replace(base, noise_sigma=sigma)
    rng = np.random.default_rng(seed)
    bar = threshold(n, float(theta))
    hits = 0
    for t in range(trials):
        positions = region.sample(rng, n0)
        nodes = [
            Node(i, NodeKind.GENUINE, tuple(p), tuple(p))
            for i, p in enumerate(positions.tolist())
        ]
        matrix = accuse_approve(nodes, params, int(rng.integers(2**32)))
        approvals = count_approvals(matrix, set(range(n0)))[0]
        if approvals >= bar:
            hits += 1
    return hits / trials


def test_criterion_08_analytic_predictors():
    # acceptance-probability predictor against simulation
    settings = ((62, 22), (60, 16), (65, 27))
    gaps = []
    for n0, theta in settings:
        predicted = genuine_acceptance_prob(100, n0, float(theta))
        observed = _genuine_acceptance_frequency(100, n0, theta, trials=200, seed=808 + n0)
        gaps.append(abs(predicted - observed))

    # approval-count bound for a node faking its position, full pipeline
    region = Region(0.0, 100.0, 0.0, 100.0)
    diag = region.diagonal
    cfg = ExperimentConfig(
        n=30,
        n0=15,
        region=region,
        signal=SignalParams(transmit_power=1.0, wavelength=0.125),
        noise_mode=NoiseMode("significant"),
        faking=FakingSearchConfig(exclusion_radius=0.2 * diag, grid_step=diag / 30.0),
        seed=0,
    )
    table = resolve_theta_table(cfg)
    params = cfg.resolved_signal()
    per_trial = []
    for t in range(200):
        nodes = deploy(cfg, seed=9000 + t)
        matrix = accuse_approve(nodes, params, seed=70000 + t)
        counts = count_approvals(matrix, set(range(cfg.n)))
        per_trial.append(np.mean([counts[i] for i in range(cfg.n0, cfg.n)]))
    emp_mean = float(np.mean(per_trial))
    stderr = float(np.std(per_trial, ddof=1)) / math.sqrt(len(per_trial))
    bound = malicious_approval_bound(cfg.n, table.theta_star)

    ok = max(gaps) <= 0.05 and emp_mean <= bound + 2 * stderr
    verdict(
        8,
        ok,
        f"predictor gaps {'/'.join(f'{g:.3f}' for g in gaps)} (tol 0.05); "
        f"mean faker approvals {emp_mean:.2f} vs bound {bound} + 2se={2 * stderr:.2f}",
    )


def _reference_fixpoint(accuses: list[list[bool]], theta: float):
    # deliberately plain re-simulation: dict counting, set removal, loop
    active = set(range(len(accuses)))
    while True:
        bar = (len(active) + theta) / 2
        approvals = {
            j: sum(1 for i in active if not accuses[i][j]) for j in active
        }
        removed = {j for j in active if approvals[j] < bar}
        active -= removed
        if not removed or not active:
            return active


def test_criterion_09_fixpoint_matches_brute_force():
    rng = np.random.default_rng(909)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        grid = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        np.fill_diagonal(grid, False)
        theta = float(rng.uniform(0.0, 4.0))
        res = filter_fixpoint(AccusationMatrix(tuple(range(n)), grid), theta)
        expected = _reference_fixpoint(grid.tolist(), theta)
        if res.final_genuine_set != frozenset(expected) or res.final_filtered_set != frozenset(
            set(range(n)) - expected
        ):
            mismatches += 1
    verdict(9, mismatches == 0, f"{mismatches}/1000 random matrices disagree")


def test_criterion_10_reports_are_reproducible(tmp_path, monkeypatch):
    outputs = {}
    for name in ("neg-noise-52", "sig-noise-q-60"):
        cfg = PRESETS[name]
        blobs = []
        for run, workers in (("a", 1), ("b", 1), ("c", 2)):
            # private cache per run so the table really recomputes each time
            monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / f"{name}-{run}"))
            path = tmp_path / f"{name}-{run}.json"
            emit_report(run_experiment(cfg, workers=workers), "json", path)
            blobs.append(path.read_bytes())
        outputs[name] = blobs[0] == blobs[1] == blobs[2]
    verdict(
        10,
        all(outputs.values()),
        "byte-identical across reruns and worker counts: "
        + ", ".join(f"{k}={v}" for k, v in outputs.items()),
    )
