#!/usr/bin/env python3
"""posverify benchmark: trial and calibration throughput, adversary optimality.

Drives the user commands in-process through ``posverify.cli.main`` from the
checkout's own ``src/``:

    python3 perfbench/run.py --workload neg52-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced pass plus the tracing overhead against an
untraced pass. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout, same import cost every run

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Commands are kept to a few seconds so that a reference kernel can run
# between them: TRIALS per `posverify run`, THETA_SAMPLES per `posverify theta`.
TRIALS = 4
THETA_SAMPLES = (5, 20)  # faker positions x genuine sets: 100 cells
SETUP_CELLS = 25 * 20  # cells in a preset's calibration, paid in set-up
ADV_INSTANCES = 32
MAX_COMMANDS = 200
TRACED_COMMANDS = 5  # 5 x 4 trials leaves 10 samples beyond the trial p50
REFERENCE_NOMINAL_S = 0.2  # reference-kernel time that ops_per_s is scaled to
ENV_CACHE = "POSVERIFY_THETA_CACHE"

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "adv_optimality": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "run" or "theta"
    preset: str  # run: the preset; theta: the preset whose regime matches the theta flags
    n: int  # network size of the command's theta table
    workers: int
    adv_genuine: int  # genuine receivers per adversary instance

    def argv(self, seed: int, workers: int, out: Path) -> list[str]:
        if self.kind == "run":
            return [
                "run", "--preset", self.preset, "--workers", str(workers),
                "--trials", str(TRIALS), "--seed", str(seed), "--report", str(out),
            ]
        return [
            "theta", "--n", str(self.n), "--noise-mode", "significant",
            "--samples", *map(str, THETA_SAMPLES),
            "--workers", str(workers), "--seed", str(seed), "--out", str(out),
        ]

    @property
    def op(self) -> str:
        return "trials" if self.kind == "run" else "cells"

    @property
    def ops_per_command(self) -> int:
        return TRIALS if self.kind == "run" else THETA_SAMPLES[0] * THETA_SAMPLES[1]


# The theta flags leave region, signal and faking at their defaults, which
# equal the presets', so sig-noise-q-55 names the theta workload's regime.
WORKLOADS = {
    "neg52-serial": Workload("run", "neg-noise-52", 100, 1, 52),
    "sigq55-2w": Workload("run", "sig-noise-q-55", 100, 2, 55),
    "theta200-2w": Workload("theta", "sig-noise-q-55", 200, 2, 100),
}


class Ledger:
    """Operations attempted and failed; every failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ops: int, problem: str | None) -> None:
        self.attempted += ops
        if problem is not None:
            self.failed += ops
            self.problems.append(problem)


def load_package():
    """Import posverify from this checkout's src/, or exit 2."""
    if not (SRC / "posverify" / "__init__.py").is_file():
        print(f"error: no posverify sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import posverify.adversary
    import posverify.calibration
    import posverify.channel
    import posverify.cli
    import posverify.experiment
    import posverify.protocol

    if not Path(posverify.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported posverify from {posverify.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return {name: mod for name, mod in sys.modules.items() if name.startswith("posverify")}


def set_up(pv, wl: Workload, seed: int, workers: int, cache: Path) -> float | None:
    """Config resolution and, for run workloads, cold calibration of the
    preset's theta table into ``cache``. Returns the calibration seconds."""
    os.environ[ENV_CACHE] = str(cache)
    pv["posverify.cli"].build_parser().parse_args(wl.argv(seed, workers, cache / "unused"))
    if wl.kind != "run":
        return None
    experiment = pv["posverify.experiment"]
    config = replace(experiment.PRESETS[wl.preset], seed=seed, trials=TRIALS)
    start = time.perf_counter()
    experiment.resolve_theta_table(config, workers=workers)
    return time.perf_counter() - start


def reference_kernel(pv):
    """A fixed mix of small and large scoring batches, shaped like one faker
    search. Timed between commands, it measures how fast the host runs now."""
    import numpy as np

    import oracle

    params = pv["posverify.experiment"].PRESETS["sig-noise-q-55"].resolved_signal()
    rng = np.random.default_rng(0)
    genuine, x0 = rng.uniform(0, 100, (55, 2)), np.array([30.0, 40.0])
    small, big = rng.uniform(0, 100, (8, 2)), rng.uniform(0, 100, (1200, 2))

    def seconds() -> float:
        start = time.perf_counter()
        for _ in range(8):
            for _ in range(100):
                oracle.deceived(params, x0, genuine, small)
            for _ in range(3):
                oracle.deceived(params, x0, genuine, big)
        return time.perf_counter() - start

    return seconds


def timed_commands(
    pv, wl, seed, workers, work: Path, seconds, min_cmds, max_cmds, tracer=None, reference=None
):
    """Run the workload's command until ``seconds`` are used up. Returns the
    wall time and output bytes (None on error) of each command, and the
    reference-kernel times taken before the first command and after each."""
    cli = pv["posverify.cli"]
    times: list[float] = []
    outputs: list[bytes | None] = []
    refs = [reference()] if reference else []
    while True:
        out = work / f"out-{len(times)}"
        argv = wl.argv(seed, workers, out)
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        times.append(time.perf_counter() - start)
        outputs.append(out.read_bytes() if rc == 0 and out.is_file() else None)
        out.unlink(missing_ok=True)
        if reference:
            refs.append(reference())
        n = len(times)
        if n >= max_cmds or (n >= min_cmds and sum(times) + statistics.median(times) > seconds):
            return times, outputs, refs


# ---------------------------------------------------------------------------
# output checks


def table_problem(table: dict, n: int, seed: int) -> str | None:
    """Re-derive theta_star and the deciles from the table's own samples."""
    meta = table["calibration_meta"]
    x0s, sets = meta["num_x0"], meta["num_x_per_x0"]
    samples = table["samples"]
    if table["n"] != n or meta["seed"] != seed or len(samples) != x0s * sets:
        return f"table header n={table['n']} seed={meta['seed']} samples={len(samples)}"
    import numpy as np

    means = [float(np.mean(samples[i * sets : (i + 1) * sets])) for i in range(x0s)]
    if table["theta_star"] != math.ceil(max(means)):
        return f"theta_star {table['theta_star']} != ceil(max mean) {math.ceil(max(means))}"
    pooled = sorted(samples)
    for t in range(1, 10):
        if table["quantiles"][f"{t / 10:.1f}"] != pooled[(t * len(pooled) + 9) // 10 - 1]:
            return f"quantile {t / 10:.1f} does not match the samples"
    return None


def expected_schedule(table: dict, filter_mode: str) -> list[float]:
    if filter_mode == "quantile":
        deciles = [table["quantiles"][f"{t / 10:.1f}"] for t in range(1, 10)]
        return [0.0, *deciles, float(table["theta_star"])]
    return [float(table["theta_star"])]


def report_problem(report: dict, seed: int, table: dict) -> str | None:
    """Check a run report against its theta table and its own trial records."""
    cfg = report["config"]
    n, n0 = cfg["n"], cfg["n0"]
    trials = report["per_trial"]
    if cfg["seed"] != seed or cfg["trials"] != TRIALS or len(trials) != TRIALS:
        return f"report config seed={cfg['seed']} trials={cfg['trials']} records={len(trials)}"
    schedule = expected_schedule(table, cfg["filter_mode"])
    if report["theta"] != {"theta_star": table["theta_star"], "schedule": schedule}:
        return "report theta differs from the calibrated table"
    for rec in trials:
        res = rec["result"]
        kept, gone = set(res["final_genuine_set"]), set(res["final_filtered_set"])
        removed = [i for rnd in res["rounds"] for i in rnd["removed_ids"]]
        if kept & gone or kept | gone != set(range(n)) or sorted(removed) != sorted(gone):
            return f"trial {rec['trial']}: final sets do not partition the nodes"
        for rnd in res["rounds"]:
            bar = (rnd["active_before"] + schedule[rnd["step"]]) / 2.0
            if rnd["threshold"] != bar or any(a >= bar for a in rnd["removed_approvals"]):
                return f"trial {rec['trial']}: pass threshold or removals off the schedule"
        g = sum(1 for i in kept if i < n0)
        m = sum(1 for i in gone if i >= n0)
        if (rec["genuine_retained"], rec["malicious_removed"], rec["success"]) != (
            g, m, m == n - n0 and g >= 1
        ):
            return f"trial {rec['trial']}: outcome does not match its final sets"
    agg = report["aggregate"]
    if agg["success_rate"] != sum(r["success"] for r in trials) / len(trials) or agg[
        "mean_genuine_retained"
    ] != sum(r["genuine_retained"] for r in trials) / len(trials):
        return "aggregate does not match the trial records"
    return None


def load_pins() -> dict:
    """Values from the seed commit at each workload's default seed."""
    return json.loads((HERE / "pins.json").read_text())


def pin_problem(name: str, wl: Workload, seed: int, doc: dict) -> str | None:
    """Compare with the values pinned at the workload's default seed."""
    pins = load_pins()[name]
    if seed != pins["seed"]:
        return None
    if wl.kind == "run":
        got = {
            "theta_star": doc["theta"]["theta_star"],
            "schedule": doc["theta"]["schedule"],
            "success_rate": doc["aggregate"]["success_rate"],
            "mean_genuine_retained": doc["aggregate"]["mean_genuine_retained"],
        }
    else:
        got = {"theta_star": doc["theta_star"], "quantiles": doc["quantiles"]}
    want = {k: v for k, v in pins.items() if k != "seed"}
    return None if got == want else f"pinned values differ at seed {seed}: {got} != {want}"


def check_outputs(name, wl, seed, outputs, cache: Path | None, ledger: Ledger) -> None:
    """One ledger entry per command: its output must parse, pass the checks,
    match the pins at the default seed and equal the first output byte for byte."""
    table = None
    if wl.kind == "run":
        tables = sorted(cache.glob("*.json"))
        if len(tables) != 1:
            ledger.record(1, f"expected one cached theta table, found {len(tables)}")
            return
        table = json.loads(tables[0].read_text())
        ledger.record(1, table_problem(table, wl.n, seed))
    per_cmd = wl.ops_per_command
    for i, data in enumerate(outputs):
        if data is None:
            problem = f"command {i} failed"
        elif data != outputs[0]:
            problem = f"command {i} output differs from command 0"
        else:
            try:
                doc = json.loads(data)
                if wl.kind == "run":
                    problem = report_problem(doc, seed, table)
                else:
                    problem = table_problem(doc, wl.n, seed)
                problem = problem or pin_problem(name, wl, seed, doc)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"command {i} output unreadable: {exc!r}"
        ledger.record(1 + per_cmd, problem)


# ---------------------------------------------------------------------------
# adversary optimality


def adversary_gap(pv, name: str, wl: Workload, seed: int, ledger: Ledger) -> tuple[float, float]:
    """(sum found / sum oracle, mean oracle - found) over seeded instances
    drawn in the workload's own noise regime."""
    import numpy as np

    import oracle

    adversary = pv["posverify.adversary"]
    cfg = pv["posverify.experiment"].PRESETS[wl.preset]
    params, region, faking = cfg.resolved_signal(), cfg.region, cfg.faking
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(name.encode()),))
    )
    found_sum = oracle_sum = 0.0
    gaps = []
    for k in range(ADV_INSTANCES):
        genuine = region.sample(rng, wl.adv_genuine)
        x0 = region.sample(rng, 1)[0]
        probes = region.sample(rng, oracle.CROSS_CHECK_POINTS)
        out = adversary.optimize_fake_position(params, region, x0, genuine, faking)
        point = np.array(out.fake_position)
        found = out.expected_deceived
        best = max(oracle.oracle_value(params, region, faking, x0, genuine, point), found)
        drift = oracle.cross_check(
            params, x0, genuine, np.vstack([probes, point]), adversary.theta_for_fake
        )
        problem = None
        if drift > oracle.CROSS_CHECK_RTOL:
            problem = f"instance {k}: oracle objective off theta_for_fake by {drift:.3g}"
        elif not region.contains(point) or np.hypot(*(point - x0)) < faking.exclusion_radius:
            problem = f"instance {k}: fake position {tuple(point)} is infeasible"
        ledger.record(1, problem)
        found_sum += found
        oracle_sum += best
        gaps.append(best - found)
    return found_sum / oracle_sum, statistics.fmean(gaps)


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    if leaf.endswith("_n"):
        return "count"
    if leaf.endswith("_pct"):
        return "pct"
    if leaf == "ms" or "_ms" in leaf:
        return "ms"
    if leaf.endswith("_bytes") or leaf == "table_bytes":
        return "bytes"
    if "_per_s" in leaf:
        return "1/s"
    for suffix, unit in (("ns_per_eval", "ns"), ("_share", "ratio"), ("_frac", "ratio"), ("_nodes", "nodes")):
        if leaf.endswith(suffix):
            return unit
    return "count"


def peak_rss_mb() -> float:
    kb = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


# ---------------------------------------------------------------------------
# one run


def measure(pv, name, wl, seed, seconds, work, ledger):
    """Untraced run: set-up, timed commands, checks, adversary gap."""
    cache = work / "cache"
    set_up(pv, wl, seed, wl.workers, cache)
    setup_s = time.perf_counter() - _T0
    # The host's speed drifts by a quarter over tens of seconds, so each
    # command's time is scaled by the reference kernel timed on either side.
    times, outputs, refs = timed_commands(
        pv, wl, seed, wl.workers, work, seconds, 1, MAX_COMMANDS, reference=reference_kernel(pv)
    )
    rss = peak_rss_mb()
    check_outputs(name, wl, seed, outputs, cache, ledger)
    ops = wl.ops_per_command
    scaled = [t * REFERENCE_NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
    optimality, gap = adversary_gap(pv, name, wl, seed, ledger)
    metrics = {
        "ops_per_s": ops / statistics.median(scaled),
        "setup_s": setup_s,
        "adv_optimality": optimality,
        "peak_rss_mb": rss,
    }
    label = f"{wl.op}_per_s"
    notes = [
        f"{label} {metrics['ops_per_s']:.6g} 1/s  (at reference speed, raw wall clock "
        f"{ops / statistics.median(times):.6g}; {ops} {wl.op} per command, "
        f"{len(times)} commands, median command {statistics.median(times):.3f} s)",
        f"setup_s {setup_s:.6g} s",
        f"adv_gap {gap:.6g} nodes  (adv_optimality {optimality:.9f} over {ADV_INSTANCES} instances)",
        f"peak_rss_mb {rss:.6g} MB",
    ]
    return metrics, END_TO_END_UNITS, notes


def measure_traced(pv, name, wl, seed, seconds, work, ledger):
    """Traced run: an untraced pass and a traced pass of the same commands,
    both calibrating with --workers 1 so that no span is lost in a pool."""
    import tracer as tracing

    cmd_workers = wl.workers if wl.kind == "run" else 1
    rates, cell_rates, outputs = {}, {}, []
    for traced in (False, True):
        cache = work / ("cache-traced" if traced else "cache-untraced")
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install(pv)
        try:
            calib_s = set_up(pv, wl, seed, 1, cache)
            if tracer:
                tracer.phase = "timed"
            times, outs, _ = timed_commands(
                pv, wl, seed, cmd_workers, work, seconds, TRACED_COMMANDS, TRACED_COMMANDS, tracer
            )
        finally:
            if tracer:
                tracer.uninstall()
        ops = wl.ops_per_command
        rates[traced] = ops / statistics.median(times)
        cell_rates[traced] = SETUP_CELLS / calib_s if calib_s else rates[traced]
        check_outputs(name, wl, seed, outs, cache, ledger)
        outputs.extend(outs)
    if any(o != outputs[0] for o in outputs):
        ledger.record(1, "traced and untraced outputs differ")
    else:
        ledger.record(1, None)
    _, gap = adversary_gap(pv, name, wl, seed, ledger)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["adversary.gap_nodes"] = gap
    metrics["trace.ops_per_s_untraced"] = rates[False]
    metrics["trace.ops_per_s_traced"] = rates[True]
    metrics["trace.overhead_frac"] = rates[False] / rates[True] - 1.0
    metrics["trace.cells_per_s_untraced"] = cell_rates[False]
    metrics["trace.cells_per_s_traced"] = cell_rates[True]
    units = {k: layer_unit(k) for k in metrics}
    overhead = f"tracing overhead: {wl.op}_per_s {rates[False]:.6g} untraced vs {rates[True]:.6g} traced"
    if wl.kind == "run":
        overhead += f"; set-up cells_per_s {cell_rates[False]:.6g} untraced vs {cell_rates[True]:.6g} traced"
    notes = [
        "traced and untraced calibration both ran with --workers 1: spans in pool children are lost",
        overhead,
    ]
    notes += [f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    return metrics, units, notes


def run_all(args) -> int:
    """Every workload at its default seed, one child process at a time."""
    pins = load_pins()
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(pins[name]["seed"]), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            return 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        rows.append(json.loads(lines[-1]))
    ok = all(r["correct"] for r in rows)
    print(json.dumps({"correct": ok, "workloads": dict(zip(WORKLOADS, rows))}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's pinned seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    pv = load_package()
    sys.path.insert(0, str(HERE))
    name, wl = args.workload, WORKLOADS[args.workload]
    seed = args.seed
    if seed is None:
        seed = load_pins()[name]["seed"]
    work = WORK / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, units, notes = measure_fn(pv, name, wl, seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    env = environment()
    print(f"# perfbench {name} seed={seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in notes:
        print(line)
    print(f"fail_frac {ledger.failed / ledger.attempted:.6g}  ({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
