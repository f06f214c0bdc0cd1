"""Seeded experiments, reports, and the honest-majority cliff.

run_experiment wires the whole pipeline: calibrate theta, deploy, vote,
filter, aggregate over trials. A trial succeeds when every faker is
removed and at least one honest node survives. Sweeping the honest count
n0 shows how sharply the protocol turns on once a working majority exists.

The CLI drives the same machinery:
    posverify run --preset sig-noise-62 --trials 20 --report out.json
    posverify sweep --config cfg.json --n0 14:22:2 --report curve.csv --format csv
"""

import json
from dataclasses import replace

from posverify import (
    CalibrationCounts,
    ExperimentConfig,
    FakingSearchConfig,
    NoiseMode,
    PRESETS,
    Region,
    Signal,
    run_experiment,
)
from posverify.codec import to_json

region = Region(0.0, 60.0, 0.0, 60.0)
base = ExperimentConfig(
    n=24,
    n0=18,
    region=region,
    signal=Signal(transmit_power=1.0, wavelength=0.125),
    noise_mode=NoiseMode("significant"),
    faking=FakingSearchConfig(0.2 * region.diagonal, region.diagonal / 30.0),
    trials=8,
    seed=2,
    calibration=CalibrationCounts(positions=8, sets=5),
)

print("sweep of the honest-node count at n = 24")
print(f"{'n0':>4} {'success':>8} {'honest kept':>12} {'passes':>7}")
for n0 in range(13, 22, 2):
    agg = run_experiment(replace(base, n0=n0)).aggregate
    print(f"{n0:>4} {agg.success_rate:>8.2f} "
          f"{agg.mean_genuine_retained:>12.1f} {agg.mean_rounds:>7.1f}")

# one trial in full detail: the report's groups are its JSON file's groups
report = run_experiment(replace(base, trials=1))
print(f"\ntheta_star {report.theta.theta_star}, schedule {list(report.theta.schedule)}")
print("first trial per-pass deletions:")
print(json.dumps(to_json(report.aggregate.step_table), indent=2))

# bundled presets pin the boundary configurations
print("presets:", ", ".join(sorted(PRESETS)))
