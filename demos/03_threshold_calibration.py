"""Calibrating the voting slack theta.

The filter removes a node when fewer than (active + theta) / 2 others
approve it. theta absorbs what an optimal faker could steal: we sample
faker positions, let each play its best claim against fresh honest sets,
and take the ceiling of the worst average deception count. Noisier
channels leave more room to lie, so theta grows with sigma.
"""

import numpy as np

from posverify import (
    CalibrationMeta,
    FakingSearchConfig,
    Region,
    SignalParams,
    compute_noise_scale,
    estimate_theta_table,
)

region = Region(0.0, 100.0, 0.0, 100.0)
search = FakingSearchConfig(
    exclusion_radius=0.2 * region.diagonal,
    grid_step=region.diagonal / 30.0,
)
base = SignalParams(transmit_power=1.0, wavelength=0.125)
scale = compute_noise_scale(base, region)

n = 40  # votes come from ceil(n/2) = 20 honest receivers per sample

for label, sigma in (("negligible", 1e-6 * scale), ("significant", scale)):
    params = SignalParams(1.0, 0.125, noise_sigma=sigma)
    # 8 faker positions, 5 honest sets against each, seed 3
    table = estimate_theta_table(n, CalibrationMeta(params, region, search, 8, 5, seed=3))
    samples = np.asarray(table.samples)
    print(f"{label} noise (sigma = {sigma:.3e} W)")
    print(f"  samples: min {samples.min():.3f}  median {np.median(samples):.3f}  "
          f"max {samples.max():.3f}")
    print(f"  deciles 0.1/0.5/0.9: {table.quantiles[0.1]:.3f} / "
          f"{table.quantiles[0.5]:.3f} / {table.quantiles[0.9]:.3f}")
    print(f"  theta_star = {table.theta_star}")
    print()

print("with near-zero noise a faker only ever fools the ~2 receivers whose")
print("distance to the fake claim happens to match; with sigma at the")
print("region scale the power curve is flat far out and whole swaths of")
print("distant receivers become deceivable, so theta_star jumps.")
