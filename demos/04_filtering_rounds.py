"""The mutual-voting filter, pass by pass.

Deploy a network, let everyone measure everyone, and watch the fixpoint:
each pass removes the nodes whose approval count sits below
(active + theta) / 2, the bar dropping as the active set shrinks.
Honest nodes approve whoever's claim survives the 3-sigma check; fakers
approve each other and accuse every honest node.
"""

from posverify import (
    CalibrationCounts,
    ExperimentConfig,
    FakingSearchConfig,
    NoiseMode,
    Region,
    Signal,
    accuse_approve,
    count_approvals,
    deploy,
    filter_fixpoint,
    resolve_theta_table,
)

region = Region(0.0, 100.0, 0.0, 100.0)
config = ExperimentConfig(
    n=30,
    n0=20,
    region=region,
    signal=Signal(transmit_power=1.0, wavelength=0.125),
    noise_mode=NoiseMode("significant"),
    faking=FakingSearchConfig(0.2 * region.diagonal, region.diagonal / 30.0),
    seed=5,
    calibration=CalibrationCounts(positions=8, sets=5),
)

table = resolve_theta_table(config)
print(f"calibrated slack theta_star = {table.theta_star}")

nodes = deploy(config, seed=11)
matrix = accuse_approve(nodes, config.resolved_signal(), seed=13)

approvals = count_approvals(matrix, set(range(config.n)))
honest = sorted(approvals[i] for i in range(config.n0))
fakers = sorted(approvals[i] for i in range(config.n0, config.n))
print(f"round-1 approval counts, honest: {honest}")
print(f"round-1 approval counts, fakers: {fakers}")

result = filter_fixpoint(matrix, float(table.theta_star))

print(f"\n{'pass':>4} {'active':>6} {'bar':>6} {'removed honest':>14} {'removed fakers':>14}")
for idx, rnd in enumerate(result.rounds, start=1):
    gone_honest = sum(1 for i in rnd.removed_ids if i < config.n0)
    gone_fakers = len(rnd.removed_ids) - gone_honest
    print(f"{idx:>4} {rnd.active_before:>6} {rnd.threshold:>6.2f} "
          f"{gone_honest:>14} {gone_fakers:>14}")

kept_honest = sum(1 for i in result.final_genuine_set if i < config.n0)
caught = sum(1 for i in result.final_filtered_set if i >= config.n0)
print(f"\nsurvivors: {kept_honest}/{config.n0} honest kept, "
      f"{caught}/{config.n1} fakers removed")
