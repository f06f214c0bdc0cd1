"""Position verification for wireless sensor networks.

Nodes broadcast claimed coordinates; receivers check each claim against the
received signal strength and a mutual-voting filter removes nodes whose
claims too few neighbors can corroborate. No node is trusted up front.
"""

from .adversary import (
    FakingOutcome,
    FakingSearchConfig,
    Region,
    optimize_fake_position,
    optimize_fake_positions,
)
from .calibration import (
    CalibrationMeta,
    ThetaTable,
    cached_theta_table,
    estimate_theta_table,
    genuine_acceptance_prob,
    load_theta_table,
    malicious_approval_bound,
    save_theta_table,
    threshold,
)
from .channel import (
    Signal,
    SignalParams,
    Verdict,
    acceptance_interval,
    compute_noise_scale,
    deception_probability,
    estimate_distance,
    ideal_received_power,
    link_verdict,
    noisy_received_power,
    simulate_approval_rate,
)
from .experiment import (
    CalibrationCounts,
    ExperimentConfig,
    ExperimentReport,
    NoiseMode,
    PRESETS,
    deploy,
    emit_report,
    load_config,
    load_report,
    resolve_theta_table,
    run_experiment,
)
from .protocol import (
    AccusationMatrix,
    FilterResult,
    Node,
    NodeKind,
    accuse_approve,
    count_approvals,
    filter_fixpoint,
    quantile_filter,
)
