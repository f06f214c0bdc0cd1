"""Mutual position auditing and iterative majority filtering.

Every node ranges every other node's broadcast and votes accuse/approve on
its claimed position; the filter then repeatedly drops nodes whose approval
count among the still-active set falls below (active + theta)/2, where
theta is the calibrated deception allowance. A quantile variant sweeps an
escalating schedule of allowances so that borderline honest majorities are
not wiped out by the full allowance in one blow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibration import ThetaTable, threshold
from .channel import SignalParams, _approve_mask, noisy_received_power


class NodeKind(Enum):
    GENUINE = "genuine"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class Node:
    """A deployed node: where it really is, and where it says it is."""

    id: int
    kind: NodeKind
    true_position: tuple[float, float]
    claimed_position: tuple[float, float]

    def __post_init__(self) -> None:
        if self.kind is NodeKind.GENUINE and self.claimed_position != self.true_position:
            raise ValueError(f"genuine node {self.id} must claim its true position")


@dataclass(frozen=True, eq=False)
class AccusationMatrix:
    """Who accuses whom: ``accuses[j, i]`` is node j's verdict on node i.

    The diagonal is false; nobody accuses itself.
    """

    ids: tuple[int, ...]
    accuses: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise ValueError("node ids must be unique")
        if self.accuses.shape != (n, n) or self.accuses.dtype != np.bool_:
            raise ValueError(f"need an {n}x{n} boolean grid, got {self.accuses.shape} {self.accuses.dtype}")
        if np.any(np.diagonal(self.accuses)):
            raise ValueError("diagonal must be false: nodes do not accuse themselves")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AccusationMatrix)
            and self.ids == other.ids
            and np.array_equal(self.accuses, other.accuses)
        )

    def index(self, node_id: int) -> int:
        return self.ids.index(node_id)


def accuse_approve(nodes: list[Node], params: SignalParams, seed: int) -> AccusationMatrix:
    """Run the mutual audit and collect every node's verdicts.

    Genuine receivers measure one noisy power per sender (noise drawn from
    ``seed``) and apply the 3-sigma distance check against the sender's
    claimed position. Malicious receivers lie in the worst way available
    to them: accuse every genuine node, approve every fellow malicious.
    """
    n = len(nodes)
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if len({nd.id for nd in nodes}) != n:
        raise ValueError("node ids must be unique")

    truths = np.array([nd.true_position for nd in nodes], dtype=float)
    claims = np.array([nd.claimed_position for nd in nodes], dtype=float)
    genuine = np.array([nd.kind is NodeKind.GENUINE for nd in nodes])

    true_d = np.hypot(
        truths[:, 0][:, None] - truths[:, 0][None, :],
        truths[:, 1][:, None] - truths[:, 1][None, :],
    )
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(true_d[off_diag] == 0.0):
        raise ValueError("two nodes share a true position; distances are undefined")
    claimed_d = np.hypot(
        truths[:, 0][:, None] - claims[:, 0][None, :],
        truths[:, 1][:, None] - claims[:, 1][None, :],
    )

    # the diagonal reads at 1 m; fill_diagonal below overwrites its verdicts
    with np.errstate(divide="ignore", over="ignore"):
        at = np.where(off_diag, true_d, 1.0)
        powers = noisy_received_power(params, at, np.random.default_rng(seed))

    accuses = ~_approve_mask(params, claimed_d, powers)
    # malicious receivers ignore their readings entirely
    accuses[~genuine, :] = genuine[None, :]
    np.fill_diagonal(accuses, False)
    return AccusationMatrix(tuple(nd.id for nd in nodes), accuses)


def count_approvals(matrix: AccusationMatrix, active) -> dict[int, int]:
    """Approvals each active node receives from the active set, itself included."""
    idx = {nid: k for k, nid in enumerate(matrix.ids)}
    act = sorted(active)
    rows = np.array([idx[a] for a in act], dtype=int)
    sub = matrix.accuses[np.ix_(rows, rows)]
    approvals = (~sub).sum(axis=0)
    return {a: int(c) for a, c in zip(act, approvals)}


@dataclass(frozen=True)
class FilterRound:
    """One pass of the filter: who fell below the bar, and what the bar was."""

    step: int
    active_before: int
    threshold: float
    removed_ids: tuple[int, ...]
    removed_approvals: tuple[int, ...]


@dataclass(frozen=True)
class FilterResult:
    rounds: tuple[FilterRound, ...]
    final_genuine_set: frozenset[int]
    final_filtered_set: frozenset[int]


def _run_schedule(matrix: AccusationMatrix, thetas) -> FilterResult:
    active = list(matrix.ids)
    rounds: list[FilterRound] = []
    for step, theta in enumerate(thetas):
        while active:
            k = len(active)
            bar = threshold(k, theta)
            approvals = count_approvals(matrix, active)
            removed = tuple(sorted(i for i in active if approvals[i] < bar))
            rounds.append(
                FilterRound(
                    step=step,
                    active_before=k,
                    threshold=bar,
                    removed_ids=removed,
                    removed_approvals=tuple(approvals[i] for i in removed),
                )
            )
            if not removed:
                break
            gone = set(removed)
            active = [i for i in active if i not in gone]
    return FilterResult(
        rounds=tuple(rounds),
        final_genuine_set=frozenset(active),
        final_filtered_set=frozenset(matrix.ids) - frozenset(active),
    )


def filter_fixpoint(matrix: AccusationMatrix, theta: float) -> FilterResult:
    """Repeatedly drop nodes approved by fewer than (active + theta)/2 of the
    active set, all at once per pass, until a pass removes nobody.

    Ties survive: reaching the bar exactly is enough. The trace always ends
    with the empty pass that certified the fixpoint (unless everyone was
    removed, in which case there is nobody left to certify).
    """
    return _run_schedule(matrix, [theta])


def quantile_filter(matrix: AccusationMatrix, table: ThetaTable) -> FilterResult:
    """Fixpoint filtering under the escalating allowance schedule
    0, q(0.1), ..., q(0.9), theta_star; each step starts from the previous
    step's survivors and the traces are concatenated with step indices.
    """
    return _run_schedule(matrix, table.schedule())
