import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posverify.adversary import FakingSearchConfig, Region
from posverify.calibration import CalibrationMeta, ThetaTable
from posverify.channel import TRUTHFUL_ACCEPT_PROB, SignalParams, ideal_received_power
from posverify.codec import from_json, to_json
from posverify.protocol import (
    AccusationMatrix,
    FilterResult,
    Node,
    NodeKind,
    accuse_approve,
    count_approvals,
    filter_fixpoint,
    quantile_filter,
)

REGION = Region(0.0, 100.0, 0.0, 100.0)


def params_with(sigma):
    return SignalParams(transmit_power=1.0, wavelength=0.125, noise_sigma=sigma)


def significant_params():
    base = params_with(0.0)
    return params_with(ideal_received_power(base, REGION.diagonal) / 3.0)


def genuine_node(i, pos):
    return Node(i, NodeKind.GENUINE, pos, pos)


def deploy_genuine(count, seed):
    pts = REGION.sample(np.random.default_rng(seed), count)
    return [genuine_node(i, (float(x), float(y))) for i, (x, y) in enumerate(pts)]


def brute_force_filter(ids, accuse_grid, theta):
    """Naive transcription of the filtering rule, sets and loops only."""
    idx = {v: k for k, v in enumerate(ids)}
    active = set(ids)
    while active:
        bar = (len(active) + theta) / 2.0
        counts = {}
        for target in active:
            got = 0
            for voter in active:
                if not accuse_grid[idx[voter]][idx[target]]:
                    got += 1
            counts[target] = got
        removed = {t for t in active if counts[t] < bar}
        if not removed:
            break
        active -= removed
    return active


def random_matrix(rng, n):
    grid = rng.random((n, n)) < rng.uniform(0.1, 0.9)
    np.fill_diagonal(grid, False)
    return AccusationMatrix(tuple(range(n)), grid)


def dummy_table(theta_star, quantiles=None):
    meta = CalibrationMeta(
        signal=params_with(1e-9),
        region=REGION,
        faking=FakingSearchConfig(exclusion_radius=7.0, grid_step=5.0),
        num_x0=1,
        num_x_per_x0=1,
        seed=0,
    )
    qs = quantiles or {k / 10: float(theta_star) for k in range(1, 10)}
    return ThetaTable(n=5, theta_star=theta_star, quantiles=qs, samples=(1.0,), meta=meta)


class TestNode:
    def test_genuine_must_claim_truth(self):
        with pytest.raises(ValueError):
            Node(0, NodeKind.GENUINE, (1.0, 2.0), (1.0, 2.5))

    def test_malicious_may_lie(self):
        Node(0, NodeKind.MALICIOUS, (1.0, 2.0), (30.0, 2.0))


class TestAccusationMatrix:
    def test_rejects_accusing_self(self):
        grid = np.zeros((3, 3), dtype=bool)
        grid[1, 1] = True
        with pytest.raises(ValueError):
            AccusationMatrix((0, 1, 2), grid)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            AccusationMatrix((0, 0, 2), np.zeros((3, 3), dtype=bool))


class TestAccuseApprove:
    def test_all_genuine_zero_noise_no_accusations(self):
        nodes = deploy_genuine(12, seed=1)
        m = accuse_approve(nodes, params_with(0.0), seed=7)
        assert not m.accuses.any()

    def test_genuine_links_approve_at_expected_rate(self):
        nodes = deploy_genuine(45, seed=2)
        m = accuse_approve(nodes, significant_params(), seed=3)
        off_diag = ~np.eye(len(nodes), dtype=bool)
        rate = 1.0 - m.accuses[off_diag].mean()
        assert rate == pytest.approx(TRUTHFUL_ACCEPT_PROB, abs=0.01)

    def test_malicious_rows_follow_worst_case(self):
        nodes = deploy_genuine(6, seed=4)
        nodes += [
            Node(6, NodeKind.MALICIOUS, (10.0, 93.0), (55.0, 20.0)),
            Node(7, NodeKind.MALICIOUS, (88.0, 12.0), (15.0, 70.0)),
        ]
        m = accuse_approve(nodes, significant_params(), seed=5)
        for j in (6, 7):
            row = m.accuses[m.index(j)]
            assert row[:6].all()  # accuses every genuine node
            assert not row[6:].any()  # approves every malicious node

    def test_deterministic_in_seed(self):
        # enough links that two noise draws almost surely disagree somewhere
        nodes = deploy_genuine(40, seed=6)
        a = accuse_approve(nodes, significant_params(), seed=11)
        b = accuse_approve(nodes, significant_params(), seed=11)
        c = accuse_approve(nodes, significant_params(), seed=12)
        assert a == b
        assert a != c

    def test_rejects_coincident_positions(self):
        nodes = [genuine_node(0, (5.0, 5.0)), genuine_node(1, (5.0, 5.0))]
        with pytest.raises(ValueError):
            accuse_approve(nodes, params_with(1e-9), seed=0)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            accuse_approve([genuine_node(0, (1.0, 1.0))], params_with(1e-9), seed=0)


class TestCountApprovals:
    def test_counts_include_self_and_respect_active_set(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, 1] = True  # 0 accuses 1
        grid[2, 1] = True
        grid[3, 0] = True
        m = AccusationMatrix((0, 1, 2, 3), grid)
        all_counts = count_approvals(m, {0, 1, 2, 3})
        assert all_counts == {0: 3, 1: 2, 2: 4, 3: 4}
        sub = count_approvals(m, {1, 2})
        assert sub == {1: 1, 2: 2}  # voter 2 still accuses 1; both approve 2


# Hand-traced five-node cascade, frozen:
#   voters 0,1 accuse {3,4}; voter 2 accuses {3}; voter 3 accuses {0,1,2};
#   voter 4 accuses {3}. theta = 1.
#   pass 1: k=5 bar=3.0, approvals 0,1,2 -> 4; 3 -> 1; 4 -> 3. only 3 falls
#           (4 ties at the bar and survives).
#   pass 2: k=4 bar=2.5, 4 lost its approver 3, dropping to {2,4} = 2; falls.
#   pass 3: k=3 bar=2.0, 0,1,2 all at 3. nobody falls; fixpoint.
def cascade_matrix():
    grid = np.zeros((5, 5), dtype=bool)
    grid[0, [3, 4]] = True
    grid[1, [3, 4]] = True
    grid[2, 3] = True
    grid[3, [0, 1, 2]] = True
    grid[4, 3] = True
    return AccusationMatrix((0, 1, 2, 3, 4), grid)


class TestFilterFixpoint:
    def test_hand_traced_cascade(self):
        res = filter_fixpoint(cascade_matrix(), 1.0)
        assert res.final_genuine_set == frozenset({0, 1, 2})
        assert res.final_filtered_set == frozenset({3, 4})
        assert [r.removed_ids for r in res.rounds] == [(3,), (4,), ()]
        assert [r.threshold for r in res.rounds] == [3.0, 2.5, 2.0]
        assert [r.active_before for r in res.rounds] == [5, 4, 3]
        assert res.rounds[0].removed_approvals == (1,)
        assert res.rounds[1].removed_approvals == (2,)

    def test_tie_survives(self):
        # node 4 sits exactly at the bar in pass 1 above and must remain
        res = filter_fixpoint(cascade_matrix(), 1.0)
        assert 4 not in res.rounds[0].removed_ids

    def test_no_accusations_keeps_everyone(self):
        m = AccusationMatrix((0, 1, 2), np.zeros((3, 3), dtype=bool))
        res = filter_fixpoint(m, 0.0)
        assert res.final_genuine_set == frozenset({0, 1, 2})
        assert len(res.rounds) == 1 and res.rounds[0].removed_ids == ()

    def test_everyone_can_fall(self):
        # full mutual accusation, any positive allowance: all fall at once
        grid = ~np.eye(3, dtype=bool)
        res = filter_fixpoint(AccusationMatrix((0, 1, 2), grid), 2.0)
        assert res.final_genuine_set == frozenset()
        assert res.final_filtered_set == frozenset({0, 1, 2})

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_matrices(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            theta = float(rng.uniform(0.0, 4.0))
            m = random_matrix(rng, n)
            got = filter_fixpoint(m, theta)
            want_active = brute_force_filter(m.ids, m.accuses.tolist(), theta)
            assert got.final_genuine_set == frozenset(want_active)
            assert got.final_filtered_set == frozenset(m.ids) - frozenset(want_active)

    def test_partition_and_trace_invariants(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            theta = float(rng.uniform(0.0, 3.0))
            m = random_matrix(rng, n)
            res = filter_fixpoint(m, theta)
            assert res.final_genuine_set | res.final_filtered_set == frozenset(m.ids)
            assert not res.final_genuine_set & res.final_filtered_set
            if res.final_genuine_set:
                assert res.rounds[-1].removed_ids == ()
            removed_all = [i for r in res.rounds for i in r.removed_ids]
            assert sorted(removed_all) == sorted(res.final_filtered_set)
            assert len(set(removed_all)) == len(removed_all)


class TestQuantileFilter:
    def test_flat_schedule_matches_plain_fixpoint(self):
        # with every quantile equal to theta_star the escalating schedule
        # lands on the same partition as the one-shot fixpoint
        m = cascade_matrix()
        res_q = quantile_filter(m, dummy_table(1))
        res_f = filter_fixpoint(m, 1.0)
        assert res_q.final_genuine_set == res_f.final_genuine_set
        assert res_q.final_filtered_set == res_f.final_filtered_set

    def test_steps_are_labeled_and_ordered(self):
        m = cascade_matrix()
        res = quantile_filter(m, dummy_table(1))
        steps = [r.step for r in res.rounds]
        assert steps == sorted(steps)
        assert steps[0] == 0 and steps[-1] == 10
        thetas = {r.step: 2 * r.threshold - r.active_before for r in res.rounds}
        assert thetas[0] == pytest.approx(0.0)
        assert thetas[10] == pytest.approx(1.0)

    def test_escalation_saves_honest_majority_blunt_filter_destroys(self):
        # five mutual approvers plus three pariahs accused by everybody.
        # the full allowance up front sets the bar at 6 and wipes out all
        # eight; starting at zero first drops the pariahs, which shrinks the
        # active count enough that the final bar (5+4)/2 spares the honest.
        n = 8
        grid = np.zeros((n, n), dtype=bool)
        for p in (5, 6, 7):
            grid[:, p] = True
            grid[p, :] = True
            grid[p, p] = False
        m = AccusationMatrix(tuple(range(n)), grid)
        blunt = filter_fixpoint(m, 4.0)
        assert blunt.final_genuine_set == frozenset()
        table = dummy_table(4, quantiles={k / 10: 1.0 for k in range(1, 10)})
        res = quantile_filter(m, table)
        assert res.final_genuine_set == frozenset({0, 1, 2, 3, 4})
        assert res.final_filtered_set == frozenset({5, 6, 7})


# allowances on a half-integer grid hit ties at the bar, (k + theta) / 2
# integral; free floats cover the rest
ALLOWANCES = st.one_of(st.integers(0, 12).map(lambda k: k / 2), st.floats(0.0, 6.0))


@st.composite
def filter_instances(draw):
    """A random audit over arbitrary distinct ids and a schedule whose
    quantiles and theta_star are drawn independently, so it is often not
    non-decreasing."""
    n = draw(st.integers(1, 16))
    ids = tuple(draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.random((n, n)) < draw(st.sampled_from([0.05, 0.15, 0.3, 0.5]))
    np.fill_diagonal(grid, False)
    quantiles = {k / 10: draw(ALLOWANCES) for k in range(1, 10)}
    return AccusationMatrix(ids, grid), dummy_table(draw(st.integers(0, 6)), quantiles)


class TestQuantileFilterProperties:
    @given(filter_instances())
    def test_passes_follow_the_rule_and_end_at_a_fixpoint(self, instance):
        m, table = instance
        schedule = table.schedule()
        res = quantile_filter(m, table)
        assert res.final_genuine_set | res.final_filtered_set == frozenset(m.ids)
        assert not res.final_genuine_set & res.final_filtered_set
        active = set(m.ids)
        for rnd in res.rounds:
            rows = [m.index(i) for i in sorted(active)]
            got = dict(zip(sorted(active), (~m.accuses[np.ix_(rows, rows)]).sum(axis=0)))
            assert rnd.active_before == len(active)
            assert rnd.threshold == (len(active) + schedule[rnd.step]) / 2
            assert rnd.removed_approvals == tuple(got[i] for i in rnd.removed_ids)
            assert all(a < rnd.threshold for a in rnd.removed_approvals)
            active -= set(rnd.removed_ids)
        assert active == res.final_genuine_set
        assert res.rounds[-1].removed_ids == () or not active
        # survivors of a higher bar clear any lower one: a step that steps
        # down removes nobody
        for rnd in res.rounds:
            if schedule[rnd.step] < max(schedule[: rnd.step + 1]):
                assert rnd.removed_ids == ()

    @given(filter_instances())
    def test_equals_chained_fixpoints_on_the_survivors(self, instance):
        m, table = instance
        survivors, rounds = list(m.ids), []
        for step, theta in enumerate(table.schedule()):
            keep = np.array([m.index(i) for i in survivors], dtype=int)
            sub = AccusationMatrix(tuple(survivors), m.accuses[np.ix_(keep, keep)])
            part = filter_fixpoint(sub, theta)
            rounds += [replace(r, step=step) for r in part.rounds]
            survivors = [i for i in survivors if i in part.final_genuine_set]
        assert quantile_filter(m, table) == FilterResult(
            tuple(rounds), frozenset(survivors), frozenset(m.ids) - frozenset(survivors)
        )


class TestFilterResultSerialization:
    def test_round_trip(self):
        res = filter_fixpoint(cascade_matrix(), 1.0)
        back = from_json(FilterResult, json.loads(json.dumps(to_json(res))))
        assert back == res
