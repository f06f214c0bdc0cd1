"""In-memory spans around the calls into each posverify layer.

The tracer patches module attributes at the bindings the program calls
through (for example ``posverify.experiment.deploy``), records one span per
call, and restores every binding on ``uninstall``. Nothing inside the
package changes. ``layer_metrics`` turns the spans into the per-layer
figures the benchmark reports.

Spans in worker processes are lost, so a traced calibration must run with
``--workers 1``.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import numpy as np

# A span: [name, start, end, parent index, phase, size]
NAME, START, END, PARENT, PHASE, SIZE = range(6)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# (module, attribute, span name, size of the call's work or output)
BINDINGS = (
    ("posverify.adversary", "_deception_prob_arrays", "channel", lambda a, k, out: int(np.size(out))),
    ("posverify.adversary", "_theta_batch", "adversary.batch", lambda a, k, out: int(np.size(out))),
    ("posverify.experiment", "optimize_fake_position", "adversary.optimize", None),
    ("posverify.calibration", "optimize_fake_position", "adversary.optimize", None),
    ("posverify.calibration", "_calibration_cell", "calibration.cell", None),
    ("posverify.calibration", "estimate_theta_table", "calibration.estimate", None),
    ("posverify.cli", "estimate_theta_table", "calibration.estimate", None),
    ("posverify.calibration", "save_theta_table", "calibration.save", lambda a, k, out: _file_size(out)),
    ("posverify.calibration", "load_theta_table", "calibration.load", None),
    ("posverify.experiment", "load_theta_table", "calibration.load", None),
    ("posverify.experiment", "accuse_approve", "protocol.audit", None),
    ("posverify.experiment", "filter_fixpoint", "protocol.filter", lambda a, k, out: len(out.rounds)),
    ("posverify.experiment", "quantile_filter", "protocol.filter", lambda a, k, out: len(out.rounds)),
    ("posverify.protocol", "count_approvals", "protocol.count_approvals", None),
    ("posverify.experiment", "deploy", "experiment.deploy", None),
    ("posverify.experiment", "resolve_theta_table", "experiment.resolve_theta", None),
    ("posverify.cli", "run_experiment", "experiment.run", None),
    ("posverify.cli", "emit_report", "experiment.report", lambda a, k, out: _file_size(a[2])),
    ("posverify.cli", "_cmd_theta", "cli.theta", lambda a, k, out: _file_size(a[0].out)),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, time.perf_counter(), 0.0, parent, self.phase, 0]
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def install(self, modules: dict) -> None:
        """Wrap every binding in BINDINGS that the loaded package still has."""
        for mod_name, attr, name, size_of in BINDINGS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, name, size_of))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, size_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if size_of is not None:
                rec[SIZE] = size_of(args, kwargs, out)
            return out

        return traced


def tail(values_ms) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest ladder percentile with at
    least ten samples beyond it; the maximum (percentile 100) when there are
    too few samples for any."""
    n = len(values_ms)
    if n == 0:
        return 0.0, 0.0, 0
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(values_ms, pct)), pct, n
    return float(max(values_ms)), 100.0, n


def _ms(rec) -> float:
    return (rec[END] - rec[START]) * 1e3


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from one traced pass.

    Counts and times "per command" are averaged over the timed ``cli.main``
    spans; calibration figures cover every calibration in the pass,
    including the one in set-up. A layer the workload never calls reports 0.
    """
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)
        children.setdefault(rec[PARENT], []).append(i)

    def named(name, phase=None):
        return [spans[i] for i in by_name.get(name, ()) if phase is None or spans[i][PHASE] == phase]

    def descendants_ms(i: int, name: str) -> float:
        total, todo = 0.0, list(children.get(i, ()))
        while todo:
            j = todo.pop()
            if spans[j][NAME] == name:
                total += _ms(spans[j])
            else:
                todo.extend(children.get(j, ()))
        return total

    commands = [i for i in by_name.get("cli.main", ()) if spans[i][PHASE] == "timed"]
    per_cmd = 1.0 / max(1, len(commands))
    out: dict[str, float] = {}

    chan = named("channel", "timed")
    evals = sum(r[SIZE] for r in chan)
    chan_ms = sum(_ms(r) for r in chan)
    out["channel.calls"] = len(chan) * per_cmd
    out["channel.evals"] = evals * per_cmd
    out["channel.ms"] = chan_ms * per_cmd
    out["channel.ns_per_eval"] = chan_ms * 1e6 / evals if evals else 0.0

    opt_idx = [i for i in by_name.get("adversary.optimize", ()) if spans[i][PHASE] == "timed"]
    opt_ms = [_ms(spans[i]) for i in opt_idx]
    score_ms, score_n, refine_ms, refine_n, self_ms = [], [], [], [], []
    for i in opt_idx:
        batches = [spans[j] for j in children.get(i, ()) if spans[j][NAME] == "adversary.batch"]
        if batches:
            score_ms.append(_ms(batches[0]))
            score_n.append(batches[0][SIZE])
            refine_ms.append(sum(_ms(b) for b in batches[1:]))
            refine_n.append(len(batches) - 1)
        self_ms.append(_ms(spans[i]) - descendants_ms(i, "channel"))
    opt_tail = tail(opt_ms)
    out["adversary.optimize_calls"] = len(opt_idx) * per_cmd
    out["adversary.optimize_ms_p50"] = _median(opt_ms)
    out["adversary.optimize_ms_tail"] = opt_tail[0]
    out["adversary.optimize_ms_tail_pct"] = opt_tail[1]
    out["adversary.optimize_n"] = opt_tail[2]
    out["adversary.candidates_per_call"] = _mean(score_n)
    out["adversary.score_ms"] = _mean(score_ms)
    out["adversary.refine_batches_per_call"] = _mean(refine_n)
    out["adversary.refine_ms"] = _mean(refine_ms)
    out["adversary.self_ms"] = _mean(self_ms)

    cells = [_ms(r) for r in named("calibration.cell")]
    cell_tail = tail(cells)
    summary = [
        _ms(spans[i]) - descendants_ms(i, "calibration.cell")
        for i in by_name.get("calibration.estimate", ())
    ]
    saves = named("calibration.save")
    theta_cmds = by_name.get("cli.theta", ())
    writes = [_ms(r) for r in saves] + [
        _ms(spans[i]) - descendants_ms(i, "calibration.estimate") for i in theta_cmds
    ]
    table_bytes = [r[SIZE] for r in saves] + [spans[i][SIZE] for i in theta_cmds]
    out["calibration.cells"] = float(len(cells))
    out["calibration.cell_ms_p50"] = _median(cells)
    out["calibration.cell_ms_tail"] = cell_tail[0]
    out["calibration.cell_ms_tail_pct"] = cell_tail[1]
    out["calibration.summary_ms"] = _mean(summary)
    out["calibration.table_write_ms"] = _mean(writes)
    out["calibration.table_load_ms"] = _mean([_ms(r) for r in named("calibration.load", "timed")])
    out["calibration.table_bytes"] = _mean(table_bytes)

    filters = named("protocol.filter", "timed")
    out["protocol.audit_ms"] = _median([_ms(r) for r in named("protocol.audit", "timed")])
    out["protocol.filter_ms"] = _median([_ms(r) for r in filters])
    out["protocol.passes"] = _mean([r[SIZE] for r in filters])
    out["protocol.count_approvals_calls"] = (
        len(named("protocol.count_approvals", "timed")) / len(filters) if filters else 0.0
    )

    # a trial runs from its deploy to the end of the filter that follows it
    deploys = named("experiment.deploy", "timed")
    trials = [(f[END] - d[START]) * 1e3 for d, f in zip(deploys, filters)]
    deploy_ms = [_ms(r) for r in deploys]
    trial_tail, deploy_tail = tail(trials), tail(deploy_ms)
    reports = named("experiment.report", "timed")
    out["experiment.trial_ms_p50"] = _median(trials)
    out["experiment.trial_ms_tail"] = trial_tail[0]
    out["experiment.trial_ms_tail_pct"] = trial_tail[1]
    out["experiment.trial_n"] = trial_tail[2]
    out["experiment.deploy_ms_p50"] = _median(deploy_ms)
    out["experiment.deploy_ms_tail"] = deploy_tail[0]
    out["experiment.deploy_ms_tail_pct"] = deploy_tail[1]
    out["experiment.deploy_share"] = sum(deploy_ms) / sum(trials) if trials else 0.0
    out["experiment.theta_resolve_ms"] = _mean([_ms(r) for r in named("experiment.resolve_theta", "timed")])
    out["experiment.report_ms"] = _mean([_ms(r) for r in reports])
    out["experiment.report_bytes"] = _mean([r[SIZE] for r in reports])

    # command time outside the pipeline calls, the report and the table write
    inner = ("experiment.run", "experiment.report", "cli.theta")
    out["cli.overhead_ms"] = _mean(
        [_ms(spans[i]) - sum(descendants_ms(i, name) for name in inner) for i in commands]
    )
    return out
