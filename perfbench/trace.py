"""Traced run: one span per call at the program's layer boundaries.

Run as ``python3 perfbench/trace.py <config> <report-dir> <spans.jsonl>`` with
``src`` on ``PYTHONPATH``. It wraps the module-level names through which the
layers call each other (for example ``minutecast.rolling.ols_fit``), then calls
``cli.main`` for ``run`` and ``report`` in this process. Nothing under ``src/``
is edited. Spans stay in memory until the end, are written one JSON array per
line as ``[id, parent, name, start_s, end_s]``, and the per-layer metrics are
printed as one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter
from functools import wraps

T0 = time.perf_counter()


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries.

    Span i is (parents[i], names[i], starts[i], ends[i]); flat lists of
    numbers and shared strings keep the collector out of the hot path.
    """

    def __init__(self):
        self.parents, self.names, self.starts, self.ends = [], [], [], []
        self.counts = Counter()
        self._stack = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` with a version that records a span per call.

        ``count(counts, result, *args)`` may add to ``self.counts`` after the call.
        """
        original = getattr(module, attr)
        parents, names, starts, ends, stack = (
            self.parents, self.names, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        @wraps(original)
        def traced(*args, **kwargs):
            sid = len(names)
            parents.append(stack[-1] if stack else -1)
            names.append(name)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, result, *args)
            return result

        setattr(module, attr, traced)

    def spans(self):
        return zip(range(len(self.names)), self.parents, self.names, self.starts, self.ends)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.names)
        for _, parent, _, start, end in self.spans():
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for sid, _, name, start, end in self.spans():
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[sid]
        return calls, total, own


def _lstm_flop(W: int, S: int, L: int, n: int, d: int, epochs: int) -> float:
    """Gate matrix products of one batched BPTT run, as 2 x multiply-adds.

    Per epoch and step, over W windows of S subsequences: the forward pass
    multiplies inputs (n) and the previous hidden state (d) into 4d gates; the
    backward pass forms the gate gradients against inputs and hidden state and
    carries the hidden-state gradient back through the recurrent weights.
    """
    return 2.0 * W * S * L * 4 * d * (2 * n + 3 * d) * epochs


def install(tracer: Tracer):
    import minutecast.cli as cli
    import minutecast.rolling as rolling

    def bars(c, days, *_):
        c["marketdata.bars"] += sum(len(d.bars) for d in days)

    def rows(c, result, *_):
        c["marketdata.feature_rows"] += len(result)

    def tasks(c, result, *_):
        c["rolling.tasks"] += len(result)

    def records(c, result, *_):
        c.update(f"rolling.records_{r.status}" for r in result)

    def batch(c, result, X, Y, config, seeds):
        W, S, L, n = X.shape
        c["lstm.batches"] += 1
        c["lstm.windows"] += W
        c["lstm.flop"] += _lstm_flop(W, S, L, n, config.hidden_dim, config.epochs)

    def solo(c, result, X, y, config):
        L = config.sequence_length
        c["lstm.solo_fits"] += 1
        c["lstm.windows"] += 1
        c["lstm.flop"] += _lstm_flop(1, len(X) - L + 1, L, X.shape[1], config.hidden_dim, config.epochs)

    def forest(c, result, X, y, config):
        c["forest.trees"] += config.n_trees

    for attr, name, count in (
        ("load_minute_bars", "marketdata.load", bars),
        ("run_sample", "rolling", records),
        ("write_store", "rolling.store_write", None),
        ("read_store", "rolling.store_read", None),
        ("compute_daily_metrics", "metrics.daily", None),
        ("aggregate_report", "metrics.aggregate", None),
        ("write_daily_metrics", "metrics.write", None),
        ("write_aggregate_report", "metrics.write", None),
    ):
        tracer.wrap(cli, attr, name, count)
    for attr, name, count in (
        ("build_feature_rows", "marketdata.features", rows),
        ("schedule_day", "rolling.schedule", tasks),
        ("fit_minmax", "scaling", None),
        ("transform", "scaling", None),
        ("inverse_transform_target", "scaling", None),
        ("ols_fit", "linear.fit", None),
        ("ols_predict", "linear.predict", None),
        ("train_windows", "lstm.train", batch),
        ("lstm_train", "lstm.train", solo),
        ("lstm_predict", "lstm.predict", None),
        ("rf_fit", "forest.fit", forest),
        ("rf_predict", "forest.predict", None),
    ):
        tracer.wrap(rolling, attr, name, count)
    tracer.wrap(cli, "main", "cli")
    return cli


def layer_metrics(tracer: Tracer) -> dict:
    calls, total, own = tracer.totals()
    c = tracer.counts

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    linear_s = total["linear.fit"] + total["linear.predict"]
    return {
        "marketdata.load_s": (total["marketdata.load"], "s"),
        "marketdata.bars": (c["marketdata.bars"], "count"),
        "marketdata.features_s": (total["marketdata.features"], "s"),
        "marketdata.feature_rows": (c["marketdata.feature_rows"], "count"),
        "rolling.schedule_s": (total["rolling.schedule"], "s"),
        "rolling.tasks": (c["rolling.tasks"], "count"),
        "rolling.self_s": (own["rolling"], "s"),
        "rolling.records_ok": (c["rolling.records_ok"], "count"),
        "rolling.records_fallback": (c["rolling.records_fallback"], "count"),
        "rolling.records_skipped": (c["rolling.records_skipped"], "count"),
        "rolling.store_write_s": (total["rolling.store_write"], "s"),
        "rolling.store_read_s": (total["rolling.store_read"], "s"),
        "scaling.calls": (calls["scaling"], "count"),
        "scaling.s": (total["scaling"], "s"),
        "linear.fits": (calls["linear.fit"], "count"),
        "linear.fit_s": (linear_s, "s"),
        "linear.us_per_fit": (ratio(linear_s, calls["linear.fit"], 1e6), "us"),
        "lstm.batches": (c["lstm.batches"], "count"),
        "lstm.windows": (c["lstm.windows"], "count"),
        "lstm.train_s": (total["lstm.train"], "s"),
        "lstm.ms_per_window": (ratio(total["lstm.train"], c["lstm.windows"], 1e3), "ms"),
        "lstm.solo_fits": (c["lstm.solo_fits"], "count"),
        "lstm.predict_s": (total["lstm.predict"], "s"),
        "lstm.gflop_computed": (c["lstm.flop"] / 1e9, "GFLOP"),
        "lstm.gflops_per_s": (ratio(c["lstm.flop"] / 1e9, total["lstm.train"]), "GFLOP/s"),
        "forest.fits": (calls["forest.fit"], "count"),
        "forest.trees": (c["forest.trees"], "count"),
        "forest.fit_s": (total["forest.fit"], "s"),
        "forest.ms_per_tree": (ratio(total["forest.fit"], c["forest.trees"], 1e3), "ms"),
        "forest.predict_s": (total["forest.predict"], "s"),
        "metrics.daily_s": (total["metrics.daily"], "s"),
        "metrics.aggregate_s": (total["metrics.aggregate"], "s"),
        "metrics.write_s": (total["metrics.write"], "s"),
        "cli.self_s": (own["cli"], "s"),
    }


def main(argv) -> int:
    config, report_dir, spans_path = argv
    tracer = Tracer()
    cli = install(tracer)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", config])
        run_s = time.perf_counter() - T0
        store = f"{cli.load_run_config(config).out}/predictions.csv"
        code = code or cli.main(["report", store, "--out", report_dir])
    with open(spans_path, "w") as handle:
        for span in tracer.spans():
            handle.write(json.dumps(span) + "\n")
    print(json.dumps({"exit": code, "traced_run_s": run_s, "layers": layer_metrics(tracer)}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
