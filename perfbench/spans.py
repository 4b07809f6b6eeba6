"""Spans recorded around calls into the package, from outside the package.

A hook replaces one module attribute with a wrapper.  Callers inside the
package look their collaborators up as module globals at call time, so
wrapping ``maxvariety.denoise.tyler`` times every Tyler pass that
``clean_covariance`` makes without editing ``src/``.  Each call becomes a
span holding its name, start, end, parent and op id; spans stay in memory
and are summarised when the run ends.

A hook whose attribute is gone (a later change renamed or removed it) is
skipped and reported; the metrics fed by it are reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

SETUP_OP = -1  # op id of spans recorded while the inputs are synthesised


@dataclass
class Span:
    name: str
    start: float
    op: int
    parent: Span | None = None
    end: float = 0.0
    children: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span) -> float:
    """Duration minus the part of it that the span's children cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


class Tracer:
    """Holds the open-span stack and every span recorded so far."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self.missing: list[Hook] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if "{n}" in name:
            # numbered by occurrence under one parent: the first Tyler call
            # inside a clean is pass 1, the second pass 2
            stem = name.split("{n}")[0]
            siblings = parent.children if parent else []
            name = name.format(
                n=1 + sum(s.name.startswith(stem) for s in siblings))
        span = Span(name, time.perf_counter(), self.op, parent)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, key: str) -> None:
        if self._stack:
            counts = self._stack[-1].counts
            counts[key] = counts.get(key, 0) + 1


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr``: a span named ``span`` per call, or, with
    ``count=True``, one tick of the counter ``span`` on the open span.
    ``keep`` stores the call's arguments and result on its span."""

    module: str
    attr: str
    span: str
    count: bool = False
    keep: bool = False


HOOKS = (
    # the benchmark's own input synthesis, part of set-up
    Hook("maxvariety", "gen_panel", "market_model.gen_panel"),
    Hook("maxvariety", "save_returns_csv", "panels.save_returns_csv"),
    Hook("maxvariety.cli", "main", "cli.main"),
    # calls the CLI makes
    Hook("maxvariety.cli", "gen_panel", "market_model.gen_panel"),
    Hook("maxvariety.cli", "tyler", "robust.tyler.raw"),
    Hook("maxvariety.cli", "load_returns_csv", "panels.load_returns_csv"),
    Hook("maxvariety.cli", "scm", "robust.scm"),
    Hook("maxvariety.cli", "clean_covariance", "denoise.clean_covariance"),
    Hook("maxvariety.cli", "optimize_variety", "allocation.optimize_variety",
         keep=True),
    Hook("maxvariety.cli", "load_prices", "backtest.load_prices"),
    Hook("maxvariety.cli", "run_backtest", "backtest.run_backtest",
         keep=True),
    # calls the backtest makes per rebalance
    Hook("maxvariety.backtest", "scm", "robust.scm"),
    Hook("maxvariety.backtest", "clean_covariance",
         "denoise.clean_covariance"),
    Hook("maxvariety.backtest", "optimize_variety",
         "allocation.optimize_variety", keep=True),
    # calls inside the cleaning pipeline and the optimizer
    Hook("maxvariety.denoise", "tyler", "robust.tyler.pass{n}"),
    Hook("maxvariety.denoise", "toeplitzify", "robust.toeplitzify"),
    Hook("maxvariety.denoise", "inv_sqrt", "robust.inv_sqrt"),
    Hook("maxvariety.denoise", "eigen_spectrum", "denoise.eigen_spectrum"),
    Hook("maxvariety.allocation", "min_variance_variety_weights",
         "allocation.min_variance_variety_weights", keep=True),
    # private: one tick per fixed-point sweep
    Hook("maxvariety.robust", "_tyler_step", "robust.tyler.sweeps",
         count=True),
)


def _wrap(tracer: Tracer, fn, hook: Hook):
    if hook.count:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(hook.span)
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        span = tracer.open(hook.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook.keep:
            span.args, span.result = args, result
        return result
    return spanned


@contextlib.contextmanager
def hooked(tracer: Tracer, hooks=HOOKS):
    """Install the hooks for the duration of the block.  Hooks whose
    attribute is gone are skipped and listed in ``tracer.missing``."""
    tracer.missing = []
    undo = []
    try:
        for hook in hooks:
            module = importlib.import_module(hook.module)
            fn = getattr(module, hook.attr, None)
            if fn is None:
                tracer.missing.append(hook)
                continue
            setattr(module, hook.attr, _wrap(tracer, fn, hook))
            undo.append((module, hook.attr, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)


# Per-layer metrics: (name, unit, better, span it is read from).
LAYER_METRICS = (
    ("market_model.gen_panel.ms", "ms", "lower", "market_model.gen_panel"),
    ("panels.load_returns_csv.ms", "ms", "lower", "panels.load_returns_csv"),
    ("panels.save_returns_csv.ms", "ms", "lower", "panels.save_returns_csv"),
    ("robust.tyler.raw.ms", "ms", "lower", "robust.tyler.raw"),
    ("robust.tyler.pass1.ms", "ms", "lower", "robust.tyler.pass1"),
    ("robust.tyler.pass2.ms", "ms", "lower", "robust.tyler.pass2"),
    ("robust.tyler.sweeps", "count", "lower", "robust.tyler.sweeps"),
    ("robust.toeplitzify.ms", "ms", "lower", "robust.toeplitzify"),
    ("robust.inv_sqrt.ms", "ms", "lower", "robust.inv_sqrt"),
    ("robust.scm.ms", "ms", "lower", "robust.scm"),
    ("denoise.clean_covariance.self_ms", "ms", "lower",
     "denoise.clean_covariance"),
    ("denoise.eigen_spectrum.ms", "ms", "lower", "denoise.eigen_spectrum"),
    ("allocation.optimize_variety.ms", "ms", "lower",
     "allocation.optimize_variety"),
    ("allocation.optimize_variety.self_ms", "ms", "lower",
     "allocation.optimize_variety"),
    ("allocation.min_variance_variety_weights.ms", "ms", "lower",
     "allocation.min_variance_variety_weights"),
    ("allocation.iterations", "count", "lower",
     "allocation.optimize_variety"),
    ("allocation.kkt_residual_max", "1", "lower",
     "allocation.optimize_variety"),
    ("allocation.crosscheck_win_share", "ratio", "lower",
     "allocation.min_variance_variety_weights"),
    ("backtest.load_prices.ms", "ms", "lower", "backtest.load_prices"),
    ("backtest.run_backtest.self_ms", "ms", "lower", "backtest.run_backtest"),
    ("backtest.rebalances", "count", "higher", "backtest.run_backtest"),
    ("cli.main.self_ms", "ms", "lower", "cli.main"),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, variety_ratio) -> dict[str, float]:
    """Per-call layer metrics from the spans of the setup and the ops.

    A layer never called reads 0.  A metric fed by a missing hook is left
    out.  ``variety_ratio(weights, cov)`` scores the cross-check solver's
    answer against the one ``optimize_variety`` returned.
    """
    gone = {hook.span for hook in tracer.missing}
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    tylers = [s for name in ("robust.tyler.raw", "robust.tyler.pass1",
                             "robust.tyler.pass2") for s in named(name)]
    optimizes = named("allocation.optimize_variety")

    def crosscheck_won(span):
        checks = [c for c in span.children
                  if c.name == "allocation.min_variance_variety_weights"]
        return bool(checks) and variety_ratio(
            checks[0].result, span.args[0]) >= span.result.variety_ratio

    derived = {
        "robust.tyler.sweeps": lambda: _mean(
            s.counts.get("robust.tyler.sweeps", 0) for s in tylers),
        "allocation.iterations": lambda: _mean(
            s.result.iterations for s in optimizes),
        "allocation.kkt_residual_max": lambda: max(
            (s.result.kkt_residual for s in optimizes), default=0.0),
        "allocation.crosscheck_win_share": lambda: _mean(
            crosscheck_won(s) for s in optimizes),
        "backtest.rebalances": lambda: _mean(
            len(s.result.rebalance_dates) for s in named(
                "backtest.run_backtest")),
    }
    out = {}
    for name, _unit, _better, source in LAYER_METRICS:
        if source in gone:
            continue
        if name in derived:
            out[name] = float(derived[name]())
        elif name.endswith(".self_ms"):
            out[name] = 1e3 * _mean(self_time(s) for s in named(source))
        else:
            out[name] = 1e3 * _mean(s.duration for s in named(source))
    return out


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each module's self time as a share of the timed ops' time.

    The op spans' own self time is the benchmark's glue, listed as
    ``benchmark``; the shares sum to 1.
    """
    ops = [s for s in spans if s.op != SETUP_OP and s.parent is None]
    total = sum(s.duration for s in ops)
    shares: dict[str, float] = {}
    for span in spans:
        if span.op == SETUP_OP:
            continue
        module = "benchmark" if span.parent is None else span.name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + self_time(span)
    return {module: t / total for module, t in shares.items()} if total else {}
