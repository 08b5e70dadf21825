"""Span and count tracing of swinghedge from outside the package.

The tracer replaces the package's public functions and a few methods with
timing wrappers, under every name a caller looks them up by (each module
that imported the function binds its own name), and puts the originals back
on uninstall. No file of the package changes.

A span is (name, start, end, parent index, job id); spans stay in memory
until the run writes them out. A layer's self time is its spans' time minus
the time of their direct child spans. Counts are taken from arguments and
return values at the same boundaries. `PwlFn.eval` is deliberately left
alone: it runs millions of times per run and would drown the other spans in
wrapper cost.
"""

from __future__ import annotations

import importlib
import json
import time
from fractions import Fraction

LAYERS = ("contract", "market", "dynkin", "swing", "pwl", "shortfall", "hedge", "oracle", "cli")


def _den_bits(q) -> int:
    return Fraction(q).denominator.bit_length()


def _count_contract(c, args, result):
    c["contract.nodes"] += result.tree.node_count


def _count_dynkin(c, args, result):
    c["dynkin.solve_calls"] += 1
    c["dynkin.nodes"] += args[0].tree.node_count


def _count_price(c, args, result):
    c["swing.price_den_bits"] = max(c["swing.price_den_bits"], _den_bits(result[1]))


def _count_portfolio(c, args, result):
    c["pwl.portfolio_calls"] += 1
    c["pwl.portfolio_grid"] += len(args[0].points) * len(args[1].points)
    c["pwl.portfolio_out_bps"] += len(result[0].points)


def _count_stack(c, args, result):
    c["shortfall.states"] += len(result.J)
    curve = result.curve()
    c["pwl.curve_bps"] += len(curve.points)
    c["pwl.curve_den_bits"] = max(
        [c["pwl.curve_den_bits"]] + [_den_bits(v) for pt in curve.points for v in pt]
    )
    c["pwl.J_bps_max"] = max(c["pwl.J_bps_max"], max(len(f.points) for f in result.J.values()))


def _count_verify(c, args, result):
    c["hedge.plays"] += result.plays


def _calls(key):
    def count(c, args, result):
        c[key] += 1
    return count


# (module, attribute path, span name, count hook). A dotted attribute is a
# method, patched on its class.
TARGETS = (
    ("contract", "load_contract", "contract.load", None),
    ("contract", "build_contract", "contract.build", _count_contract),
    ("market", "build_tree", "market.tree", None),
    ("market", "AdaptedProcess.from_function", "market.process", None),
    ("market", "one_step_expectation", "market.expect", _calls("market.expect_calls")),
    ("dynkin", "solve_dynkin", "dynkin.solve", _count_dynkin),
    ("swing", "price_swing", "swing.price", _count_price),
    ("swing", "optimal_strategies", "swing.strategies", None),
    ("swing", "resolve", "swing.resolve", None),
    ("pwl", "portfolio_transform", "pwl.portfolio", _count_portfolio),
    ("pwl", "infusion_transform", "pwl.infusion", _calls("pwl.infusion_calls")),
    ("pwl", "pointwise_min", "pwl.minmax", _calls("pwl.minmax_calls")),
    ("pwl", "pointwise_max", "pwl.minmax", _calls("pwl.minmax_calls")),
    ("pwl", "PwlControl.eval", "pwl.control_eval", _calls("pwl.control_eval_calls")),
    ("shortfall", "build_risk_stack", "shortfall.stack", _count_stack),
    ("shortfall", "ReplayStrategy.stops", "shortfall.replay", _calls("shortfall.replay_calls")),
    ("shortfall", "StackInfusion.amount", "shortfall.infusion_amount", None),
    ("shortfall", "simulate_with_infusion", "shortfall.simulate", _calls("shortfall.simulate_calls")),
    ("hedge", "build_perfect_hedge", "hedge.build", None),
    ("hedge", "verify_perfect_hedge", "hedge.verify", _count_verify),
    ("hedge", "simulate_portfolio", "hedge.simulate", _calls("hedge.simulate_calls")),
    ("oracle", "certify_saddle", "oracle.certify", _calls("oracle.certify_calls")),
    ("cli", "main", "cli.main", None),
)

COUNT_KEYS = (
    "contract.nodes", "market.expect_calls", "dynkin.solve_calls", "dynkin.nodes",
    "swing.price_den_bits", "pwl.portfolio_calls", "pwl.portfolio_grid",
    "pwl.portfolio_out_bps", "pwl.infusion_calls", "pwl.minmax_calls",
    "pwl.curve_bps", "pwl.J_bps_max", "pwl.curve_den_bits", "pwl.control_eval_calls",
    "shortfall.states", "shortfall.replay_calls", "shortfall.simulate_calls",
    "hedge.plays", "hedge.simulate_calls", "hedge.units_calls", "hedge.units_distinct",
    "oracle.certify_calls", "cli.stdout_bytes",
)

# Counts that are a maximum over the run rather than a sum.
MAX_KEYS = ("swing.price_den_bits", "pwl.J_bps_max", "pwl.curve_den_bits")


class Tracer:
    """Owns the spans, the counts and the patches of one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.job = -1
        self._open = []
        self._patches = []  # (owner, name, original)
        self._units_seen = set()
        self._setup = (0, dict(self.counts))

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"swinghedge.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("swinghedge")]
        for mod_name, attr, span, hook in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, span, hook))
                else:
                    wrapper = self._wrap(original, span, hook)
                self._patch(cls, meth, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, hook)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._patch(ns, attr, wrapper)
        units = modules["hedge"].PerfectHedge
        self._patch(units, "units", self._count_units(units.units))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, name, hook):
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_units(self, fn):
        counts, seen = self.counts, self._units_seen

        def units(hedge, level, node, claim, wealth):
            counts["hedge.units_calls"] += 1
            key = (id(hedge), level, node, claim)
            if key not in seen:
                seen.add(key)
                counts["hedge.units_distinct"] += 1
            return fn(hedge, level, node, claim, wealth)

        return units

    def start_job(self):
        """Open the next job; distinct hedge states are counted per job."""
        self.job += 1
        self._units_seen.clear()

    def mark_setup(self):
        """Everything recorded so far belongs to the one-time set-up."""
        self._setup = (len(self.spans), dict(self.counts))

    # -- reduction ---------------------------------------------------------

    def reduce(self, cycles):
        """Per-cycle metrics: set-up totals once plus job totals / cycles.

        For each span name: `<name>_s` inclusive and `<name>_self_s` self
        seconds. Counts keep their names; MAX_KEYS stay maxima.
        """
        n_setup, setup_counts = self._setup
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, ((name, start, end, _, _), c) in enumerate(zip(self.spans, child)):
            share = 1.0 if idx < n_setup else 1.0 / cycles
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start) * share
            out[f"{name}_self_s"] = out.get(f"{name}_self_s", 0.0) + (end - start - c) * share
        for key, value in self.counts.items():
            if key in MAX_KEYS:
                out[key] = value
            else:
                out[key] = setup_counts[key] + (value - setup_counts[key]) / cycles
        out["trace.spans"] = n_setup + (len(self.spans) - n_setup) / cycles
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
