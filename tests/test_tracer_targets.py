"""The benchmark's tracer against the package's names.

perfbench/tracer.py wraps the package's entry points by module and
attribute name. A target that is renamed or deleted would otherwise fail
only in the benchmark's own traced self-test, and a target the jobs stop
calling would read 0 without failing anything. These tests install the
tracer in process and uninstall it again; they read perfbench/ and write
nothing there (load_perfbench compiles each module from its source, so no
bytecode is cached).
"""

import importlib
import sys

import swinghedge
from conftest import load_perfbench


def test_the_tracer_patches_every_target_and_restores_each_one():
    tracer = load_perfbench("tracer")
    modules = {name: importlib.import_module(f"swinghedge.{name}") for name in tracer.LAYERS}
    owners = list(modules.values()) + [importlib.import_module("swinghedge"),
                                       modules["hedge"].PerfectHedge]
    targets = []  # (owner, attribute)
    for mod_name, attr, _, _ in tracer.TARGETS:
        owner = modules[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            owners.append(owner)
        targets.append((owner, attr))
    before = {owner: dict(vars(owner)) for owner in owners}

    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr), (_, _, span, _) in zip(targets, tracer.TARGETS):
            assert vars(owner)[attr] is not before[owner][attr], f"{span} is not patched"
    finally:
        t.uninstall()

    for owner, saved in before.items():
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        for name, value in saved.items():
            assert now[name] is value, f"{owner.__name__}.{name} was not restored"


# The spans each workload's seed-1 jobs never reach (set-up excluded). Most
# are work the workload does not do. These are dark where the work runs,
# since the jobs reach it by routes the tracer does not wrap: dynkin.solve
# (price_swing runs dynkin.solve_stack), pwl.portfolio (the stack folds with
# pwl._portfolio_fold), pwl.control_eval and shortfall.infusion_amount (the
# partial hedge asks PwlControl._at and StackInfusion._amount),
# shortfall.replay (swing.resolve asks ReplayStrategy._stops), and
# market.expect and market.process (no job calls either).
DARK = {
    "price-markov": [
        "dynkin.solve", "hedge.build", "hedge.simulate", "hedge.verify",
        "market.expect", "market.process", "oracle.certify", "pwl.control_eval",
        "pwl.infusion", "pwl.minmax", "pwl.portfolio", "shortfall.infusion_amount",
        "shortfall.replay", "shortfall.simulate", "shortfall.stack",
        "swing.resolve", "swing.strategies",
    ],
    "riskcurve-markov": [
        "dynkin.solve", "hedge.build", "hedge.simulate", "hedge.verify",
        "market.expect", "market.process", "oracle.certify", "pwl.control_eval",
        "pwl.portfolio", "shortfall.infusion_amount", "shortfall.replay",
        "shortfall.simulate", "swing.price", "swing.resolve", "swing.strategies",
    ],
    "hedge-pathdep": [
        "cli.main", "dynkin.solve", "hedge.simulate",
        "market.expect", "market.process", "pwl.control_eval", "pwl.infusion",
        "pwl.minmax", "pwl.portfolio", "shortfall.infusion_amount",
        "shortfall.replay", "shortfall.simulate", "shortfall.stack",
        "swing.resolve",
    ],
    "partial-hedge-query": [
        "cli.main", "contract.build", "contract.load", "dynkin.solve",
        "hedge.build", "hedge.simulate", "hedge.verify", "market.expect",
        "market.process", "market.tree", "oracle.certify", "pwl.control_eval",
        "pwl.infusion", "pwl.minmax", "pwl.portfolio", "shortfall.infusion_amount",
        "shortfall.replay", "shortfall.stack", "swing.price", "swing.strategies",
    ],
}


def test_each_workloads_seed_1_jobs_leave_the_pinned_spans_dark(tmp_path, monkeypatch):
    gen, tracer = load_perfbench("gen"), load_perfbench("tracer")
    # worker.py imports its siblings by name
    for name, module in (("gen", gen), ("pace", load_perfbench("pace")), ("tracer", tracer)):
        monkeypatch.setitem(sys.modules, name, module)
    worker = load_perfbench("worker")
    for name in ("cli", "contract", "hedge", "oracle", "shortfall", "swing"):
        importlib.import_module(f"swinghedge.{name}")
    spans = {span for _, _, span, _ in tracer.TARGETS}
    dark = {}
    for workload, make in worker.WORKLOADS.items():
        work = make(swinghedge, gen.write_inputs(workload, 1, tmp_path / workload))
        work.setup()
        t = tracer.Tracer()
        t.install()
        try:
            outs = [(job, work.run(job)) for job in work.jobs()]
        finally:
            t.uninstall()
        assert all(work.check(job, out) for job, out in outs), workload
        dark[workload] = sorted(spans - {name for name, *_ in t.spans})
    changed = {
        workload: {"went dark": sorted(set(now) - set(DARK[workload])),
                   "came back": sorted(set(DARK[workload]) - set(now))}
        for workload, now in dark.items() if now != DARK[workload]
    }
    assert not changed, changed
