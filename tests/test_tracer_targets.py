"""The benchmark's tracer against the package's names.

perfbench/tracer.py wraps the package's entry points by module and
attribute name. A target that is renamed or deleted would otherwise fail
only in the benchmark's own traced self-test. This installs the tracer in
process and uninstalls it again; it reads perfbench/ and writes nothing
there (the tracer is compiled from its source, so no bytecode is cached).
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_the_tracer_patches_every_target_and_restores_each_one():
    tracer = load_tracer()
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
