"""Self-tests of the benchmark, kept out of the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py

The traced-count test runs every workload traced twice and takes a few
minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Units of metrics that are counted, not timed; they must repeat exactly.
COUNT_UNITS = ("count", "count/cycle", "bits", "bytes/cycle")
COUNT_RATIOS = ("pwl.portfolio_yield", "hedge.units_reuse")


def bench(workload, seed, seconds, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = gen.write_inputs(workload, 7, tmp_path / "a")
    b = gen.write_inputs(workload, 7, tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert len(a) == len(gen.SHAPES[workload])


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert listed == run.END_TO_END
    listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert listed == run.PER_LAYER
    names = [w["name"] for w in manifest["workloads"]]
    assert names == list(gen.WORKLOADS)
    for name in names + list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name


def test_generator_stays_within_the_size_ceilings():
    for workload in gen.WORKLOADS:
        for N, L in gen.SHAPES[workload]:
            assert N <= gen.MAX_N and L <= gen.MAX_L
        for seed in range(200):
            for spec in gen.generate(workload, seed):
                N = spec["model"]["N"]
                assert 1 <= N <= 13
                assert 1 <= len(spec["claims"]) <= 3
                for claim in spec["claims"]:
                    values = claim["exercise"].get("values")
                    if values is not None:
                        assert len(values) == N + 1


def test_every_cli_input_has_a_reference_digest():
    digests = json.loads((HERE / "reference_digests.json").read_text())
    from worker import CLI_COMMANDS, sha256

    for workload, command in CLI_COMMANDS.items():
        for scale in gen.SCALES:
            for spec in gen.contracts(workload, scale):
                assert f"{command}:{sha256(gen.encode(spec))}" in digests


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("price-markov", 1, 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        out = bench(workload, 3, 1, 1)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
        runs.append({
            name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or name in COUNT_RATIOS
        })
    assert runs[0] == runs[1]
    assert any(runs[0].values())
