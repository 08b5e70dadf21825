"""The swinghedge benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; nothing is
installed, the package is imported from the checkout's src/. The inputs are
generated from the seed into .perfbench/ (see gen.py), the workload runs in
its own single-threaded Python process (see worker.py), and the last line of
stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. The line before it carries run metadata: machine, Python, git
revision, nproc, a host-drift probe before and after the run, the job
sample counts and the times as measured. Traced runs also write their spans
to .perfbench/.

End-to-end times are reported at a fixed reference pace of the host (see
pace.py): a stretch of t seconds during which the pace probe took `pace`
seconds is reported as t * REF_PACE_S / pace. The probe uses nothing of
swinghedge, so a change to the program moves the reported times as it moves
the measured ones, while the host's own swings in speed, which move the
probe and the job alike, largely cancel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# Set-up is measured in this many processes (the worker plus probes) and the
# median is reported.
SETUP_SAMPLES = 5
# Seconds of one pace probe at the reference pace: about what it takes on the
# 2-vCPU Xeon this benchmark was built on when that host runs at full speed.
REF_PACE_S = 0.0035
# Every process this script starts must end inside the 180 s a run may take;
# the worker's own loop stops starting cycles after --seconds.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# name -> unit; per traced cycle of the seed's jobs, set-up work counted once
PER_LAYER = {
    "contract.load_s": "s/cycle",
    "contract.nodes": "count/cycle",
    "contract.self_s": "s/cycle",
    "market.expect_s": "s/cycle",
    "market.expect_calls": "count/cycle",
    "market.self_s": "s/cycle",
    "dynkin.solve_s": "s/cycle",
    "dynkin.solve_calls": "count/cycle",
    "dynkin.nodes": "count/cycle",
    "dynkin.self_s": "s/cycle",
    "swing.price_s": "s/cycle",
    "swing.strategies_s": "s/cycle",
    "swing.price_den_bits": "bits",
    "swing.self_s": "s/cycle",
    "pwl.portfolio_s": "s/cycle",
    "pwl.portfolio_calls": "count/cycle",
    "pwl.portfolio_grid": "count/cycle",
    "pwl.portfolio_out_bps": "count/cycle",
    "pwl.portfolio_yield": "ratio",
    "pwl.infusion_s": "s/cycle",
    "pwl.infusion_calls": "count/cycle",
    "pwl.minmax_s": "s/cycle",
    "pwl.minmax_calls": "count/cycle",
    "pwl.curve_bps": "count/cycle",
    "pwl.J_bps_max": "count",
    "pwl.curve_den_bits": "bits",
    "pwl.control_eval_s": "s/cycle",
    "pwl.control_eval_calls": "count/cycle",
    "pwl.self_s": "s/cycle",
    "shortfall.stack_s": "s/cycle",
    "shortfall.states": "count/cycle",
    "shortfall.replay_s": "s/cycle",
    "shortfall.replay_calls": "count/cycle",
    "shortfall.infusion_amount_s": "s/cycle",
    "shortfall.simulate_s": "s/cycle",
    "shortfall.simulate_calls": "count/cycle",
    "shortfall.self_s": "s/cycle",
    "hedge.verify_s": "s/cycle",
    "hedge.plays": "count/cycle",
    "hedge.plays_per_s": "1/s",
    "hedge.simulate_s": "s/cycle",
    "hedge.simulate_calls": "count/cycle",
    "hedge.units_calls": "count/cycle",
    "hedge.units_distinct": "count/cycle",
    "hedge.units_reuse": "ratio",
    "hedge.self_s": "s/cycle",
    "oracle.certify_s": "s/cycle",
    "oracle.certify_calls": "count/cycle",
    "oracle.self_s": "s/cycle",
    "cli.self_s": "s/cycle",
    "cli.stdout_bytes": "bytes/cycle",
    "trace.overhead_s": "s/cycle",
    "trace.spans": "count/cycle",
}

# Per-layer metrics that read a self time where the span name alone would
# give the inclusive one.
SELF_TIMED = {"swing.price_s": "swing.price_self_s", "shortfall.stack_s": "shortfall.stack_self_s"}


def drift_probe() -> float:
    """Seconds for a long fixed pure-Fraction loop; compares host speed across runs."""
    return pace.probe(100_000)


def at_reference_pace(seconds: float, pace_s: float) -> float:
    return seconds * REF_PACE_S / pace_s


def git_revision() -> str:
    if shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def worker(args, started):
    """Run worker.py; returns its result object or exits non-zero."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = DEADLINE_S - (time.perf_counter() - started)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        sys.exit(f"worker timed out: {' '.join(args)}")
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"worker exited with {out.returncode}")
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


def per_layer(trace: dict) -> dict:
    t = dict(trace)
    for name, key in SELF_TIMED.items():
        t[name] = t.get(key, 0.0)
    grid, bps = t["pwl.portfolio_grid"], t["pwl.portfolio_out_bps"]
    t["pwl.portfolio_yield"] = bps / grid if grid else 0.0
    t["hedge.plays_per_s"] = t["hedge.plays"] / t["hedge.verify_s"] if t.get("hedge.verify_s") else 0.0
    calls = t["hedge.units_calls"]
    t["hedge.units_reuse"] = t["hedge.units_distinct"] / calls if calls else 0.0
    return {name: {"value": t.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}


def job_medians(times: list, per_cycle: int) -> list:
    """Each job's median time over the run's cycles, in job order."""
    return [statistics.median(times[i::per_cycle]) for i in range(per_cycle)]


def end_to_end(res: dict, setup: list) -> dict:
    """jobs_per_s is one cycle's jobs over the sum of each job's median time;
    job_s_p50 is the median of those medians (a cycle has an odd number of
    jobs, so it is one job's)."""
    times = [at_reference_pace(t, p) for t, p in zip(res["latencies"], res["paces"])]
    medians = job_medians(times, res["jobs_per_cycle"])
    values = {
        "setup_s": statistics.median(
            sum(at_reference_pace(t, p) for t, p in stretches) for stretches in setup
        ),
        "jobs_per_s": len(medians) / sum(medians),
        "job_s_p50": statistics.median(medians),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": 1 - res["failed"] / res["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def measured(res: dict, setup: list) -> dict:
    """The end-to-end times as measured, for the run metadata."""
    medians = job_medians(res["latencies"], res["jobs_per_cycle"])
    return {
        "setup_s": statistics.median(sum(t for t, _ in stretches) for stretches in setup),
        "jobs_per_s": len(medians) / sum(medians),
        "job_s_p50": statistics.median(medians),
        "pace_s_p50": statistics.median(res["paces"]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "swinghedge" / "__init__.py").is_file():
        sys.exit(f"no swinghedge package under {ROOT / 'src'}; run from a full checkout")

    inputs = OUT / "inputs" / f"{args.workload}-{args.seed}"
    if inputs.exists():
        shutil.rmtree(inputs)
    gen.write_inputs(args.workload, args.seed, inputs)

    drift_before = drift_probe()
    common = ["--workload", args.workload, "--inputs", str(inputs)]
    # each set-up's timed stretches, as (seconds, pace)
    setup = [
        worker(common + ["--setup-only"], started)["setup"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    if args.trace:
        run_args += ["--spans", str(spans)]
    res = worker(run_args, started)
    setup.append(res["setup"])
    drift_after = drift_probe()

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client, no concurrency",
        "jobs": len(res["latencies"]),
        "cycles": res["cycles"],
        "jobs_per_cycle": res["jobs_per_cycle"],
        "setup_samples": setup,
        "ref_pace_s": REF_PACE_S,
        "measured": measured(res, setup),
        "drift_probe_s": [drift_before, drift_after],
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_revision(),
    }
    if args.trace:
        meta["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"meta": meta}))
    metrics = per_layer(res["trace"]) if args.trace else end_to_end(res, setup)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
