"""One workload in one single-threaded process: set up, then run jobs.

    python3 perfbench/worker.py --workload W --inputs DIR --seconds S --trace 0|1

A run is whole cycles, one cycle being one job per generated input in job
order, started while the next cycle is expected to end within --seconds (at
least one). The loop is closed with one client: a job starts when the
previous one has finished and been checked. Only the job itself is timed;
each job's output is checked afterwards, and `gc.collect()` runs between
jobs so that each starts from a clean heap, as a fresh command would.

Every job and the set-up are timed by a pace.Pacer, which samples the
host's pace around and inside them; run.py reports each time at a fixed
reference pace. Traced cycles are probed only around each job.

With --trace 1 the cycles alternate untraced and traced (at least one of
each): the traced ones give the per-layer spans and counts, and the
difference between the two gives the tracing overhead.

With --setup-only the process imports the package, does the workload's
one-time set-up, prints its duration and exits.

The last line of stdout is one JSON object for perfbench/run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from gen import CAPITAL_STEPS
from pace import Pacer
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EPS = Fraction(1, 10 ** 6)


def import_package():
    """Import swinghedge from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import swinghedge

    # bind every submodule a job calls as an attribute of the package
    from swinghedge import cli, contract, hedge, oracle, shortfall, swing  # noqa: F401

    if Path(swinghedge.__file__).resolve().parent != src / "swinghedge":
        raise SystemExit(f"swinghedge imported from {swinghedge.__file__}, not {src}")
    return swinghedge


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Jobs of one workload over one cycle of inputs.

    setup() is the one-time program set-up counted in setup_s; run(idx)
    is the timed job; check(idx, out) is the untimed correctness check.
    """

    command = None  # the CLI subcommand, for workloads that run the CLI

    def __init__(self, sh, paths):
        self.sh = sh
        self.paths = paths
        self.stdout_bytes = 0

    def setup(self):
        pass

    def jobs(self):
        return list(range(len(self.paths)))


class CliWorkload(Workload):
    """A CLI subcommand run in-process with stdout captured.

    Its stdout must be byte-identical to the digest recorded for the input
    in reference_digests.json (see record_digests.py); an input without a
    recorded digest fails its check.
    """

    def __init__(self, sh, paths):
        super().__init__(sh, paths)
        digests = json.loads((HERE / "reference_digests.json").read_text())
        self.want = [
            digests.get(f"{self.command}:{sha256(Path(p).read_bytes())}") for p in paths
        ]

    def run(self, idx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.sh.cli.main([self.command, str(self.paths[idx])])
        return code, buf.getvalue().encode()

    def check(self, idx, out):
        code, data = out
        self.stdout_bytes += len(data)
        if code != 0 or sha256(data) != self.want[idx]:
            return False
        return self.check_doc(idx, json.loads(data))

    def check_doc(self, idx, doc):
        return True


class PriceMarkov(CliWorkload):
    command = "price"

    def check_doc(self, idx, doc):
        return doc["price"] == doc["root_values"][-1]


class RiskCurveMarkov(CliWorkload):
    command = "risk-curve"

    def __init__(self, sh, paths):
        super().__init__(sh, paths)
        self.prices = {}

    def check_doc(self, idx, doc):
        if idx not in self.prices:
            contract = self.sh.contract.load_contract(str(self.paths[idx]))
            self.prices[idx] = self.sh.swing.price_swing(contract)[1]
        support_end = Fraction(doc["wire"][-1][0])
        return support_end == self.prices[idx] and doc["wire"][-1][1] == "0"


class HedgePathdep(Workload):
    """Price, certify and verify the perfect hedge of a path-dependent contract."""

    def run(self, idx):
        sh = self.sh
        contract = sh.contract.load_contract(str(self.paths[idx]))
        stack, price = sh.swing.price_swing(contract)
        seller, buyer = sh.swing.optimal_strategies(stack)
        cert = sh.oracle.certify_saddle(contract, seller, buyer)
        portfolio = sh.hedge.build_perfect_hedge(stack)
        at = sh.hedge.verify_perfect_hedge(contract, portfolio, price, seller)
        below = sh.hedge.verify_perfect_hedge(contract, portfolio, price - EPS, seller)
        return price, cert, at, below

    def check(self, idx, out):
        price, cert, at, below = out
        return (
            cert.ok
            and cert.value == price
            and at.ok
            and at.witness is None
            and not below.ok
            and below.witness is not None
            and below.witness.wealth < 0
        )


class PartialHedgeQuery(Workload):
    """Read the optimal partial hedge off a prebuilt risk stack.

    Set-up builds one risk stack per input; a job is one capital
    x = (k / CAPITAL_STEPS) * price on one stack.
    """

    def setup(self):
        sh = self.sh
        self.stacks, self.queries = [], []
        for idx, path in enumerate(self.paths):
            contract = sh.contract.load_contract(str(path))
            _, price = sh.swing.price_swing(contract)
            self.stacks.append(sh.shortfall.build_risk_stack(contract))
            for k in range(CAPITAL_STEPS):
                self.queries.append((idx, price * k / CAPITAL_STEPS))

    def jobs(self):
        return list(range(len(self.queries)))

    def run(self, job):
        sh = self.sh
        idx, x = self.queries[job]
        stack = self.stacks[idx]
        contract = stack.contract
        tree = contract.tree
        gamma, infusion, seller = sh.shortfall.optimal_hedge(stack, x)
        buyer = sh.shortfall.optimal_buyer(stack, x)
        play = sh.swing.resolve(seller, buyer)
        p = tree.params.p
        cost = Fraction(0)
        for path in tree.paths():
            out = sh.shortfall.simulate_with_infusion(
                contract, gamma, infusion, play.events[path], path, x
            )
            cost += tree.path_prob(path, p) * out.cost
        return cost

    def check(self, job, cost):
        idx, x = self.queries[job]
        return cost == self.stacks[idx].risk(x)


WORKLOADS = {
    "price-markov": PriceMarkov,
    "riskcurve-markov": RiskCurveMarkov,
    "hedge-pathdep": HedgePathdep,
    "partial-hedge-query": PartialHedgeQuery,
}
CLI_COMMANDS = {name: cls.command for name, cls in WORKLOADS.items() if cls.command}


def run_cycle(pacer, work, jobs, latencies, paces, tracer=None):
    """One pass over the jobs; returns (attempted, failed)."""
    failed = 0
    for n, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.start_job()
        seconds, pace, out = pacer.run(lambda: work.run(job), inside=tracer is None)
        latencies.append(seconds)
        paces.append(pace)
        if isinstance(out, Exception):  # a failing job is counted, the run goes on
            print(f"job {n} raised:", file=sys.stderr)
            traceback.print_exception(out)
            failed += 1
            continue
        if tracer is not None:
            tracer.uninstall()  # checks are neither timed nor traced
        ok = work.check(job, out)
        if tracer is not None:
            tracer.install()
        if not ok:
            print(f"job {n} failed its check", file=sys.stderr)
            failed += 1
    return len(jobs), failed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    paths = sorted(args.inputs.glob("*.json"))
    if not paths:
        raise SystemExit(f"no inputs in {args.inputs}")

    tracer = None
    pacer = Pacer()
    setup = []  # (seconds, pace) of the import and of the workload's set-up
    seconds, pace, sh = pacer.run(import_package)
    if isinstance(sh, Exception):
        raise sh
    setup.append((seconds, pace))
    work = WORKLOADS[args.workload](sh, paths)
    if args.trace:
        tracer = Tracer()
        tracer.install()
    seconds, pace, out = pacer.run(work.setup, inside=tracer is None)
    if isinstance(out, Exception):
        raise out
    setup.append((seconds, pace))
    if tracer is not None:
        tracer.uninstall()
        tracer.mark_setup()
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    jobs = work.jobs()
    # job seconds of each cycle, untraced and traced
    cycles = {False: [], True: []}
    latencies, paces = [], []  # untraced jobs only
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(cycles[True]) < len(cycles[False])
        if use_trace:
            tracer.install()
        times, cycle_paces = [], []
        a, f = run_cycle(pacer, work, jobs, times, cycle_paces, tracer if use_trace else None)
        if use_trace:
            tracer.uninstall()
        else:
            latencies += times
            paces += cycle_paces
        cycles[use_trace].append(sum(times))
        attempted += a
        failed += f
        elapsed = time.perf_counter() - loop_start
        done = len(cycles[False]) + len(cycles[True])
        if tracer is not None and not cycles[True]:
            continue
        if elapsed + elapsed / done > args.seconds:
            break

    result = {
        "setup": setup,
        "latencies": latencies,
        "paces": paces,
        "cycles": len(cycles[False]),
        "jobs_per_cycle": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        per_cycle = {"cli.stdout_bytes": work.stdout_bytes / done}
        result["trace"] = summarize(tracer, cycles, per_cycle)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def summarize(tracer, cycles, per_cycle):
    """Per-layer metrics per traced cycle, plus the set-up's share once."""
    traced, plain = cycles[True], cycles[False]
    out = tracer.reduce(len(traced))
    out.update(per_cycle)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in out.items() if k.startswith(layer + ".") and k.endswith("_self_s")
        )
    out["trace.overhead_s"] = sum(traced) / len(traced) - sum(plain) / len(plain)
    return out


if __name__ == "__main__":
    sys.exit(main())
