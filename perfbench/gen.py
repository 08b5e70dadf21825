"""Seeded input generator for the four benchmark workloads.

Every workload runs a fixed list of job shapes (horizon N, rights L). The
structure of each contract (market returns, exercise kinds, moneyness,
penalty kinds and sizes relative to S0) is drawn once per workload from
small fixed sets with fixed denominators, by a generator seeded with the
workload's name. The run's seed draws the money scale S0, an integer, and
every strike, penalty and table value scales with it. Scaling all money by
a constant scales every value, breakpoint and control of the recursions by
the same constant and leaves all stopping decisions unchanged, so each seed
costs about what another does (integer scales add no denominators), while
every number the program reads and prints differs from seed to seed. When
the seed also drew the structure, the cost of one risk-curve job moved by up
to 3.6 times and that of a whole cycle by 1.5 times between seeds. The
program sees only the contract files written here.

Nothing here imports swinghedge: the generator must run even where the
program is broken or missing.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("price-markov", "riskcurve-markov", "hedge-pathdep", "partial-hedge-query")

# The only (N, L) shapes each workload ever emits; one cycle of a run is one
# contract of each shape, in this order. A run is whole cycles, so an odd
# number of jobs per cycle puts the median job inside one job type instead
# of halfway across the cost gap between two.
SHAPES = {
    "price-markov": ((12, 2), (13, 2), (11, 3), (12, 3), (13, 3)),
    "riskcurve-markov": ((4, 2), (5, 2), (6, 2), (4, 3), (5, 3)),
    "hedge-pathdep": ((8, 3), (9, 3), (8, 3)),
    "partial-hedge-query": ((5, 2), (5, 2), (5, 2)),
}

# Hard ceilings: nothing above these is ever written, so no run can ask for
# a 2^N tree beyond N = 13.
MAX_N = 13
MAX_L = 3

# Capitals queried per partial-hedge contract: x = (k / CAPITAL_STEPS) * price.
CAPITAL_STEPS = 5

_A = ("-1/3", "-1/4", "-1/5")
_B = ("1/2", "1/3")
SCALES = range(1, 13)
_MONEYNESS = ("4/5", "9/10", "1", "11/10", "6/5")
_CONSTANT = ("1/20", "1/10", "1/5")
_FACTOR = ("1/10", "1/4", "1/2")
_PATH_PENALTY = ("1/10", "1/5", "3/10")


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _model(rng, N, scale, p=None):
    return {
        "S0": str(scale),
        "a": rng.choice(_A),
        "b": rng.choice(_B),
        "p": p if p is not None else rng.choice(("1/2", "2/5", "3/5")),
        "N": N,
    }


def _markov_claim(rng, s0, penalty_kind):
    strike = Fraction(s0) * Fraction(rng.choice(_MONEYNESS))
    exercise = {"kind": rng.choice(("call", "put")), "strike": _q(strike)}
    if penalty_kind == "constant":
        penalty = {"kind": "constant", "value": _q(Fraction(s0) * Fraction(rng.choice(_CONSTANT)))}
    elif penalty_kind == "proportional":
        penalty = {"kind": "proportional", "factor": rng.choice(_FACTOR)}
    else:
        penalty = {"kind": "infinite-proxy"}
    return {"exercise": exercise, "penalty": penalty}


def _markov_contract(rng, N, L, scale, p=None):
    model = _model(rng, N, scale, p)
    kinds = ["constant", "proportional", "infinite-proxy"]
    rng.shuffle(kinds)
    claims = [_markov_claim(rng, model["S0"], kinds[i % 3]) for i in range(L)]
    return {"model": model, "claims": claims}


def _path_prices(model):
    """Stock price rows of the full tree, node m's children at 2m and 2m+1."""
    up = 1 + Fraction(model["b"])
    down = 1 + Fraction(model["a"])
    rows = [[Fraction(model["S0"])]]
    for _ in range(model["N"]):
        rows.append([s * f for s in rows[-1] for f in (down, up)])
    return rows


def _path_table(model, leg, strike):
    """Per-node payoff of a path-dependent leg, row k holding 2^k entries."""
    rows = _path_prices(model)
    out = []
    for k, row in enumerate(rows):
        vals = []
        for m in range(len(row)):
            path = [rows[j][m >> (k - j)] for j in range(k + 1)]
            if leg == "lookback-call":
                v = max(max(path) - strike, Fraction(0))
            else:  # asian-put
                v = max(strike - sum(path) / len(path), Fraction(0))
            vals.append(_q(v))
        out.append(vals)
    return out


def _pathdep_contract(rng, N, L, scale):
    model = _model(rng, N, scale)
    s0 = Fraction(model["S0"])
    legs = ["lookback-call", "asian-put"] * L
    rng.shuffle(legs)
    claims = []
    for leg in legs[:L]:
        strike = s0 * Fraction(rng.choice(_MONEYNESS))
        claims.append({
            "exercise": {"kind": "table", "values": _path_table(model, leg, strike)},
            "penalty": {"kind": "constant", "value": _q(s0 * Fraction(rng.choice(_PATH_PENALTY)))},
        })
    return {"model": model, "claims": claims}


def scale_of(workload: str, seed: int) -> int:
    """The money scale S0 the seed draws."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    return random.Random(f"{workload}:{seed}").choice(SCALES)


def contracts(workload: str, scale: int) -> list:
    """The contract specs of one cycle at one money scale, in job order."""
    rng = random.Random(f"{workload}:design")
    specs = []
    for N, L in SHAPES[workload]:
        if workload == "price-markov":
            specs.append(_markov_contract(rng, N, L, scale))
        elif workload == "riskcurve-markov":
            # p != ptilde for every (a, b) drawn, so the market and
            # martingale measures differ and the risk curve is non-trivial
            specs.append(_markov_contract(rng, N, L, scale, p="3/5"))
        else:
            specs.append(_pathdep_contract(rng, N, L, scale))
    for spec in specs:
        N, L = spec["model"]["N"], len(spec["claims"])
        if not (1 <= N <= MAX_N and 1 <= L <= MAX_L):
            raise ValueError(f"generated shape N={N}, L={L} is over the ceiling")
    return specs


def generate(workload: str, seed: int) -> list:
    """The contract specs of one cycle for one seed, in job order."""
    return contracts(workload, scale_of(workload, seed))


def encode(spec: dict) -> bytes:
    return (json.dumps(spec, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_inputs(workload: str, seed: int, out_dir: Path) -> list:
    """Write one cycle's contract files; returns their paths in job order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx, spec in enumerate(generate(workload, seed)):
        path = out_dir / f"{idx:02d}.json"
        path.write_bytes(encode(spec))
        paths.append(path)
    return paths
