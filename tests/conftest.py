"""Shared generators for randomized tests.

Random instances are drawn from seeded random.Random objects so every run
sees the same cases; hypothesis handles the shrinking-style properties and
these helpers handle the structured ones (contracts, policies) that are
awkward to express as composite strategies.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from swinghedge.contract import build_contract
from swinghedge.market import MarketParams, ScenarioTree, build_tree
from swinghedge.oracle import DictStrategy
from swinghedge.swing import StoppingStrategy, window_start

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def no_full_tree(monkeypatch):
    """Fail any test that builds a full binary tree."""
    init = ScenarioTree.__init__

    def lattice_only(self, params, recombining=False):
        if not recombining:
            raise AssertionError("a full tree was built")
        init(self, params, recombining)

    monkeypatch.setattr(ScenarioTree, "__init__", lattice_only)


def random_params(rng: random.Random, max_n=3, n=None) -> MarketParams:
    den = rng.randint(2, 5)
    a = Fraction(-rng.randint(1, den - 1), den)
    b = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    pden = rng.randint(2, 6)
    p = Fraction(rng.randint(1, pden - 1), pden)
    s0 = Fraction(rng.randint(1, 6), rng.randint(1, 2))
    return MarketParams(S0=s0, a=a, b=b, p=p,
                        N=n if n is not None else rng.randint(1, max_n))


def random_claim(rng: random.Random, params: MarketParams) -> dict:
    kind = rng.choice(["call", "call", "put"])
    strike = params.S0 * Fraction(rng.randint(1, 8), 4)
    pen = rng.choice(["constant", "constant", "proportional", "infinite-proxy"])
    if pen == "constant":
        penalty = {"kind": "constant", "value": Fraction(rng.randint(0, 6), 4)}
    elif pen == "proportional":
        penalty = {"kind": "proportional", "factor": Fraction(rng.randint(0, 8), 8)}
    else:
        penalty = {"kind": "infinite-proxy"}
    return {"exercise": {"kind": kind, "strike": strike}, "penalty": penalty}


def random_contract(rng: random.Random, max_n=3, max_l=2, n=None, l=None, recombining=False):
    """A random contract; its legs are all Markov, so it may live on the lattice."""
    params = random_params(rng, max_n=max_n, n=n)
    L = l if l is not None else rng.randint(1, max_l)
    return build_contract(
        {"claims": [random_claim(rng, params) for _ in range(L)]},
        tree=build_tree(params, recombining),
    )


def random_path_dependent_contract(rng: random.Random, n, l):
    """A random full-tree contract of horizon n whose l legs are lookback-call
    and Asian-put tables (the running maximum over a strike, a strike over
    the running average) with constant penalties."""
    params = random_params(rng, n=n)
    tree = build_tree(params)
    prices = [[tree.stock.at(k, m) for m in range(2 ** k)] for k in range(params.N + 1)]
    claims = []
    for _ in range(l):
        lookback = rng.random() < 0.5
        strike = params.S0 * Fraction(rng.randint(2, 6), 4)
        values = []
        for k in range(params.N + 1):
            row = []
            for m in range(2 ** k):
                path = [prices[j][m >> (k - j)] for j in range(k + 1)]
                v = max(path) - strike if lookback else strike - sum(path) / (k + 1)
                row.append(str(max(v, Fraction(0))))
            values.append(row)
        penalty = str(Fraction(rng.randint(0, 6), 4))
        claims.append({"exercise": {"kind": "table", "values": values},
                       "penalty": {"kind": "constant", "value": penalty}})
    return build_contract({"claims": claims}, tree=tree)


def reachable_histories(N, L):
    """Every settlement history some claim 1..L can see, by claim."""
    out = {1: [()]}
    for i in range(2, L + 1):
        out[i] = [
            hist + ((k, d),)
            for hist in out[i - 1]
            for k in range(window_start(hist, N), N + 1)
            for d in ((0, 1) if k < N else (0,))
        ]
    return out


def _history_dependent(rng, tree, L, rate):
    decisions = {
        (i, k, m, hist): rng.random() < rate
        for i, hists in reachable_histories(tree.N, L).items()
        for hist in hists
        for k in range(window_start(hist, tree.N), tree.N)
        for m in range(2 ** k)
    }
    return DictStrategy(tree, L, decisions)


def history_dependent_seller(rng, tree, L):
    """Random cancellations that depend on the settlement history."""
    return _history_dependent(rng, tree, L, 0.3)


def history_dependent_buyer(rng, tree, L):
    """Random early exercises that depend on the settlement history."""
    return _history_dependent(rng, tree, L, 0.2)


class Recording(StoppingStrategy):
    """Answers as `inner` does and logs every question."""

    def __init__(self, inner):
        super().__init__(inner.tree, inner.L)
        self.inner = inner
        self.log = []

    def stops(self, i, k, m, history):
        self.log.append((i, k, m, history))
        return self.inner.stops(i, k, m, history)


def random_point(rng: random.Random, lo, hi) -> Fraction:
    """A rational drawn from [lo, hi] on a fairly fine grid."""
    den = rng.randint(1, 24)
    return lo + (hi - lo) * Fraction(rng.randint(0, den), den)


class MixPortfolio:
    """Admissible but otherwise arbitrary trading rule.

    At wealth y the solvency-preserving share counts form the interval
    [-y/(S b), -y/(S a)]; a per-state deterministic mix picks a point inside
    and scales linearly with wealth, so solvency is kept automatically.
    """

    def __init__(self, tree, seed: int):
        self.tree = tree
        self.seed = seed

    def _mix(self, level, node, claim) -> Fraction:
        h = (self.seed * 2654435761 + level * 97 + node * 31 + claim * 7) % 11
        return Fraction(h, 10)

    def units(self, level, node, claim, wealth):
        if level >= self.tree.N:
            return Fraction(0)
        w = Fraction(wealth)
        if w <= 0:
            return Fraction(0)
        s = self.tree.stock.at(level, node)
        a, b = self.tree.params.a, self.tree.params.b
        lo, hi = -w / (s * b), -w / (s * a)
        return lo + self._mix(level, node, claim) * (hi - lo)


class PaddedInfusion:
    """Admissible injection rule: the forced floor plus a per-state pad."""

    def __init__(self, tree, seed: int):
        self.tree = tree
        self.seed = seed

    def amount(self, level, node, claim, y):
        floor = max(-Fraction(y), Fraction(0))
        if level >= self.tree.N:
            return floor
        h = (self.seed * 40503 + level * 13 + node * 29 + claim * 5) % 5
        return floor + Fraction(h, 8)


def random_policy(rng: random.Random, tree):
    seed = rng.randrange(2 ** 30)
    return MixPortfolio(tree, seed), PaddedInfusion(tree, seed ^ 0x5A5A)
