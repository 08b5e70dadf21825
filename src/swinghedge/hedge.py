"""Perfect hedging of the whole claim stack from the game price.

The seller who collects the root value of the stack can trade the stock so
that, whatever the buyer does and however the seller's own cancellations play
out, the portfolio covers every payment and never goes negative. The share
count over one period targets the two possible next-period continuation
values of the relevant stack level:

    units = (v_up - v_down) / (price * (b - a))

which moves the wealth exactly onto v_up / v_down whenever current wealth is
at least the one-step expectation of those targets. The verifier checks the
covering property the hard way, by enumerating every play the buyer can
force against the seller's committed cancellation behaviour, path by path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ContractError
from .swing import (
    ClaimEvent,
    StoppingStrategy,
    ValueStack,
    optimal_strategies,
    price_swing,
    window_start,
)


def hedge_ratio(v_up, v_down, price, a, b) -> Fraction:
    """Shares that turn wealth w into w + (v_up - v_down)*(move indicator)."""
    return (Fraction(v_up) - Fraction(v_down)) / (Fraction(price) * (Fraction(b) - Fraction(a)))


class PortfolioStrategy:
    """Share counts per period. `claim` is the next right still alive."""

    def units(self, level: int, node: int, claim: int, wealth: Fraction) -> Fraction:
        raise NotImplementedError


class PerfectHedge(PortfolioStrategy):
    """Replicating share counts read off a value stack."""

    def __init__(self, stack: ValueStack):
        self.stack = stack
        self.tree = stack.contract.tree

    @property
    def initial_capital(self) -> Fraction:
        return self.stack.price()

    def units(self, level, node, claim, wealth):
        L = self.stack.contract.L
        if claim > L:
            return Fraction(0)
        tree = self.tree
        if level >= tree.N:
            return Fraction(0)
        Vk = self.stack.V[L - claim]  # stack level L - claim + 1
        vu, vd = Vk.at(level + 1, 2 * node + 1), Vk.at(level + 1, 2 * node)
        # underfunded wealth cannot reach both targets; stay in cash rather
        # than gamble (only reachable when starting below the exact price)
        if wealth < tree.ptilde * vu + (1 - tree.ptilde) * vd:
            return Fraction(0)
        s = tree.price[level][node]
        return hedge_ratio(vu, vd, s, tree.params.a, tree.params.b)


def build_perfect_hedge(stack: ValueStack) -> PerfectHedge:
    return PerfectHedge(stack)


def simulate_portfolio(contract, portfolio: PortfolioStrategy, x, events, path: int):
    """Wealth along one path, given the settled claims on that path.

    events: the ClaimEvent sequence of the path (claim order). Returns
    (pre, post): pre[k] is wealth at level k before that level's payments,
    post[k] after them. No injections here; payments just subtract.
    """
    tree = contract.tree
    N = tree.N
    by_level = {}
    for i, ev in enumerate(events, start=1):
        by_level.setdefault(ev.level, []).append((i, ev))
    pre, post = [], []
    w = Fraction(x)
    settled = 0  # claims settled before level k
    for k in range(N + 1):
        node = tree.node_on_path(path, k)
        if k > 0:
            prev = tree.node_on_path(path, k - 1)
            units = Fraction(0)
            if settled < contract.L:
                units = portfolio.units(k - 1, prev, settled + 1, w)
            w = w + units * (tree.price[k][node] - tree.price[k - 1][prev])
        pre.append(w)
        here = by_level.get(k, [])
        for i, ev in here:
            leg = contract.Y(i) if ev.d == 0 else contract.X(i)
            w -= leg.at(k, node)
        settled += len(here)
        post.append(w)
    return pre, post


def enumerate_plays(contract, seller: StoppingStrategy, path: int):
    """Every event sequence some buyer can force on this path.

    The seller's cancellation behaviour is fixed; the buyer chooses, right by
    right, an exercise level inside the current window or waits the seller
    (or maturity) out. Each right contributes at most N + 2 outcomes, so the
    enumeration is tiny even where the full strategy space is astronomical.
    """
    tree = contract.tree
    N = tree.N
    L = contract.L

    def options(i, hist):
        if i > L:
            yield ()
            return
        theta = window_start(hist, N)
        fire = N
        for k in range(theta, N + 1):
            m = tree.node_on_path(path, k)
            if k == N or seller.stops(i, k, m, hist):
                fire = k
                break
        outcomes = [(lvl, 0) for lvl in range(theta, fire + 1)]
        if fire < N:
            outcomes.append((fire, 1))
        for lvl, d in outcomes:
            ev = ClaimEvent(
                level=lvl,
                d=d,
                seller_stopped=(lvl == fire),
                buyer_stopped=(d == 0),
            )
            for rest in options(i + 1, hist + ((lvl, d),)):
                yield (ev,) + rest

    return options(1, ())


@dataclass
class HedgeWitness:
    path: int
    bits: str
    level: int
    wealth: Fraction
    events: tuple


@dataclass
class HedgeCheck:
    ok: bool
    plays: int
    witness: Optional[HedgeWitness] = None


def verify_perfect_hedge(contract, portfolio: PortfolioStrategy, x, seller=None) -> HedgeCheck:
    """Does capital x with this portfolio cover every possible play?

    Wealth must stay nonnegative after every payment on every path under
    every buyer behaviour, with the seller cancelling per `seller` (the
    stack's optimal one when omitted). Returns the first failure as a
    witness; soundness is per-play arithmetic, completeness holds because
    every buyer strategy induces one of the enumerated plays on each path.
    """
    if seller is None:
        stack, _ = price_swing(contract)
        seller, _ = optimal_strategies(stack)
    x = Fraction(x)
    if x < 0:
        raise ContractError(f"initial capital must be nonnegative, got {x}")
    tree = contract.tree
    count = 0
    for path in tree.paths():
        for events in enumerate_plays(contract, seller, path):
            count += 1
            _, post = simulate_portfolio(contract, portfolio, x, events, path)
            for k, w in enumerate(post):
                if w < 0:
                    return HedgeCheck(
                        ok=False,
                        plays=count,
                        witness=HedgeWitness(
                            path=path,
                            bits=tree.path_bits(path),
                            level=k,
                            wealth=w,
                            events=events,
                        ),
                    )
    return HedgeCheck(ok=True, plays=count)
