"""The shortfall layer's pair route against its Fraction route.

The risk stack's policies answer share counts, injections and stop tests on
integer wealth pairs, and simulate_with_infusion, ReplayStrategy's wealth
replay and _policy_risk carry wealth as pairs; a policy of any other class is
asked through its Fraction interface. ReferencePortfolio, ReferenceInfusion,
ReferenceReplay and reference_simulate_with_infusion are the Fraction
versions of the stack's policies and of the simulator, kept here as they
were apart from their names; reference_trade and reference_settle write the
one wealth step out in Fractions. ReferencePerfectHedge keeps the perfect
hedge's Fraction share count the same way. Being of other classes, the
reference policies drive every loop down the Fraction route, and every
result of the two routes must be ==.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    MixPortfolio,
    PaddedInfusion,
    history_dependent_buyer,
    history_dependent_seller,
    random_contract,
    reachable_histories,
)
from swinghedge.errors import InvariantError
from swinghedge.hedge import (
    PerfectHedge,
    PortfolioStrategy,
    build_perfect_hedge,
    check_capital,
    simulate_portfolio,
    verify_perfect_hedge,
)
from swinghedge.pwl import PwlControl, PwlFn
from swinghedge.shortfall import (
    ReplayStrategy,
    SimulationOutcome,
    StackInfusion,
    StackPortfolio,
    build_risk_stack,
    evaluate_policy_risk,
    evaluate_risk,
    simulate_with_infusion,
)
from swinghedge.swing import (
    StoppingStrategy,
    TableStrategy,
    optimal_strategies,
    price_swing,
    resolve,
    window_start,
)

F = Fraction
EPS = F(1, 10 ** 6)


class ReferencePortfolio(PortfolioStrategy):
    """Optimal share counts: the stored portfolio control over the price."""

    def __init__(self, stack):
        self.stack = stack
        self.tree = stack.contract.tree

    def units(self, level, node, claim, wealth):
        L = self.stack.contract.L
        if claim > L or level >= self.tree.N:
            return Fraction(0)
        j = L - claim + 1
        ctrl = self.stack.phi_ctrl[self.stack.key(level, node, j)]
        alpha = ctrl.eval(max(Fraction(wealth), Fraction(0)))
        return alpha / self.tree.stock.at(level, node)


class ReferencePerfectHedge(PerfectHedge):
    """Replicating share counts read off a value stack, in Fractions. It
    overrides units only, so the hedge walk asks it through units."""

    def units(self, level, node, claim, wealth):
        L = self.stack.contract.L
        if claim > L:
            return Fraction(0)
        tree = self.tree
        if level >= tree.N:
            return Fraction(0)
        Vk = self.stack.V[L - claim]  # stack level L - claim + 1
        row, den = Vk.nums[level + 1], Vk.dens[level + 1]
        vu = row[tree.state(level + 1, 2 * node + 1)]
        vd = row[tree.state(level + 1, 2 * node)]
        # underfunded wealth cannot reach both targets; stay in cash rather
        # than gamble (only reachable when starting below the exact price).
        # The targets' expectation is (u*vu + (v-u)*vd) / (v*den).
        u, v = tree.ptilde.numerator, tree.ptilde.denominator
        if wealth.numerator * v * den < (u * vu + (v - u) * vd) * wealth.denominator:
            return Fraction(0)
        stock = tree.stock
        s = stock.nums[level][tree.state(level, node)]
        spread = self._spread
        return Fraction(
            (vu - vd) * stock.dens[level] * spread.denominator,
            den * s * spread.numerator,
        )


class ReferenceInfusion:
    """Optimal injections. amount(level, node, claim, y) with y the wealth
    left after claim's settlement amount was charged (possibly negative)."""

    def __init__(self, stack):
        self.stack = stack
        self.contract = stack.contract

    def amount(self, level, node, claim, y):
        y = Fraction(y)
        N = self.contract.tree.N
        if level == N:
            due = self.contract.terminal_bundle(claim + 1, node)
            return max(due - y, Fraction(0))
        j_left = self.contract.L - claim
        table = self.stack.minimizer(self.stack.key(level, node, j_left))
        return table.eval(max(y, Fraction(0))) - y


def reference_trade(contract, k, node, w, units):
    """Wealth w at the parent of (k, node), held as `units` shares into level k."""
    stock = contract.tree.stock
    out = w + units * (stock.at(k, node) - stock.at(k - 1, node >> 1))
    if out < 0:
        raise InvariantError(f"share count {units} at level {k - 1} can bankrupt wealth {w}")
    return out


def reference_settle(contract, infusion, k, node, w, claim, d):
    """(injection, wealth after it) when claim settles at (k, node) from
    wealth w; d = 1 pays the cancellation leg."""
    leg = contract.X(claim) if d else contract.Y(claim)
    rest = w - leg.at(k, node)
    z = Fraction(infusion.amount(k, node, claim, rest))
    if z < 0 or rest + z < 0:
        raise InvariantError(
            f"injection {z} at level {k} leaves wealth {rest + z}; "
            "policies must keep wealth nonnegative"
        )
    return z, rest + z


class ReferenceReplay(StoppingStrategy):
    """Stopping behaviour of the optimal partial hedge, on Fraction wealth."""

    def __init__(self, stack, x, gamma, infusion, side):
        contract = stack.contract
        super().__init__(contract.tree, contract.L)
        self.stack = stack
        self.contract = contract
        self.x = check_capital(x)
        self.gamma = gamma
        self.infusion = infusion
        self.side = side
        self._wealth_at = {(0, 0, ()): self.x}
        self._stops = {}

    def stops_at_state(self, k, m, j, wealth):
        w = max(Fraction(wealth), Fraction(0))
        branch = self.stack.cancel if self.side == "seller" else self.stack.exercise
        key = self.stack.key(k, m, j)
        return branch[key].eval(w) == self.stack.J[key].eval(w)

    def _wealth(self, k, m, history):
        memo = self._wealth_at
        key = (k, m, tuple(e for e in history if e[0] < k))
        missing = []
        while key not in memo:
            missing.append(key)
            k, m, hist = key
            key = (k - 1, m >> 1, tuple(e for e in hist if e[0] < k - 1))
        w = memo[key]
        for k, m, hist in reversed(missing):
            lvl, node = k - 1, m >> 1
            if hist and hist[-1][0] == lvl:
                _, w = reference_settle(self.contract, self.infusion, lvl, node, w, len(hist), hist[-1][1])
            if len(hist) < self.L:
                units = self.gamma.units(lvl, node, len(hist) + 1, w)
                w = reference_trade(self.contract, k, m, w, units)
            memo[(k, m, hist)] = w
        return w

    def stops(self, i, k, m, history):
        if k >= self.tree.N:
            return True
        key = (i, k, m, tuple(history))
        answer = self._stops.get(key)
        if answer is None:
            wealth = self._wealth(k, m, history)
            answer = self._stops[key] = self.stops_at_state(k, m, self.L - i + 1, wealth)
        return answer


def reference_simulate_with_infusion(contract, gamma, infusion, events, path, x):
    """Run a partial hedge through one resolved play on one path."""
    w = check_capital(x)
    tree = contract.tree
    by_level = {}
    for i, ev in enumerate(events, start=1):
        by_level.setdefault(ev.level, []).append((i, ev.d))
    pre, post, paid_in = [], [], []
    cost = Fraction(0)
    settled = 0
    for k in range(tree.N + 1):
        node = tree.node_on_path(path, k)
        if k > 0 and settled < contract.L:
            w = reference_trade(contract, k, node, w, gamma.units(k - 1, node >> 1, settled + 1, w))
        pre.append(w)
        here = by_level.get(k, ())
        for i, d in here:
            z, w = reference_settle(contract, infusion, k, node, w, i, d)
            cost += z
            paid_in.append((k, i, z))
        settled += len(here)
        post.append(w)
    return SimulationOutcome(pre=pre, post=post, infusions=paid_in, cost=cost)


# ---- the differential checks -----------------------------------------------

# (seed, recombining): random contracts with N <= 5 and L <= 3, here
# (N, L) = (5, 3), (4, 3), (4, 1), (2, 2) and (2, 3), each with a positive price
CASES = [(seed, lattice) for seed in (1, 2, 3, 4, 7) for lattice in (False, True)]


def capitals(price):
    return sorted({x for x in (F(0), price / 2, price - EPS, price) if x >= 0})


def policy_pairs(stack, seed):
    """(pair-route policies, Fraction-route policies): the stack's own, a
    random pair, and each mix of the two."""
    tree = stack.contract.tree
    mix, padded = MixPortfolio(tree, seed), PaddedInfusion(tree, seed ^ 0x5A5A)
    own = StackPortfolio(stack), StackInfusion(stack)
    ref = ReferencePortfolio(stack), ReferenceInfusion(stack)
    return [
        (own, ref),
        ((mix, padded), (mix, padded)),
        ((mix, own[1]), (mix, ref[1])),
        ((own[0], padded), (ref[0], padded)),
    ]


def wealth_probes(*fns):
    """Both signs of every knot of fns, the points between knots, and past the end."""
    xs = sorted({F(0)}.union(*({x for x, _ in fn.points} for fn in fns)))
    out = list(xs) + [-x for x in xs[1:]] + [xs[-1] + 1]
    out += [(lo + hi) / 2 for lo, hi in zip(xs, xs[1:])]
    return out


def assert_stop_answers_match(pair, ref, tree, L):
    for i, hists in reachable_histories(tree.N, L).items():
        for hist in hists:
            for k in range(window_start(hist, tree.N), tree.N + 1):
                for m in range(2 ** k):
                    assert pair.stops(i, k, m, hist) == ref.stops(i, k, m, hist)


def assert_policy_answers_match(stack):
    """The stack's policies against the references at every wealth probe."""
    c = stack.contract
    tree, L = c.tree, c.L
    gamma, infusion = StackPortfolio(stack), StackInfusion(stack)
    ref_gamma, ref_infusion = ReferencePortfolio(stack), ReferenceInfusion(stack)
    sides = [(ReplayStrategy(stack, 0, gamma, infusion, side),
              ReferenceReplay(stack, 0, gamma, infusion, side)) for side in ("seller", "buyer")]
    for k in range(tree.N + 1):
        for m in range(2 ** k):
            for j in range(1, L + 1):
                key = stack.key(k, m, j)
                claim = L - j + 1
                fns = [stack.J[key]]
                if k < tree.N:
                    fns += [stack.phi[key], stack.cancel[key], stack.exercise[key]]
                for y in wealth_probes(*fns):
                    assert gamma.units(k, m, claim, y) == ref_gamma.units(k, m, claim, y)
                    assert infusion.amount(k, m, claim, y) == ref_infusion.amount(k, m, claim, y)
                    if k < tree.N:
                        for pair, ref in sides:
                            assert pair.stops_at_state(k, m, j, y) == ref.stops_at_state(k, m, j, y)


@pytest.fixture
def reduced_asks(monkeypatch):
    """Fail when a function or control is asked on a pair that is not
    reduced: a control finds its knots by tuple equality."""
    for cls in (PwlFn, PwlControl):
        def checked(self, y, _at=cls._at):
            assert y[1] > 0 and gcd(*y) == 1, y
            return _at(self, y)
        monkeypatch.setattr(cls, "_at", checked)


@pytest.mark.parametrize("seed, lattice", CASES)
def test_pair_route_equals_the_fraction_route(seed, lattice, reduced_asks):
    rng = random.Random(1000 + seed)
    c = random_contract(rng, max_n=5, max_l=3, recombining=lattice)
    stack = build_risk_stack(c)
    _, price = price_swing(c)
    assert_policy_answers_match(stack)
    tree = c.tree
    # a committed seller meets every buyer only where the buyers are few
    few_buyers = tree.N <= 2 or (tree.N == 3 and c.L == 1)
    for x in capitals(price):
        for (gamma, infusion), (ref_gamma, ref_infusion) in policy_pairs(stack, seed):
            seller = ReplayStrategy(stack, x, gamma, infusion, "seller")
            buyer = ReplayStrategy(stack, x, gamma, infusion, "buyer")
            ref_seller = ReferenceReplay(stack, x, ref_gamma, ref_infusion, "seller")
            ref_buyer = ReferenceReplay(stack, x, ref_gamma, ref_infusion, "buyer")
            assert_stop_answers_match(seller, ref_seller, tree, c.L)
            assert_stop_answers_match(buyer, ref_buyer, tree, c.L)
            play = resolve(seller, buyer)
            assert play.events == resolve(ref_seller, ref_buyer).events
            other = resolve(seller, history_dependent_buyer(rng, tree, c.L))
            for events in (play.events, other.events):
                for path in tree.paths():
                    out = simulate_with_infusion(c, gamma, infusion, events[path], path, x)
                    want = reference_simulate_with_infusion(
                        c, ref_gamma, ref_infusion, events[path], path, x
                    )
                    assert out == want and want == out
                    read = out.pre + out.post + [z for _, _, z in out.infusions] + [out.cost]
                    assert all(type(v) is Fraction for v in read)
            assert evaluate_policy_risk(c, gamma, infusion, x) == \
                evaluate_policy_risk(c, ref_gamma, ref_infusion, x)
            modes = ("recursion", "enumeration") if few_buyers else ("recursion",)
            for mode in modes:
                assert evaluate_risk(c, gamma, infusion, seller, x, mode=mode) == \
                    evaluate_risk(c, ref_gamma, ref_infusion, ref_seller, x, mode=mode)


def test_refusals_read_the_same_on_both_routes():
    rng = random.Random(7)
    c = random_contract(rng, n=3, l=2)
    stack = build_risk_stack(c)
    tree = c.tree

    class Gamble:
        def units(self, level, node, claim, wealth):
            return F(100) if level == 1 else F(0)

    class Thief:
        def amount(self, level, node, claim, y):
            return F(-1, 3) if level >= 2 else max(-Fraction(y), F(0))

    # every right settles as its window opens (levels 0, 1), or all at maturity
    plays = [resolve(rule(tree, c.L), rule(tree, c.L)).events
             for rule in (TableStrategy.all_at_start, TableStrategy.all_wait)]
    refused = 0
    for gamma, infusion, ref_gamma, ref_infusion in [
        (Gamble(), StackInfusion(stack), Gamble(), ReferenceInfusion(stack)),
        (StackPortfolio(stack), Thief(), ReferencePortfolio(stack), Thief()),
    ]:
        for events in plays:
            for path in tree.paths():
                for x in (F(0), F(1, 2), F(3)):
                    try:
                        want = reference_simulate_with_infusion(c, ref_gamma, ref_infusion, events[path], path, x)
                    except InvariantError as exc:
                        refused += 1
                        with pytest.raises(InvariantError) as got:
                            simulate_with_infusion(c, gamma, infusion, events[path], path, x)
                        assert str(got.value) == str(exc)
                    else:
                        assert simulate_with_infusion(c, gamma, infusion, events[path], path, x) == want
    assert refused > 0


def hedge_wealth_probes(stack, level, node, claim):
    """0, the price, a debt, and where the hedge of `claim` at (level, node)
    starts trading: the targets' expectation and either side of it."""
    tree, L = stack.contract.tree, stack.contract.L
    out = [F(0), stack.price(), F(-1, 3)]
    if level < tree.N and claim <= L:
        V, q = stack.V[L - claim], tree.ptilde
        mean = q * V.at(level + 1, 2 * node + 1) + (1 - q) * V.at(level + 1, 2 * node)
        out += [mean, mean - EPS, mean + EPS]
    return out


@pytest.mark.parametrize("seed, lattice", CASES)
def test_perfect_hedge_pair_route_equals_the_fraction_route(seed, lattice):
    rng = random.Random(1000 + seed)
    c = random_contract(rng, max_n=5, max_l=3, recombining=lattice)
    stack, price = price_swing(c)
    tree, L = c.tree, c.L
    hedge, ref = build_perfect_hedge(stack), ReferencePerfectHedge(stack)
    for k in range(tree.N + 1):
        for m in range(2 ** k):
            for claim in range(1, L + 2):
                for y in hedge_wealth_probes(stack, k, m, claim):
                    assert hedge.units(k, m, claim, y) == ref.units(k, m, claim, y)
    optimal, buyer = optimal_strategies(stack)
    sellers = [optimal, history_dependent_seller(rng, tree, L)]
    failed = 0
    for x in (price, price - EPS, price / 2):
        for seller in sellers:
            check = verify_perfect_hedge(c, hedge, x, seller)
            assert check == verify_perfect_hedge(c, ref, x, seller)
            failed += not check.ok
            for other in (buyer, history_dependent_buyer(rng, tree, L)):
                events = resolve(seller, other).events
                for path in tree.paths():
                    assert simulate_portfolio(c, hedge, x, events[path], path) == \
                        simulate_portfolio(c, ref, x, events[path], path)
    assert failed > 0
