import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from conftest import random_contract, random_path_dependent_contract, random_point, random_policy
from swinghedge import shortfall
from swinghedge.contract import build_contract
from swinghedge.errors import (
    DEFAULT_ENUMERATION_CAP,
    ContractError,
    EnumerationCapError,
    InvariantError,
)
from swinghedge.hedge import (
    PortfolioStrategy,
    build_perfect_hedge,
    simulate_portfolio,
    verify_perfect_hedge,
)
from swinghedge.market import build_tree
from swinghedge.oracle import count_strategy_profiles, grid_risk_oracle
from swinghedge.pwl import PwlControl, PwlFn
from swinghedge.shortfall import (
    ReplayStrategy,
    StackInfusion,
    StackPortfolio,
    build_risk_stack,
    evaluate_policy_risk,
    evaluate_risk,
    infusion_minimizer,
    optimal_buyer,
    optimal_hedge,
    shortfall_risk,
    simulate_with_infusion,
)
from swinghedge.swing import ClaimEvent, StoppingStrategy, price_swing, resolve, resolve_path

F = Fraction
EPS = F(1, 10 ** 6)

MODEL1 = {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 1}
MODEL2 = dict(MODEL1, N=2)


def contract_a():
    return build_contract({"model": MODEL1, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}}]})


def uncancellable_two():
    return build_contract({"model": MODEL2, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}},
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}}]})


def test_known_risk_curves():
    assert build_risk_stack(contract_a()).curve() == \
        PwlFn([(0, F(1, 10)), (F(1, 10), F(0))])
    assert build_risk_stack(uncancellable_two()).curve() == \
        PwlFn([(0, F(3, 2)), (F(2, 3), F(0))])
    proxy = build_contract({"model": MODEL2, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}}]})
    assert build_risk_stack(proxy).curve() == PwlFn([(0, F(3, 4)), (F(1, 3), F(0))])


def test_risk_can_fall_faster_than_money():
    # one extra unit of capital can cut more than one unit of risk
    curve = build_risk_stack(uncancellable_two()).curve()
    (x0, v0), (x1, v1) = curve.points
    assert (v0 - v1) / (x1 - x0) == F(9, 4)


def test_risk_is_zero_exactly_from_the_price_on():
    rng = random.Random(71)
    for _ in range(40):
        c = random_contract(rng)
        _, price = price_swing(c)
        stack = build_risk_stack(c)
        assert stack.curve().support_end == price
        assert stack.risk(price) == 0
        if price > EPS:
            assert stack.risk(price - EPS) > 0
        assert stack.risk(price + 1) == 0


def test_risk_rejects_negative_capital():
    with pytest.raises(ContractError):
        build_risk_stack(contract_a()).risk(F(-1, 2))
    assert shortfall_risk(contract_a(), F(1, 20)) == F(1, 20)


@pytest.mark.parametrize("capital", [0.5, 1.0, True, False])
def test_risk_rejects_float_and_bool_capital(capital):
    with pytest.raises(ContractError, match="not a rational"):
        build_risk_stack(contract_a()).risk(capital)


@pytest.mark.parametrize("capital", [0.1, 1.0, True, -1])
def test_policy_entry_points_refuse_inexact_or_negative_capital(capital):
    c = contract_a()
    stack = build_risk_stack(c)
    gamma, infusion, seller = optimal_hedge(stack, F(0))
    play = resolve(seller, optimal_buyer(stack, F(0)))
    entries = [
        lambda: evaluate_policy_risk(c, gamma, infusion, capital),
        lambda: evaluate_risk(c, gamma, infusion, seller, capital),
        lambda: evaluate_risk(c, gamma, infusion, seller, capital, mode="recursion"),
        lambda: optimal_hedge(stack, capital),
        lambda: optimal_buyer(stack, capital),
        lambda: simulate_with_infusion(c, gamma, infusion, play.events[0], 0, capital),
    ]
    for entry in entries:
        with pytest.raises(ContractError):
            entry()


@pytest.mark.parametrize("wealth", [0.1, 1.0, True, False])
def test_policy_queries_refuse_float_and_bool_wealth(wealth):
    stack = build_risk_stack(contract_a())
    gamma, infusion, seller = optimal_hedge(stack, F(0))
    hedge = build_perfect_hedge(price_swing(contract_a())[0])
    queries = [
        lambda y: infusion_minimizer(PwlFn.hockey_stick(1), y),
        lambda y: hedge.units(0, 0, 1, y),
        lambda y: gamma.units(0, 0, 1, y),
        lambda y: infusion.amount(0, 0, 1, y),
        lambda y: seller.stops_at_state(0, 0, 1, y),
    ]
    for query in queries:
        with pytest.raises(ContractError, match="not a rational"):
            query(wealth)
        query(F(-1, 2))  # a debt is still a wealth they answer on


def test_infusion_minimizer_prefers_the_leftmost():
    flat = PwlFn([(0, F(2)), (1, F(1)), (2, F(1, 2)), (3, F(0))])
    # h(w) = w + psi(w) is 2, 2, 5/2, 3 at the breakpoints: stay at 0
    amount, target = infusion_minimizer(flat, F(0))
    assert (amount, target) == (F(0), F(0))
    # from a debt, the floor is the binding constraint
    amount, target = infusion_minimizer(flat, F(-3, 2))
    assert target == F(0) and amount == F(3, 2)
    steep = PwlFn([(0, F(3)), (1, F(0))])
    amount, target = infusion_minimizer(steep, F(1, 4))
    assert target == F(1) and amount == F(3, 4)


def test_optimal_policy_reproduces_the_curve_statewise():
    rng = random.Random(73)
    for _ in range(12):
        c = random_contract(rng, max_n=2)
        stack = build_risk_stack(c)
        curve = stack.curve()
        xs = {x for x, _ in curve.points}
        xs |= {random_point(rng, F(0), curve.support_end + 1) for _ in range(4)}
        for x in xs:
            gamma, infusion, _ = optimal_hedge(stack, x)
            pol = evaluate_policy_risk(c, gamma, infusion, x)
            assert pol.value == curve.eval(x)
            for (k, m, j, y), (val, _, _, _) in pol.table.items():
                assert stack.J[stack.key(k, m, j)].eval(max(y, F(0))) == val


def test_no_policy_beats_the_curve():
    rng = random.Random(79)
    for _ in range(12):
        c = random_contract(rng, max_n=2)
        stack = build_risk_stack(c)
        curve = stack.curve()
        for _ in range(4):
            x = random_point(rng, F(0), curve.support_end + 1)
            gamma, infusion = random_policy(rng, c.tree)
            pol = evaluate_policy_risk(c, gamma, infusion, x)
            assert pol.value >= curve.eval(x)
            for (k, m, j, y), (val, _, _, _) in pol.table.items():
                if y >= 0:
                    assert stack.J[stack.key(k, m, j)].eval(y) <= val


def test_both_risk_evaluators_agree_on_the_optimal_hedge():
    rng = random.Random(83)
    for _ in range(10):
        c = random_contract(rng, max_n=2)
        stack = build_risk_stack(c)
        curve = stack.curve()
        for x in [F(0), curve.support_end / 2, curve.support_end]:
            gamma, infusion, seller = optimal_hedge(stack, x)
            want = curve.eval(x)
            assert evaluate_risk(c, gamma, infusion, seller, x,
                                 mode="enumeration") == want
            assert evaluate_risk(c, gamma, infusion, seller, x,
                                 mode="recursion") == want


def test_evaluate_risk_takes_no_cap_as_no_limit(monkeypatch):
    from swinghedge import oracle

    c = random_contract(random.Random(83), max_n=2)
    stack = build_risk_stack(c)
    x = stack.curve().support_end / 2
    gamma, infusion, seller = optimal_hedge(stack, x)
    passed = []
    enumerate_, policy_risk = oracle.enumerate_buyer_strategies, shortfall._policy_risk
    monkeypatch.setattr(oracle, "enumerate_buyer_strategies",
                        lambda contract, cap: passed.append(cap) or enumerate_(contract, cap=cap))
    monkeypatch.setattr(shortfall, "_policy_risk",
                        lambda *args: passed.append(args[-1]) or policy_risk(*args))
    buyers = count_strategy_profiles(c)[1]
    for mode, needed in (("enumeration", buyers), ("recursion", 2 ** (c.tree.N + 1) - 1)):
        def risk(**cap):
            return evaluate_risk(c, gamma, infusion, seller, x, mode=mode, **cap)

        passed.clear()
        assert risk(cap=None) == risk() == risk(cap=needed) == stack.risk(x)
        with pytest.raises(EnumerationCapError) as err:
            risk(cap=needed - 1)
        assert (err.value.needed, err.value.cap) == (needed, needed - 1)
        # None reaches the budget check as no limit, not as the default cap
        assert passed == [None, DEFAULT_ENUMERATION_CAP, needed, needed - 1]


def test_committed_recursion_builds_no_policy_table(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("a PolicyRisk was built")

    rng = random.Random(97)
    for _ in range(6):
        c = random_contract(rng, max_n=3)
        stack = build_risk_stack(c)
        x = stack.curve().support_end / 2
        gamma, infusion, seller = optimal_hedge(stack, x)
        want = evaluate_risk(c, gamma, infusion, seller, x, mode="recursion")
        assert want == stack.curve().eval(x)
        with monkeypatch.context() as patched:
            patched.setattr(shortfall, "PolicyRisk", unexpected)
            assert evaluate_risk(c, gamma, infusion, seller, x, mode="recursion") == want


def test_risk_evaluators_agree_on_committed_arbitrary_policies():
    rng = random.Random(89)
    for _ in range(8):
        c = random_contract(rng, max_n=2)
        stack = build_risk_stack(c)
        x = random_point(rng, F(0), stack.curve().support_end + 1)
        gamma, infusion, seller = optimal_hedge(stack, x)
        # keep the optimal seller rule but degrade trading and injections
        bad_gamma, bad_infusion = random_policy(rng, c.tree)
        worst = evaluate_risk(c, bad_gamma, bad_infusion, seller, x,
                              mode="enumeration")
        assert worst >= stack.curve().eval(x)


def test_committed_recursion_values_only_the_branch_taken():
    # the seller cancels the first right at the root, so the share count
    # for holding it past the root is never used; it would bankrupt wealth
    c = build_contract({"model": MODEL2, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}},
        {"exercise": {"kind": "put", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/4"}}]})

    class CancelAtRoot(StoppingStrategy):
        def stops(self, i, k, m, history):
            return k == 0

        def stops_at_state(self, k, m, j, wealth):
            return k == 0

    class GambleOnFirstClaim:
        def units(self, level, node, claim, wealth):
            return F(100) if (level, claim) == (0, 1) else F(0)

    gamma, seller = GambleOnFirstClaim(), CancelAtRoot(c.tree, c.L)
    infusion = StackInfusion(build_risk_stack(c))
    x = F(1, 2)
    assert evaluate_risk(c, gamma, infusion, seller, x, mode="recursion") == \
        evaluate_risk(c, gamma, infusion, seller, x, mode="enumeration")


def test_both_evaluation_modes_refuse_a_bankrupting_share_count():
    c = build_contract({"model": MODEL2, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}}]})

    class NeverCancel(StoppingStrategy):
        def stops(self, i, k, m, history):
            return False

        def stops_at_state(self, k, m, j, wealth):
            return False

    class GambleAtRoot:
        def units(self, level, node, claim, wealth):
            return F(100) if level == 0 else F(0)

    gamma, seller = GambleAtRoot(), NeverCancel(c.tree, c.L)
    infusion = StackInfusion(build_risk_stack(c))
    for mode in ("recursion", "enumeration"):
        with pytest.raises(InvariantError, match="share count 100 at level 0 can bankrupt wealth 1/2"):
            evaluate_risk(c, gamma, infusion, seller, F(1, 2), mode=mode)


def test_both_evaluation_modes_refuse_a_negative_injection():
    c = contract_a()
    stack = build_risk_stack(c)
    x = F(1, 2)
    gamma, _, seller = optimal_hedge(stack, x)

    class Thief:
        def amount(self, level, node, claim, y):
            return F(-1)

    want = "injection -1 at level 0 leaves wealth -1/2; policies must keep wealth nonnegative"
    for mode in ("recursion", "enumeration"):
        with pytest.raises(InvariantError) as err:
            evaluate_risk(c, gamma, Thief(), seller, x, mode=mode)
        assert str(err.value) == want


def test_grid_oracle_brackets_random_curves():
    rng = random.Random(97)
    for _ in range(6):
        c = random_contract(rng, max_n=2)
        curve = build_risk_stack(c).curve()
        for t in range(3):
            x = curve.support_end * t / 2
            lo, hi = grid_risk_oracle(c, x, resolution=8)
            assert lo <= curve.eval(x) <= hi


def test_simulation_records_admissible_runs():
    c = uncancellable_two()
    stack = build_risk_stack(c)
    x = F(1, 3)
    gamma, infusion, seller = optimal_hedge(stack, x)
    buyer = optimal_buyer(stack, x)
    play = resolve(seller, buyer)
    for path in c.tree.paths():
        out = simulate_with_infusion(c, gamma, infusion, play.events[path],
                                     path, x)
        assert out.cost == sum(z for _, _, z in out.infusions)
        assert all(z >= 0 for _, _, z in out.infusions)
        assert all(w >= 0 for w in out.post)
        assert len(out.pre) == c.tree.N + 1


def test_simulation_rejects_cheating_infusions():
    c = contract_a()
    stack = build_risk_stack(c)
    gamma, _, seller = optimal_hedge(stack, F(0))
    buyer = optimal_buyer(stack, F(0))

    class Thief:
        def amount(self, level, node, claim, y):
            return F(-1)

    play = resolve(seller, buyer)
    with pytest.raises(InvariantError):
        simulate_with_infusion(c, gamma, Thief(), play.events[0], 0, F(0))


class Unasked:
    """A policy that fails the test when it is asked anything."""

    def units(self, *args):
        raise AssertionError(f"asked {args}")

    amount = units


def test_simulators_refuse_paths_and_plays_that_do_not_fit():
    c = random_contract(random.Random(1), n=5, l=2)
    stack, price = price_swing(c)
    risk = build_risk_stack(c)
    gamma, infusion, seller = optimal_hedge(risk, price / 2)
    good = resolve(seller, optimal_buyer(risk, price / 2)).events[0]
    hedge = build_perfect_hedge(stack)
    simulators = [
        lambda events, path, x: simulate_portfolio(c, hedge, x, events, path),
        lambda events, path, x: simulate_with_infusion(c, gamma, infusion, events, path, x),
        lambda events, path, x: simulate_portfolio(c, Unasked(), x, events, path),
        lambda events, path, x: simulate_with_infusion(c, Unasked(), Unasked(), events, path, x),
    ]

    def at(*levels):
        return tuple(ClaimEvent(k, 0, k == 5, True) for k in levels)

    bad_plays = [
        good[:1],  # one claim left unsettled
        good + good[-1:],  # one claim too many
        at(2, 2),  # the second claim settles before its window opens
        at(-1, 3),
        at(1, 6),  # past maturity
        ((1, 0), (3, 0)),  # not ClaimEvents
    ]
    for simulate in simulators:
        for path in (-1, 2 ** 5, 1.0):
            with pytest.raises(ContractError, match="path"):
                simulate(good, path, price / 2)
        for events in bad_plays:
            with pytest.raises(ContractError, match="event"):
                simulate(events, 0, price / 2)
        with pytest.raises(ContractError, match="capital"):  # capital is checked first
            simulate(good[:1], -1, -1)
    for simulate in simulators[:2]:  # a claim may settle at either end of its window
        for events in (at(5, 5), at(0, 5), at(3, 4)):
            simulate(events, 2 ** 5 - 1, price / 2)


@pytest.mark.parametrize("simulator", ["simulate_portfolio", "simulate_with_infusion"])
@pytest.mark.parametrize("field, value", [
    ("d", 5), ("d", -1), ("d", True), ("d", False),
    ("level", 1.0), ("level", "1"), ("level", True),
])
def test_simulators_refuse_a_malformed_event_before_any_policy(simulator, field, value):
    c = random_contract(random.Random(1), n=5, l=2)
    first = dict(level=1, d=0, seller_stopped=False, buyer_stopped=True)
    first[field] = value
    events = (ClaimEvent(**first), ClaimEvent(5, 0, True, True))
    simulate = {
        "simulate_portfolio": lambda: simulate_portfolio(c, Unasked(), F(1), events, 0),
        "simulate_with_infusion":
            lambda: simulate_with_infusion(c, Unasked(), Unasked(), events, 0, F(1)),
    }[simulator]
    with pytest.raises(ContractError, match="event 1 must be a ClaimEvent"):
        simulate()


@pytest.mark.parametrize("path", [False, True])
@pytest.mark.parametrize("entry", ["path_prob", "path_bits", "resolve_path", "simulate_with_infusion"])
def test_a_bool_is_not_a_path(entry, path):
    c = random_contract(random.Random(1), n=3, l=2)
    risk = build_risk_stack(c)
    gamma, infusion, seller = optimal_hedge(risk, F(0))
    buyer = optimal_buyer(risk, F(0))
    events = resolve(seller, buyer).events[int(path)]
    call = {
        "path_prob": lambda: c.tree.path_prob(path, F(3, 5)),
        "path_bits": lambda: c.tree.path_bits(path),
        "resolve_path": lambda: resolve_path(seller, buyer, path),
        "simulate_with_infusion":
            lambda: simulate_with_infusion(c, gamma, infusion, events, path, F(0)),
    }[entry]
    with pytest.raises(ContractError, match="path must be an integer"):
        call()


def test_replay_refuses_a_node_off_the_tree():
    c = random_contract(random.Random(1), n=5, l=2)
    risk = build_risk_stack(c)
    _, _, seller = optimal_hedge(risk, F(0))
    for k, m in [(0, 1), (2, 4), (3, -1), (-1, 0)]:
        with pytest.raises(ContractError, match="not a node"):
            seller.stops(1, k, m, ())
    with pytest.raises(ContractError, match="path"):
        resolve_path(seller, optimal_buyer(risk, F(0)), 2 ** 5)


def test_unknown_mode_rejected():
    c = contract_a()
    stack = build_risk_stack(c)
    gamma, infusion, seller = optimal_hedge(stack, F(0))
    with pytest.raises(ContractError):
        evaluate_risk(c, gamma, infusion, seller, F(0), mode="guess")
    with pytest.raises(ContractError):
        evaluate_risk(c, gamma, infusion, object(), F(0), mode="recursion")


def test_both_evaluation_modes_refuse_a_seller_of_another_contract():
    model = dict(MODEL2, p="3/5")

    def claim(kind):
        return {"exercise": {"kind": kind, "strike": "1"},
                "penalty": {"kind": "constant", "value": "1/10"}}

    one, two, put = (build_contract({"model": model, "claims": claims})
                     for claims in ([claim("call")], [claim("call")] * 2, [claim("put")]))
    x = F(1, 5)
    # another claim count either way, and another tree of the same shape
    for own, other in ((one, two), (two, one), (put, one)):
        gamma, infusion, seller = optimal_hedge(build_risk_stack(own), x)
        for mode in ("recursion", "enumeration"):
            with pytest.raises(ContractError, match="another tree or claim count"):
                evaluate_risk(other, gamma, infusion, seller, x, mode=mode)


# ---- the stack policies' memos ---------------------------------------------

def partial_hedge_job(stack, x):
    """One partial-hedge query: the optimal hedge and buyer, the play, and
    every path simulated. Returns the expected cost and each path's
    (events, outcome)."""
    c = stack.contract
    gamma, infusion, seller = optimal_hedge(stack, x)
    play = resolve(seller, optimal_buyer(stack, x))
    cost, runs = F(0), {}
    for path in c.tree.paths():
        out = simulate_with_infusion(c, gamma, infusion, play.events[path], path, x)
        cost += c.tree.path_prob(path, c.tree.params.p) * out.cost
        runs[path] = play.events[path], out
    return cost, runs


def memo_contracts():
    rng = random.Random(2411)
    for recombining in (True, False):
        for _ in range(8):
            yield random_contract(rng, max_n=5, max_l=3, recombining=recombining)


def test_stack_policies_reach_the_controls_once_per_question(monkeypatch):
    asking, asked, reached = [], Counter(), Counter()

    def count(cls):
        name = "_units" if cls is StackPortfolio else "_amount"
        ask = getattr(cls, name)

        def counted(self, level, node, claim, w):
            tree = self.stack.contract.tree
            question = (name, id(self), level, tree.state(level, node), claim, w)
            asked[question] += 1
            asking.append(question)
            try:
                return ask(self, level, node, claim, w)
            finally:
                asking.pop()

        monkeypatch.setattr(cls, name, counted)

    control_at = PwlControl._at

    def at(ctrl, y):
        if asking:
            reached[asking[-1]] += 1
        return control_at(ctrl, y)

    count(StackPortfolio)
    count(StackInfusion)
    monkeypatch.setattr(PwlControl, "_at", at)
    repeated = 0
    for c in memo_contracts():
        N, L = c.tree.N, c.L
        stack = build_risk_stack(c)
        for x in (F(0), stack.curve().support_end / 3, stack.curve().support_end):
            asked.clear()
            reached.clear()
            assert partial_hedge_job(stack, x)[0] == stack.risk(x)
            # a control is read below maturity, for an open claim
            wanted = {q for q in asked if q[2] < N and (q[0] == "_amount" or q[4] <= L)}
            assert set(reached) == wanted
            assert set(reached.values()) <= {1}
            repeated += sum(asked.values()) - len(asked)
    assert repeated > 0


def test_shared_stack_policies_play_like_fresh_ones():
    for c in memo_contracts():
        stack = build_risk_stack(c)
        price = stack.curve().support_end
        for x in (F(0), price / 2, price):
            _, runs = partial_hedge_job(stack, x)
            for path, (events, out) in runs.items():
                seller = ReplayStrategy(stack, x, StackPortfolio(stack), StackInfusion(stack), "seller")
                buyer = ReplayStrategy(stack, x, StackPortfolio(stack), StackInfusion(stack), "buyer")
                assert resolve_path(seller, buyer, path) == events
                assert simulate_with_infusion(
                    c, StackPortfolio(stack), StackInfusion(stack), events, path, x) == out


class AskingPortfolio:
    """A user trading rule: the stack's share counts, asked in Fractions."""

    def __init__(self, stack):
        self.inner, self.calls = StackPortfolio(stack), 0

    def units(self, level, node, claim, wealth):
        self.calls += 1
        return self.inner.units(level, node, claim, wealth)


class AskingInfusion:
    """A user injection rule: the stack's injections, asked in Fractions."""

    def __init__(self, stack):
        self.inner, self.calls = StackInfusion(stack), 0

    def amount(self, level, node, claim, y):
        self.calls += 1
        return self.inner.amount(level, node, claim, y)


def test_a_user_policy_is_asked_through_the_fraction_adapter_uncached():
    asked = Counter()
    for c in memo_contracts():
        stack = build_risk_stack(c)
        x = stack.curve().support_end / 2
        _, runs = partial_hedge_job(stack, x)
        gamma, infusion = AskingPortfolio(stack), AskingInfusion(stack)
        for rounds in (1, 2):
            for path, (events, out) in runs.items():
                assert simulate_with_infusion(c, gamma, infusion, events, path, x) == out
            if rounds == 1:
                once = gamma.calls, infusion.calls
        # the second round asks every question of the first again
        assert (gamma.calls, infusion.calls) == (2 * once[0], 2 * once[1])
        asked.update(units=once[0], amount=once[1])
    assert asked["units"] > 0 and asked["amount"] > 0


class FilterReplay(ReplayStrategy):
    """ReplayStrategy keying its wealth by filtering the whole history for
    the settlements below a level, as it did before keys were prefixes."""

    def _wealth(self, k, m, history):
        memo = self._wealth_at
        key = (k, m, tuple(e for e in history if e[0] < k))
        missing = []
        while key not in memo:
            if key[0] <= 0:
                raise ContractError(f"({k}, {m}) is not a node of the tree")
            missing.append(key)
            lvl, node, hist = key
            key = (lvl - 1, node >> 1, tuple(e for e in hist if e[0] < lvl - 1))
        w = memo[key]
        for k, m, hist in reversed(missing):
            lvl, node = k - 1, m >> 1
            if hist and hist[-1][0] == lvl:
                _, w = shortfall._settle(self.contract, self._amount_of, lvl, node, w,
                                         len(hist), hist[-1][1])
            if len(hist) < self.L:
                units = self._units_of(lvl, node, len(hist) + 1, w)
                w = shortfall._trade(self.contract, k, m, w, units)
            memo[(k, m, hist)] = w
        return w


def test_replay_histories_are_prefix_keyed_like_the_filtered_ones(monkeypatch):
    asked = {}
    stops = ReplayStrategy.stops

    def logged(self, i, k, m, history):
        asked.setdefault(self, []).append((i, k, m, history))
        return stops(self, i, k, m, history)

    monkeypatch.setattr(ReplayStrategy, "stops", logged)
    rng = random.Random(2412)
    contracts = [build_contract(json.loads(
        (resources.files("swinghedge") / "contracts" / f"{name}.json").read_text()))
        for name in ("one_right_small_penalty", "two_rights_uncancellable", "american_call_proxy")]
    contracts += [random_contract(rng, max_n=4, max_l=3, recombining=n % 2 == 0) for n in range(20)]
    longest = 0
    for c in contracts:
        stack = build_risk_stack(c)
        value_stack, price = price_swing(c)
        hedge = build_perfect_hedge(value_stack)
        for x in (F(0), price / 2, price):
            asked.clear()
            gamma, infusion, seller = optimal_hedge(stack, x)
            buyer = optimal_buyer(stack, x)
            resolve(seller, buyer)
            for path in c.tree.paths():
                resolve_path(seller, buyer, path)
            # below the price the walk fails, and its witness search asks the seller
            if x < price:
                assert not verify_perfect_hedge(c, hedge, x, seller).ok
            if c.tree.N <= 2:  # the enumeration grows too fast beyond
                evaluate_risk(c, gamma, infusion, seller, x)
            assert seller in asked and buyer in asked
            for replay, questions in asked.items():
                twin = FilterReplay(stack, x, StackPortfolio(stack), StackInfusion(stack), replay.side)
                for i, k, m, history in questions:
                    levels = [level for level, _ in history]
                    assert levels == sorted(levels)
                    longest = max(longest, len(history))
                    assert stops(twin, i, k, m, history) == stops(replay, i, k, m, history)
                assert twin._wealth_at == replay._wealth_at
    assert longest >= 2


def test_policy_risk_refuses_a_deep_tree_before_any_policy_is_asked():
    class Unasked(PortfolioStrategy, StoppingStrategy):
        def units(self, *args):
            raise AssertionError("a policy was asked before the cap check")

        amount = stops = stops_at_state = units

    model = {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 20}
    claims = [{"exercise": {"kind": kind, "strike": "1"},
               "penalty": {"kind": "constant", "value": "1/10"}} for kind in ("call", "put")]
    big = build_contract({"model": model, "claims": claims})
    policy = Unasked(big.tree, big.L)
    start = time.perf_counter()
    for call in (lambda: evaluate_policy_risk(big, policy, policy, 0),
                 lambda: evaluate_risk(big, policy, policy, policy, 0, mode="recursion")):
        with pytest.raises(EnumerationCapError) as err:
            call()
        assert err.value.needed == 2 ** 21 - 1
    assert time.perf_counter() - start < 1
    # the cap counts full-tree nodes, 15 at N = 3, and is passed through
    c = random_contract(random.Random(2413), n=3, recombining=True)
    stack = build_risk_stack(c)
    x = stack.curve().support_end / 2
    gamma, infusion, seller = optimal_hedge(stack, x)
    for call in (lambda cap: evaluate_policy_risk(c, gamma, infusion, x, cap=cap).value,
                 lambda cap: evaluate_risk(c, gamma, infusion, seller, x, mode="recursion", cap=cap)):
        with pytest.raises(EnumerationCapError) as err:
            call(14)
        assert (err.value.needed, err.value.cap) == (15, 14)
        assert call(15) == call(None) == stack.risk(x)


# ---- the whole stack, pinned -----------------------------------------------

# sha256 of stack_fingerprint over STACK_PIN_CONTRACTS, recorded before the
# pwl kernels were rewritten as flat integer loops
STACK_PIN = "d4da7fab33f3d72566fde81e7dfb9be7e19315e2b9926eff1b8493c0c1a89874"


def stack_pin_contracts():
    """The bundled contracts and the L=2 baseline at N=10, on the lattice and
    on the full tree, then random contracts of both kinds."""
    base = resources.files("swinghedge") / "contracts"
    specs = [json.loads((base / name).read_text())
             for name in sorted(entry.name for entry in base.iterdir() if entry.name.endswith(".json"))]
    specs.append({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 10},
        "claims": [{"exercise": {"kind": kind, "strike": "1"},
                    "penalty": {"kind": "constant", "value": "1/10"}}
                   for kind in ("call", "put")],
    })
    for spec in specs:
        params = build_contract(spec).tree.params
        for recombining in (True, False):
            yield build_contract({"claims": spec["claims"]}, tree=build_tree(params, recombining))
    rng = random.Random(2209)
    for recombining in (True, False):
        for _ in range(20):
            yield random_contract(rng, max_n=6, max_l=3, recombining=recombining)


def stack_fingerprint(stack) -> bytes:
    """Every J, phi, exercise and cancel function's pairs and every control's
    knots, portfolio controls built, in key order."""
    out = []
    for table in (stack.J, stack.phi, stack.exercise, stack.cancel):
        out.append(repr(sorted((key, fn._pairs) for key, fn in table.items())))
    out.append(repr(sorted((key, ctrl._knots or ctrl._build()) for key, ctrl in stack.phi_ctrl.items())))
    out.append(repr(sorted((key, stack.minimizer(key)._knots) for key in stack.phi)))
    return "\n".join(out).encode()


def test_the_whole_risk_stack_is_pinned():
    digest = hashlib.sha256()
    for contract in stack_pin_contracts():
        digest.update(stack_fingerprint(build_risk_stack(contract)))
    assert digest.hexdigest() == STACK_PIN


# ---- the partial hedge, pinned ---------------------------------------------

# sha256 of partial_hedge_fingerprint over partial_hedge_pin_contracts,
# recorded before solve_dynkin became the one-game case of the value stack's
# sweep
PARTIAL_HEDGE_PIN = "9266c40855240a08906d2b170959d9a8706ce636afa654f31b0e2981429ed594"


def partial_hedge_pin_contracts():
    """Random contracts on the full tree and on the lattice, then full-tree
    table contracts with path-dependent legs."""
    rng = random.Random(2604)
    for recombining in (False, True):
        for _ in range(10):
            yield random_contract(rng, max_n=5, max_l=3, recombining=recombining)
    for n, l in [(3, 2), (4, 1), (5, 2)]:
        yield random_path_dependent_contract(rng, n, l)


def partial_hedge_fingerprint(contract) -> bytes:
    """At k/5 of the price for k = 0..5: every path's events and
    SimulationOutcome under the optimal hedge against the optimal buyer,
    the expected cost, and evaluate_policy_risk's value and sorted table
    for the stack's policies."""
    stack = build_risk_stack(contract)
    price = price_swing(contract)[1]
    out = []
    for k in range(6):
        x = price * k / 5
        cost, runs = partial_hedge_job(stack, x)
        out.append(repr((cost, sorted(runs.items()))))
        risk = evaluate_policy_risk(contract, StackPortfolio(stack), StackInfusion(stack), x)
        out.append(repr((risk.value, sorted(risk.table.items()))))
    return "\n".join(out).encode()


def test_the_partial_hedge_is_pinned():
    digest = hashlib.sha256()
    for contract in partial_hedge_pin_contracts():
        digest.update(partial_hedge_fingerprint(contract))
    assert digest.hexdigest() == PARTIAL_HEDGE_PIN
