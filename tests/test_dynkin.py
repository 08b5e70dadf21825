import random
from fractions import Fraction

import pytest

from conftest import random_params
from swinghedge.dynkin import (
    StoppingTime,
    certify_stopped_values,
    evaluate_game,
    solve_dynkin,
)
from swinghedge.errors import ContractError
from swinghedge.market import AdaptedProcess, MarketParams, build_tree
from swinghedge.oracle import dynkin_minimax, enumerate_stopping_times


def random_game(rng, max_n=3, n=None):
    """A pair of processes with 0 <= Y <= X and X = Y at maturity."""
    tree = build_tree(random_params(rng, max_n=max_n, n=n))
    yvals, xvals = [], []
    for k in range(tree.N + 1):
        row = [Fraction(rng.randint(0, 8), rng.randint(1, 3))
               for _ in range(2 ** k)]
        pad = [Fraction(rng.randint(0, 6), 2) if k < tree.N else Fraction(0)
               for _ in range(2 ** k)]
        yvals.append(row)
        xvals.append([y + d for y, d in zip(row, pad)])
    return AdaptedProcess(tree, xvals), AdaptedProcess(tree, yvals)


def test_stopping_time_basics():
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1,
                                   p=Fraction(1, 2), N=2))
    st = StoppingTime(tree, {(0, 0): True})
    assert st.stops_at(0, 0)
    assert st.stop_level(0b11) == 0
    assert st.stops_at(2, 3)  # maturity always stops
    never = StoppingTime(tree)
    assert [never.stop_level(p) for p in tree.paths()] == [2, 2, 2, 2]


def test_known_one_period_game():
    # call with strike 1, cancel fee 1/10 on a doubling/halving tree:
    # waiting is worth 1/3, cancelling costs 1/10, so the seller cancels
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1,
                                   p=Fraction(1, 2), N=1))
    Y = AdaptedProcess(tree, [[Fraction(0)], [Fraction(0), Fraction(1)]])
    X = AdaptedProcess(tree, [[Fraction(1, 10)], [Fraction(0), Fraction(1)]])
    sol = solve_dynkin(X, Y)
    assert sol.value.at(0, 0) == Fraction(1, 10)
    assert sol.seller_stop.stops_at(0, 0)
    assert not sol.buyer_stop.stops_at(0, 0)
    assert dynkin_minimax(X, Y) == Fraction(1, 10)


def test_value_matches_full_minimax_on_random_games():
    rng = random.Random(11)
    for _ in range(40):
        X, Y = random_game(rng, max_n=2)
        sol = solve_dynkin(X, Y)
        assert dynkin_minimax(X, Y) == sol.value.at(0, 0)


def test_optimal_pair_is_a_saddle_point():
    rng = random.Random(13)
    for _ in range(25):
        X, Y = random_game(rng, max_n=2)
        sol = solve_dynkin(X, Y)
        v = sol.value.at(0, 0)
        assert evaluate_game(X, Y, sol.seller_stop, sol.buyer_stop) == v
        for other in enumerate_stopping_times(X.tree):
            assert evaluate_game(X, Y, sol.seller_stop, other) <= v
            assert evaluate_game(X, Y, other, sol.buyer_stop) >= v


def test_stopped_value_properties_hold():
    rng = random.Random(17)
    for _ in range(100):
        X, Y = random_game(rng)
        ok, failures = certify_stopped_values(X, Y)
        assert ok, failures


def test_stopped_value_check_reports_a_value_off_by_one(monkeypatch):
    from swinghedge import dynkin

    # X = 10 and Y = 0 before maturity: neither side stops early, so every
    # node below maturity is alive for all three properties
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=Fraction(1), p=Fraction(1, 2), N=2))
    payoff = [Fraction(v) for v in (0, 1, 2, 3)]
    X = AdaptedProcess(tree, [[Fraction(10)], [Fraction(10)] * 2, payoff])
    Y = AdaptedProcess(tree, [[Fraction(0)], [Fraction(0)] * 2, payoff])
    assert certify_stopped_values(X, Y) == (True, [])
    solve = dynkin.solve_dynkin

    def off_by_one(*args, **kwargs):
        sol = solve(*args, **kwargs)
        V = sol.value
        nums = [list(row) for row in V.nums]
        nums[1][0] += 1  # V(1, 0) one numerator too high
        return dynkin.DynkinSolution(AdaptedProcess._of(tree, nums, list(V.dens)),
                                     sol.seller_stop, sol.buyer_stop)

    monkeypatch.setattr(dynkin, "solve_dynkin", off_by_one)
    ok, failures = certify_stopped_values(X, Y)
    assert ok is False
    # the root's continuation rises above its value; (1, 0)'s value above its continuation
    assert failures == [("supermartingale", 0, 0), ("submartingale", 1, 0),
                        ("martingale", 0, 0), ("martingale", 1, 0)]


def test_solve_dynkin_is_the_one_game_stack(monkeypatch):
    from swinghedge import dynkin

    built = []
    stack = dynkin.solve_stack

    def kept(*args):
        built.append(stack(*args))
        return built[-1]

    monkeypatch.setattr(dynkin, "solve_stack", kept)
    rng = random.Random(19)
    for _ in range(10):
        X, Y = random_game(rng)
        sol = solve_dynkin(X, Y)
        # the one game's solution, not a copy of its stop tables
        assert len(built[-1]) == 1 and sol is built[-1][0]
    assert len(built) == 10


def test_mismatched_trees_rejected():
    rng = random.Random(23)
    X, _ = random_game(rng, n=2)
    _, Y = random_game(rng, n=2)
    with pytest.raises(ContractError):
        solve_dynkin(X, Y)


def test_an_unknown_measure_is_refused_by_name():
    X, Y = random_game(random.Random(23), n=2)
    with pytest.raises(ContractError) as info:
        solve_dynkin(X, Y, measure="physical")
    assert str(info.value) == "unknown measure 'physical'"


def test_stopped_value_check_refuses_a_deep_tree_before_solving(monkeypatch):
    import time

    from swinghedge import dynkin
    from swinghedge.errors import EnumerationCapError

    def unexpected(*args, **kwargs):
        raise AssertionError("the game was solved before the cap check")

    monkeypatch.setattr(dynkin, "solve_dynkin", unexpected)
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 3), b=Fraction(1, 2),
                                   p=Fraction(3, 5), N=60), recombining=True)
    X, Y = AdaptedProcess.constant(tree, 1), AdaptedProcess.constant(tree, 0)
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError) as err:
        certify_stopped_values(X, Y)
    assert time.perf_counter() - start < 1
    assert err.value.needed == 2 ** 61 - 1
    # the cap counts full-tree nodes: 15 at N = 3
    X, Y = random_game(random.Random(29), n=3)
    with pytest.raises(EnumerationCapError):
        certify_stopped_values(X, Y, cap=14)
    monkeypatch.undo()
    assert certify_stopped_values(X, Y, cap=15)[0]


def test_stopped_values_take_no_cap_as_no_limit():
    X, Y = random_game(random.Random(29), n=3)
    assert certify_stopped_values(X, Y, cap=None) == certify_stopped_values(X, Y)


def test_evaluate_game_refuses_a_deep_tree_before_walking():
    import time

    from swinghedge.errors import EnumerationCapError

    class Unwalked(StoppingTime):
        def stop_level(self, path):
            raise AssertionError("a path was walked before the cap check")

    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 3), b=Fraction(1, 2),
                                   p=Fraction(3, 5), N=60), recombining=True)
    X, Y = AdaptedProcess.constant(tree, 1), AdaptedProcess.constant(tree, 0)
    never = Unwalked(tree)
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError) as err:
        evaluate_game(X, Y, never, never)
    assert time.perf_counter() - start < 1
    assert err.value.needed == 2 ** 61 - 1
    # the cap counts full-tree nodes, 7 at N = 2, and dynkin_minimax passes
    # its own cap through: its 5 stopping times fit in 6, the nodes do not
    X, Y = random_game(random.Random(37), n=2)
    assert len(enumerate_stopping_times(X.tree, cap=6)) == 5
    with pytest.raises(EnumerationCapError) as err:
        dynkin_minimax(X, Y, cap=6)
    assert err.value.needed == 7
    sol = solve_dynkin(X, Y)
    assert dynkin_minimax(X, Y, cap=7) == sol.value.at(0, 0)
    assert evaluate_game(X, Y, sol.seller_stop, sol.buyer_stop, cap=None) == sol.value.at(0, 0)
