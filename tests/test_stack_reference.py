"""The integer value stack against a Fraction recursion.

`reference_solve_dynkin`, `reference_optimal_strategies` and
`reference_one_step_expectation` are the Fraction versions of the recursion
that the integer stack replaced, kept here apart from their names and the
arguments of `reference_optimal_strategies`. The stack keeps no Xk or Yk, so
`reference_level_games` rebuilds each level's game in Fractions from the
contract's legs and the stack's own V_{k-1}. Level by level, the reference
solve of that game must equal the stack's solution in every V entry and stop
table, and the strategy tables read off the rebuilt games must equal the
stack's.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_contract, random_params
from swinghedge.contract import build_contract
from swinghedge.dynkin import DynkinSolution, StoppingTime, solve_dynkin
from swinghedge.errors import ContractError
from swinghedge.market import (
    MARKET,
    MARTINGALE,
    AdaptedProcess,
    MarketParams,
    ScenarioTree,
    measure_prob,
    one_step_expectation,
)
from swinghedge.swing import TableStrategy, optimal_strategies, price_swing

F = Fraction


def reference_one_step_expectation(proc: AdaptedProcess, level: int, measure: str) -> list:
    """Conditional expectation of the level+1 values, seen from each level state.

    Returns the list of expectations indexed like the space's `level` row.
    measure is "market" (probability p) or "martingale" (ptilde).
    """
    tree = proc.tree
    if not (0 <= level < tree.N):
        raise ContractError(f"level {level} out of range for horizon {tree.N}")
    q = measure_prob(tree, measure)
    ups, downs = tree.child_rows(proc.values[level + 1])
    return [q * u + (1 - q) * d for u, d in zip(ups, downs)]


def reference_solve_dynkin(X: AdaptedProcess, Y: AdaptedProcess, measure: str = MARTINGALE,
                           start_level: int = 0) -> DynkinSolution:
    """Backward induction for the game value and both optimal stopping times."""
    tree = X.tree
    if Y.tree is not tree:
        raise ContractError("X and Y must live on the same tree")
    q = measure_prob(tree, measure)
    N = tree.N

    values = [None] * (N + 1)
    values[N] = list(Y.values[N])
    for k in range(N - 1, -1, -1):
        row = []
        ups, downs = tree.child_rows(values[k + 1])
        for y, x, up, down in zip(Y.values[k], X.values[k], ups, downs):
            if y > x:
                row.append(y)
            else:
                row.append(min(x, max(y, q * up + (1 - q) * down)))
        values[k] = row
    V = AdaptedProcess(tree, values)

    seller = {}
    buyer = {}
    for k in range(start_level, N):
        for s, (x, y, v) in enumerate(zip(X.values[k], Y.values[k], values[k])):
            if x <= v:
                seller[(k, s)] = True
            if y == v:
                buyer[(k, s)] = True
    return DynkinSolution(
        value=V,
        seller_stop=StoppingTime(tree, start_level, seller, by_state=True),
        buyer_stop=StoppingTime(tree, start_level, buyer, by_state=True),
        start=start_level,
    )


def reference_level_games(stack) -> list:
    """Each stack level's (Xk, Yk) in Fractions, rebuilt from the contract's
    legs and the stack's own V_{k-1}, with V_0 = 0."""
    contract = stack.contract
    tree = contract.tree
    L, N = contract.L, tree.N
    games = []
    v_prev = AdaptedProcess.constant(tree, 0)
    for k in range(1, L + 1):
        i = L - k + 1
        cont_rows = [reference_one_step_expectation(v_prev, n, MARTINGALE) for n in range(N)]
        cont_rows.append(list(v_prev.values[N]))  # no delay left at maturity
        Xk = AdaptedProcess(tree, [
            [x + c for x, c in zip(row, cont)]
            for row, cont in zip(contract.X(i).values, cont_rows)
        ])
        Yk = AdaptedProcess(tree, [
            [y + c for y, c in zip(row, cont)]
            for row, cont in zip(contract.Y(i).values, cont_rows)
        ])
        games.append((Xk, Yk))
        v_prev = stack.V[k - 1]
    return games


def reference_optimal_strategies(contract, games, values):
    """The saddle-point strategies read off the stack's games.

    Claim i consults stack level k = L-i+1, whose game is games[k-1] and
    value values[k-1]: the seller stops where Xk = Vk, the buyer where
    Yk = Vk, each at the first such level inside the claim's window (level N
    is forced by the resolver). The tables hold one entry per state of the
    contract's state space.
    """
    tree = contract.tree
    L, N = contract.L, tree.N
    seller_tables, buyer_tables = [], []
    for i in range(1, L + 1):
        k = L - i + 1
        (Xk, Yk), Vk = games[k - 1], values[k - 1]
        st = {}
        bt = {}
        for lvl in range(N):
            rows = zip(Xk.values[lvl], Yk.values[lvl], Vk.values[lvl])
            for s, (x, y, v) in enumerate(rows):
                if x == v:
                    st[(lvl, s)] = True
                if y == v:
                    bt[(lvl, s)] = True
        seller_tables.append(st)
        buyer_tables.append(bt)
    return (
        TableStrategy(tree, L, seller_tables, by_state=True),
        TableStrategy(tree, L, buyer_tables, by_state=True),
    )


def assert_same_solution(got, want):
    assert got.value.values == want.value.values
    assert got.start == want.start
    for side in ("seller_stop", "buyer_stop"):
        a, b = getattr(got, side), getattr(want, side)
        assert (a.start, a.by_state, a.decisions) == (b.start, b.by_state, b.decisions)


def assert_same_stack(contract):
    """Check the integer stack level by level against the reference solve of
    each game rebuilt on the stack's own V_{k-1}; returns the stack."""
    stack, price = price_swing(contract)
    games = reference_level_games(stack)
    refs = [reference_solve_dynkin(Xk, Yk, MARTINGALE) for Xk, Yk in games]
    for got, want in zip(stack.solutions, refs):
        assert_same_solution(got, want)
    assert [v.values for v in stack.V] == [ref.value.values for ref in refs]
    assert price == refs[-1].value.at(0, 0)
    want_sides = reference_optimal_strategies(contract, games, [ref.value for ref in refs])
    for got, want in zip(optimal_strategies(stack), want_sides):
        assert got.by_state == want.by_state
        assert got.tables == want.tables
    return stack


def tie_heavy_game(rng, tree, measure):
    """(X, Y) on small integers, with X or Y planted on the continuation of
    the value below at about half of the states, X = Y at others and, now
    and then, Y > X."""
    q = measure_prob(tree, measure)
    N = tree.N
    xs, ys = [None] * (N + 1), [None] * (N + 1)
    v_next = None
    for k in range(N, -1, -1):
        conts = [None] * tree.width(k)
        if k < N:
            ups, downs = tree.child_rows(v_next)
            conts = [q * up + (1 - q) * down for up, down in zip(ups, downs)]
        x_row, y_row, v_row = [], [], []
        for c in conts:
            y = F(rng.randint(0, 4), rng.choice((1, 1, 2, 3)))
            x = y + rng.choice((0, 0, F(1, 2), 1))
            r = rng.random()
            if c is not None and r < 0.25:
                x = max(c, y)
            elif c is not None and r < 0.5:
                y = c
                x = c + rng.choice((0, F(1, 3)))
            elif r < 0.55:
                x = y - F(1, 2)
            x_row.append(x)
            y_row.append(y)
            v_row.append(y if c is None or y > x else min(x, max(y, c)))
        xs[k], ys[k], v_next = x_row, y_row, v_row
    return AdaptedProcess(tree, xs), AdaptedProcess(tree, ys)


def table_contract(rng, params, tree):
    """Small-integer table legs: many zeros, X = Y rows and equal entries."""
    N = params.N

    def rows(lo, hi, den):
        return [[F(rng.randint(lo, hi), den) for _ in range(2 ** k)] for k in range(N + 1)]

    claims = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            penalty = {"kind": "constant", "value": rng.choice(("0", "1/4"))}
        else:
            penalty = {"kind": "table", "values": rows(0, 2, rng.choice((1, 3)))}
        claims.append({"exercise": {"kind": "table", "values": rows(0, 3, 2)},
                       "penalty": penalty})
    return build_contract({"claims": claims}, tree=tree)


@pytest.mark.parametrize("recombining", [False, True])
def test_stack_matches_the_fraction_recursion(recombining):
    rng = random.Random(4242 + recombining)
    for _ in range(25):
        c = random_contract(rng, max_n=6, max_l=3, recombining=recombining)
        assert_same_stack(c)


def test_stack_matches_the_fraction_recursion_on_tie_heavy_tables():
    rng = random.Random(77)
    for _ in range(20):
        params = random_params(rng, max_n=5)
        assert_same_stack(table_contract(rng, params, ScenarioTree(params)))
    # a zero penalty makes every X row equal its Y row
    for _ in range(10):
        params = random_params(rng, max_n=6)
        spec = {"model": params.to_dict(), "claims": [
            {"exercise": {"kind": rng.choice(("call", "put")),
                          "strike": str(params.S0 * F(rng.randint(2, 6), 4))},
             "penalty": {"kind": "constant", "value": "0"}}
            for _ in range(rng.randint(1, 3))
        ]}
        stack = assert_same_stack(build_contract(spec))
        assert stack.contract.tree.recombining


@pytest.mark.parametrize("recombining", [False, True])
def test_dynkin_matches_the_fraction_recursion_at_every_start(recombining):
    rng = random.Random(31 + recombining)
    for _ in range(30):
        tree = ScenarioTree(random_params(rng, max_n=6), recombining)
        for measure in (MARKET, MARTINGALE):
            X, Y = tie_heavy_game(rng, tree, measure)
            for start in range(tree.N + 1):
                assert_same_solution(solve_dynkin(X, Y, measure, start),
                                     reference_solve_dynkin(X, Y, measure, start))
            for level in range(tree.N):
                assert one_step_expectation(X, level, measure) == \
                    reference_one_step_expectation(X, level, measure)


def test_contract_legs_at_every_start_and_measure():
    rng = random.Random(53)
    for recombining in (False, True):
        for _ in range(10):
            c = random_contract(rng, max_n=6, max_l=3, recombining=recombining)
            for i in range(1, c.L + 1):
                for measure in (MARKET, MARTINGALE):
                    for start in range(c.tree.N + 1):
                        assert_same_solution(
                            solve_dynkin(c.X(i), c.Y(i), measure, start),
                            reference_solve_dynkin(c.X(i), c.Y(i), measure, start),
                        )


def test_deep_lattice_price_matches_the_fraction_recursion(no_full_tree):
    spec = {"model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 120},
            "claims": [{"exercise": {"kind": kind, "strike": "1"},
                        "penalty": {"kind": "constant", "value": "1/10"}}
                       for kind in ("call", "put", "call")]}
    assert_same_stack(build_contract(spec))


def test_process_round_trips_its_rationals():
    tree = ScenarioTree(MarketParams(S0=1, a=F(-1, 2), b=1, p=F(1, 2), N=2))
    rows = [[F(3, 4)], [F(-1, 6), 2], [0, F(5, 9), F(5, 9), F(-7, 3)]]
    proc = AdaptedProcess(tree, rows)
    assert proc.values == rows
    assert proc.dens == [4, 6, 9]
    assert proc.nums[2] == [0, 5, 5, -21]
    assert proc.at(2, 3) == F(-7, 3) and proc.max_value() == 2
    with pytest.raises(ContractError):
        AdaptedProcess(tree, [[0.5], [0, 1], [0, 0, 0, 0]])
