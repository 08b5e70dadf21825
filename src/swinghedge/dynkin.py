"""Dynkin stopping games on the scenario tree.

Two players watch the same tree. The minimizer (seller) picks a stopping time
sigma, the maximizer (buyer) picks tau, and the settlement is

    R(sigma, tau) = X(sigma) if sigma < tau, else Y(tau),

so ties pay Y. With Y <= X the game has the value process

    V(N) = Y(N),
    V(n) = min(X(n), max(Y(n), E[V(n+1) | node])),

and stopping at the first node where X <= V (seller) or Y = V (buyer) is
optimal. When the order Y <= X fails at a node the value is simply Y there
(the maximizer stops; waiting is dominated). Only a direct caller reaches
that branch, as the stack-reference tests' planted games do: contracts keep
Y <= X, and shortfall.py imports nothing from this module.

solve_stack solves a stack of such games, the games of swing.price_swing:
game k+1 adds game k's continuation E[V_k(n+1) | node] to both of its legs
at level n, and at maturity, where nothing is delayed, V_k(N) is the sum of
the first k games' Y legs. A stack of one game is the plain game above, so
solve_dynkin is solve_stack on [(X, Y)].

The recursion runs on integers. For q = u / v, every leg lifts to per-level
denominators C_k (see market.level_scales), C_k a multiple of v * C_{k+1}.
Then E[V(k+1) | node] is the integer u * up + (v - u) * down times
C_k / (v * C_{k+1}), and every min, max and tie is an integer comparison.
One backward sweep over the levels solves every game of the stack at each
level, computing each continuation once, and records both players' stop
tables as it goes; solve_level is the one place where the min/max rule and
the stop rule are written. Every V shares the C_k; a Fraction is built only
where a caller reads one through V.row, V.at or V.values. A leg's row is
lifted when its level is swept, so no lifted copy of a whole leg is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_ENUMERATION_CAP, ContractError, check_cap
from .market import (
    MARTINGALE,
    AdaptedProcess,
    ScenarioTree,
    expectation_row,
    level_scales,
    measure_prob,
)


class StoppingTime:
    """An adapted stopping time with values in [start, N].

    decisions maps (level, node index) to True (stop) for levels below N;
    nodes without an entry continue. Every level-N node stops. Only nodes
    actually reachable without stopping need entries, which keeps enumerated
    stopping times minimal. With by_state=True the keys are (level, state)
    of the tree's state space instead, which stores a Markov stopping time
    once per lattice state; stops_at still takes node indices.
    """

    def __init__(self, tree: ScenarioTree, start: int = 0, decisions: dict = None,
                 by_state: bool = False):
        if not (0 <= start <= tree.N):
            raise ContractError(f"start level {start} out of range 0..{tree.N}")
        self.tree = tree
        self.start = start
        self.decisions = dict(decisions or {})
        # on the full tree a state is its node
        self.by_state = by_state and tree.recombining

    def stops_at(self, k: int, m: int) -> bool:
        if k >= self.tree.N:
            return True
        if k < self.start:
            return False
        if self.by_state:
            m = self.tree.state(k, m)
        return self.decisions.get((k, m), False)

    def stop_level(self, path: int) -> int:
        """The level where this stopping time fires along the given path."""
        for k in range(self.start, self.tree.N + 1):
            if self.stops_at(k, self.tree.node_on_path(path, k)):
                return k
        raise AssertionError("unreachable: level N always stops")

    @classmethod
    def at_level(cls, tree: ScenarioTree, level: int, start: int = 0) -> "StoppingTime":
        """The constant stopping time: stop everywhere at `level`."""
        level = max(level, start)
        decisions = {(level, m): True for m in range(2 ** level)} if level < tree.N else {}
        return cls(tree, start, decisions)

    @classmethod
    def never(cls, tree: ScenarioTree, start: int = 0) -> "StoppingTime":
        """Wait until forced: stop only at level N."""
        return cls(tree, start, {})


@dataclass
class DynkinSolution:
    value: AdaptedProcess
    seller_stop: StoppingTime
    buyer_stop: StoppingTime
    start: int = 0


def solve_level(k: int, xs: list, ys: list, conts: list, seller: dict, buyer: dict) -> list:
    """The value numerators of one level of the game, and its stop entries.

    xs, ys and conts hold, per state of level k, the numerators of X, Y and
    E[V(k+1) | node] over one denominator. The value is

        y if y > x else min(x, max(y, cont)),

    taken as one comparison chain. seller[(k, s)] = True is recorded where
    x <= v and buyer[(k, s)] = True where y == v, in state order.
    """
    row = []
    append = row.append
    for s, (x, y, c) in enumerate(zip(xs, ys, conts)):
        if y > x:
            append(y)
            seller[(k, s)] = True
            buyer[(k, s)] = True
        elif c > x:
            append(x)
            seller[(k, s)] = True
            if y == x:
                buyer[(k, s)] = True
        elif c > y:
            append(c)
            if c == x:
                seller[(k, s)] = True
        else:
            append(y)
            if x == y:
                seller[(k, s)] = True
            buyer[(k, s)] = True
    return row


def solve_stack(tree: ScenarioTree, q: Fraction, legs: list) -> list:
    """The solutions of a stack of games with up probability q, in order.

    legs lists each game's own (X, Y); game k+1 plays its legs plus game k's
    continuation, as the module docstring says. Every value process has the
    level denominators C_k of level_scales for all the legs, and the stop
    tables, keyed by state, start at level 0.
    """
    N = tree.N
    scales = level_scales(tree, q.denominator, *(leg.dens for pair in legs for leg in pair))

    def lifted(proc, n, delay):
        factor = scales[n] // proc.dens[n]
        return [a * factor + d for a, d in zip(proc.nums[n], delay)]

    values = [[None] * (N + 1) for _ in legs]
    sellers = [{} for _ in legs]
    buyers = [{} for _ in legs]
    due = [0] * tree.width(N)
    for k, (_, Y) in enumerate(legs):
        due = values[k][N] = lifted(Y, N, due)
    for n in range(N - 1, -1, -1):
        step = scales[n] // (q.denominator * scales[n + 1])
        delay = [0] * tree.width(n)
        for k, (X, Y) in enumerate(legs):
            cont = expectation_row(tree, values[k][n + 1], q, step)
            values[k][n] = solve_level(n, lifted(X, n, delay), lifted(Y, n, delay), cont,
                                       sellers[k], buyers[k])
            delay = cont
    return [
        DynkinSolution(
            value=AdaptedProcess._of(tree, rows, scales),
            seller_stop=StoppingTime(tree, 0, seller, by_state=True),
            buyer_stop=StoppingTime(tree, 0, buyer, by_state=True),
        )
        for rows, seller, buyer in zip(values, sellers, buyers)
    ]


def solve_dynkin(X: AdaptedProcess, Y: AdaptedProcess, measure: str = MARTINGALE,
                 start_level: int = 0) -> DynkinSolution:
    """The game value and both optimal stopping times from start_level on:
    the one-game stack, with the stop entries below start_level dropped."""
    tree = X.tree
    if Y.tree is not tree:
        raise ContractError("X and Y must live on the same tree")
    (sol,) = solve_stack(tree, measure_prob(tree, measure), [(X, Y)])
    seller, buyer = (
        StoppingTime(tree, start_level,
                     {key: flag for key, flag in stop.decisions.items() if key[0] >= start_level},
                     by_state=True)
        for stop in (sol.seller_stop, sol.buyer_stop)
    )
    return DynkinSolution(sol.value, seller, buyer, start_level)


def evaluate_game(X: AdaptedProcess, Y: AdaptedProcess, sigma: StoppingTime,
                  tau: StoppingTime, measure: str = MARTINGALE,
                  cap=DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Exact expected settlement R(sigma, tau) over all paths.

    The walk visits all 2^N paths, so a tree of more than `cap` full-tree
    nodes is refused before any path is walked; cap=None sets no limit.
    """
    tree = X.tree
    check_cap(2 ** (tree.N + 1) - 1, cap)
    q = measure_prob(tree, measure)
    total = Fraction(0)
    for path in tree.paths():
        m_s = sigma.stop_level(path)
        n_b = tau.stop_level(path)
        k = min(m_s, n_b)
        node = tree.node_on_path(path, k)
        pay = X.at(k, node) if m_s < n_b else Y.at(k, node)
        total += tree.path_prob(path, q) * pay
    return total


def certify_stopped_values(X: AdaptedProcess, Y: AdaptedProcess,
                           measure: str = MARTINGALE, start_level: int = 0,
                           cap=DEFAULT_ENUMERATION_CAP):
    """Check the three stopped-value properties of the solved game.

    The value process stopped at the seller's optimal time must be a
    supermartingale, stopped at the buyer's a submartingale, and stopped at
    the earlier of the two a martingale, from start_level on. Returns
    (ok, failures) where failures lists (property, level, node). The check
    visits every full-tree node, so a tree of more than `cap` of them is
    refused before the game is solved; cap=None sets no limit.
    """
    tree = X.tree
    check_cap(2 ** (tree.N + 1) - 1, cap)
    q = measure_prob(tree, measure)
    sol = solve_dynkin(X, Y, measure, start_level)
    V, sig, tau = sol.value, sol.seller_stop, sol.buyer_stop
    failures = []

    for name, stops in (("supermartingale", (sig,)), ("submartingale", (tau,)),
                        ("martingale", (sig, tau))):
        for k in range(start_level, tree.N):
            for m in range(2 ** k):
                # alive iff no relevant stopping time fired at a level <= k
                # along the path to (k, m), including at (k, m) itself
                alive = True
                for kk in range(start_level, k + 1):
                    node = m >> (k - kk)
                    if any(st.stops_at(kk, node) for st in stops):
                        alive = False
                        break
                if not alive:
                    continue
                cont = q * V.at(k + 1, 2 * m + 1) + (1 - q) * V.at(k + 1, 2 * m)
                v = V.at(k, m)
                ok = {
                    "supermartingale": cont <= v,
                    "submartingale": cont >= v,
                    "martingale": cont == v,
                }[name]
                if not ok:
                    failures.append((name, k, m))
    return (not failures, failures)
