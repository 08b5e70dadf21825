"""Multi-exercise pricing by stacked Dynkin games.

The L-claim game reduces to L single-stopping games: let V0 = 0 and, for
k = 1..L (k counts REMAINING claims, so stack level k plays claim L-k+1),

    Xk(n) = X_{L-k+1}(n) + E~[V_{k-1}(min(n+1, N)) | node],
    Yk(n) = Y_{L-k+1}(n) + E~[V_{k-1}(min(n+1, N)) | node],

and Vk = the Dynkin value of (Xk, Yk) under the martingale measure. The
price is V_L at the root. The added term is the value of everything still to
come, delayed one period (no delay at maturity, where all remaining claims
settle together).

The stack is dynkin.solve_stack on the contract's legs under ptilde: one
backward sweep on integers over the levels, which solves all L games at
each level and computes each continuation once. It keeps each Vk and the
games' stop tables, and builds no Xk or Yk process.

Strategies here are per-claim stopping rules fed with the realized payoff
history ((a_1, d_1), ..), a_j the j-th payoff level and d_j = 1 when the
seller cancelled strictly first. resolve_path() plays two strategies against
each other on one path; resolve() plays them on every path in one
depth-first walk of the tree, which asks each (claim, level, node, history)
question once, where the paths share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .contract import SwingContract
from .dynkin import StoppingTime, solve_stack
from .errors import DEFAULT_ENUMERATION_CAP, ContractError, check_cap
from .market import ScenarioTree


class StoppingStrategy:
    """Base class: a per-claim stopping rule over realized payoff histories.

    history is a tuple of (level, d) pairs for the claims already settled,
    d = 1 when the seller cancelled strictly first, else 0. Subclasses
    override stops(); level-N stops are forced by the resolver regardless.
    """

    def __init__(self, tree: ScenarioTree, L: int):
        self.tree = tree
        self.L = L

    def stops(self, i: int, k: int, m: int, history: tuple) -> bool:
        raise NotImplementedError


def check_strategy(s: StoppingStrategy, contract: SwingContract) -> None:
    """ContractError unless s was built on the contract's tree for its claim count."""
    if s.tree is not contract.tree or s.L != contract.L:
        raise ContractError("the strategy was built for another tree or claim count")


def window_start(history: tuple, N: int) -> int:
    """First level where the next claim may be stopped."""
    if not history:
        return 0
    return min(history[-1][0] + 1, N)


class TableStrategy(StoppingStrategy):
    """History-independent rule: one stop/continue table per claim.

    Tables map (level, node index) to True (stop), or (level, state) with
    by_state=True, which stores a Markov rule once per lattice state.

    stops never reads its history argument, and oracle.certify_saddle relies
    on that: against this class's own stops it computes one best-response
    state per (claim, level, node). A subclass whose stops reads the history
    overrides stops, and so gets the certificate's walk over histories.
    """

    def __init__(self, tree, L, tables, by_state=False):
        super().__init__(tree, L)
        if len(tables) != L:
            raise ContractError(f"need {L} claim tables, got {len(tables)}")
        self.tables = [dict(t) for t in tables]
        # on the full tree a state is its node
        self.by_state = by_state and tree.recombining

    def stops(self, i, k, m, history):
        if self.by_state:
            m = self.tree.state(k, m)
        return self.tables[i - 1].get((k, m), False)

    def entry_count(self) -> int:
        """Number of (claim, level, node) stop entries over all claims."""
        tree = self.tree
        return sum(
            tree.node_multiplicity(k, s) if self.by_state else 1
            for table in self.tables for (k, s), flag in table.items() if flag
        )

    def entries(self):
        """Every (claim, level, node) stop entry, sorted, one per full-tree node."""
        tree = self.tree
        for i, table in enumerate(self.tables, start=1):
            keys = [key for key, flag in table.items() if flag]
            if self.by_state:
                keys = [(k, m) for k, s in keys for m in tree.nodes_of(k, s)]
            for k, m in sorted(keys):
                yield i, k, m

    @classmethod
    def all_at_start(cls, tree, L):
        """Stop every claim as early as its window allows."""
        full = {(k, s): True for k in range(tree.N) for s in range(tree.width(k))}
        return cls(tree, L, [dict(full) for _ in range(L)], by_state=True)

    @classmethod
    def all_wait(cls, tree, L):
        """Never stop early; everything settles at maturity."""
        return cls(tree, L, [{} for _ in range(L)])


class RuleStrategy(StoppingStrategy):
    """Wraps rule(i, history) -> StoppingTime, validating the delay window."""

    def __init__(self, tree, L, rule):
        super().__init__(tree, L)
        self.rule = rule

    def stops(self, i, k, m, history):
        st = self.rule(i, history)
        theta = window_start(history, self.tree.N)
        # A stopping time that fires before this claim's window is a broken
        # rule, not a market event; refuse it loudly.
        for kk in range(st.start, k):
            if kk < theta and st.stops_at(kk, m >> (k - kk)):
                raise ContractError(
                    f"claim {i} rule stops at level {kk}, window opens at {theta}"
                )
        return st.stops_at(k, m)


@dataclass(frozen=True)
class ClaimEvent:
    """One settled claim along one path."""

    level: int
    d: int  # 1 when the seller cancelled strictly first
    seller_stopped: bool
    buyer_stopped: bool


class ResolvedPlay:
    """The pathwise outcome of playing two strategies against each other."""

    def __init__(self, tree: ScenarioTree, L: int, events: dict):
        self.tree = tree
        self.L = L
        self.events = events  # path -> tuple of ClaimEvent, length L


def _check_pair(s: StoppingStrategy, b: StoppingStrategy) -> None:
    if b.tree is not s.tree or b.L != s.L:
        raise ContractError("strategies disagree on tree or claim count")


def resolve_path(s: StoppingStrategy, b: StoppingStrategy, path: int) -> tuple:
    """The ClaimEvent sequence of seller s against buyer b on one path."""
    _check_pair(s, b)
    tree = s.tree
    tree.check_path(path)
    L, N = s.L, tree.N
    hist = ()
    out = []
    for i in range(1, L + 1):
        theta = window_start(hist, N)
        for k in range(theta, N + 1):
            m = tree.node_on_path(path, k)
            forced = k == N
            ss = forced or s.stops(i, k, m, hist)
            bs = forced or b.stops(i, k, m, hist)
            if ss or bs:
                d = 0 if bs else 1
                out.append(ClaimEvent(level=k, d=d, seller_stopped=ss, buyer_stopped=bs))
                hist = hist + ((k, d),)
                break
    return tuple(out)


def resolve(s: StoppingStrategy, b: StoppingStrategy) -> ResolvedPlay:
    """Play seller strategy s against buyer strategy b on every path.

    One depth-first walk of the tree, down child first, asks what
    resolve_path asks on each path, each question once and in the order in
    which the paths, taken in increasing order, first ask it. At a node
    where claim i is open, the seller and then the buyer is asked; a
    settlement opens claim i + 1 at the children. At maturity every open
    claim settles on the spot, and a subtree with no claim open gives all of
    its paths one events tuple. A tree of more nodes than
    DEFAULT_ENUMERATION_CAP is refused before either strategy is asked.
    """
    _check_pair(s, b)
    tree = s.tree
    L, N = s.L, tree.N
    check_cap(2 ** (N + 1) - 1, DEFAULT_ENUMERATION_CAP)
    forced = ClaimEvent(level=N, d=0, seller_stopped=True, buyer_stopped=True)
    events = {}

    def walk(k, m, i, hist, out):
        if i > L:
            lo = m << (N - k)
            for path in range(lo, lo + (1 << (N - k))):
                events[path] = out
            return
        if k == N:
            events[m] = out + (forced,) * (L + 1 - i)
            return
        ss = s.stops(i, k, m, hist)
        bs = b.stops(i, k, m, hist)
        if ss or bs:
            d = 0 if bs else 1
            out = out + (ClaimEvent(level=k, d=d, seller_stopped=ss, buyer_stopped=bs),)
            i, hist = i + 1, hist + ((k, d),)
        walk(k + 1, 2 * m, i, hist, out)
        walk(k + 1, 2 * m + 1, i, hist, out)

    walk(0, 0, 1, (), ())
    return ResolvedPlay(tree, L, events)


@dataclass
class ValueStack:
    """The value processes Vk and Dynkin solutions for k = 1..L remaining claims.

    V[k-1] is solutions[k-1].value. Every Vk has one denominator per tree
    level, shared by all levels of the stack. The games' aggregated Xk and
    Yk are never built as processes: dynkin.solve_stack adds the delay term
    to each leg's row one level at a time, inside its sweep.
    """

    contract: SwingContract
    V: list
    solutions: list  # dynkin.DynkinSolution per stack level

    def price(self) -> Fraction:
        return self.V[-1].at(0, 0)


def price_swing(contract: SwingContract):
    """Build the value stack; returns (stack, price at the root)."""
    # stack level k plays claim L-k+1
    legs = [(contract.X(i), contract.Y(i)) for i in range(contract.L, 0, -1)]
    sols = solve_stack(contract.tree, contract.tree.ptilde, legs)
    stack = ValueStack(contract=contract, V=[sol.value for sol in sols], solutions=sols)
    return stack, stack.price()


def optimal_strategies(stack: ValueStack):
    """The saddle-point strategies: the stop tables of the stack's games.

    Claim i plays stack level k = L-i+1, so its seller table is the seller
    stop of that level's game, where Xk <= Vk (that is Xk = Vk: contracts
    keep Yk <= Xk, so Vk <= Xk), and its buyer table the buyer stop, where
    Yk = Vk. Each side stops at the first such level inside the claim's
    window (level N is forced by the resolver). The tables hold one entry
    per state of the contract's state space.
    """
    tree, L = stack.contract.tree, stack.contract.L
    sols = stack.solutions[::-1]  # claim i plays stack level L - i + 1
    return (
        TableStrategy(tree, L, [sol.seller_stop.decisions for sol in sols], by_state=True),
        TableStrategy(tree, L, [sol.buyer_stop.decisions for sol in sols], by_state=True),
    )
