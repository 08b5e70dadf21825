"""Shortfall risk of partial hedges, exactly, and the optimal partial hedge.

A seller who starts with capital x below the perfect-hedge price cannot cover
every play from trading alone; whenever a settlement hits, money may have to
be injected. The shortfall risk is

    R(x) = inf over trading and injection policies of
           sup over buyer behaviours of E[ total injected ],

under the market measure. On the tree this is solved exactly: the cost-to-go
at each (node, rights-remaining) state is a decreasing piecewise-linear
function of wealth, closed under the two one-period transforms (portfolio
and infusion) and under pointwise min/max. The backward recursion composes,
per node and per remaining-rights count j with active right i = L - j + 1:

    continue  = portfolio transform of the children's cost at the same j
    exercise  = infusion transform (obligation Y_i) of the post-settlement
                portfolio transform at j - 1
    cancel    = the same with obligation X_i
    cost      = min(cancel, max(exercise, continue))

with terminal cost (sum of remaining exercise legs - wealth)^+. The optimal
share counts are the stored portfolio controls. Each is built from its
transform's inputs when a policy first reads it, so a risk or a risk curve
builds none. The optimal injections are
one rule per state: the leftmost minimizer of w + phi(w) over the wealth
left after settlement (RiskStack.minimizer), whatever the obligation. The
optimal cancellation behaviour is "cancel where the cancel branch is the
standing cost", evaluated at the wealth the policy itself produces.

Everything downstream of the recursion (policy evaluation, simulation, the
two-route risk evaluator) works for arbitrary admissible policies too, which
is what the randomized dominance checks exercise. One state recursion,
_policy_risk, serves both policy evaluators: evaluate_policy_risk lets the
seller cancel optimally, evaluate_risk(mode="recursion") reads a committed
seller's decision per state. Every trade is one hedge._level_wealth step
on an integer pair, every payment one subtraction of its leg (_settle), and
these loops carry wealth (and the recursion its costs) as reduced
(numerator, denominator) pairs from start to end. The stack's own policies
answer in pairs too: share counts, injections and stop tests read the
stored controls and functions on the wealth pair, the stock price off its
integer rows and a maturity debt off one _level_wealth step.

simulate_with_infusion and ReplayStrategy read one wealth stepper, the
hedge module's _WealthBook, with _trade and _settle as its steps: it keeps
every prefix of a run by (level, node, settlements up to that level) and
steps a missing one down from the nearest kept prefix. optimal_hedge hands
its seller the very gamma and infusion it returns, and a StackPortfolio and
a StackInfusion built on one stack share one book per capital, kept on the
portfolio (_wealth_book). So the wealths the seller steps while resolve
asks it are the prefixes the caller's per-path simulations read, and each
shared prefix is traded and settled once. Any other policy (user code, a
subclass, or a user rule mixed with a stack policy) gets a new book per
call, and is asked through one adapter per interface, which hands it a
Fraction and takes a Fraction back; nothing is kept of its answers.
Fractions are built only for what a result returns or reports, and a
SimulationOutcome builds its wealths and injections when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import DEFAULT_ENUMERATION_CAP, ContractError, InvariantError, check_cap, echo
from .hedge import (
    PortfolioStrategy,
    _add,
    _below,
    _checked_play,
    _level_wealth,
    _unrolled,
    _units_on_pairs,
    _WealthBook,
    check_capital,
)
from .market import to_rational
from .pwl import (
    PwlControl,
    PwlFn,
    _lt,
    _portfolio_fold,
    _q,
    infusion_transform,
    leftmost_minimizer,
    pointwise_max,
    pointwise_min,
)
from .swing import StoppingStrategy, check_strategy, resolve


@dataclass
class RiskStack:
    """All value functions and controls of the shortfall recursion.

    Keys are (level, state, rights-remaining), over the states of the
    contract's state space; key(k, m, j) gives the key of full-tree node m.
    J covers every level; phi (the
    pre-decision portfolio transform), its control and the branch functions
    exist below maturity only. phi at j = 0 is the zero function: with
    nothing left to pay, no cost and no trading.
    """

    contract: object
    J: dict
    phi: dict
    phi_ctrl: dict
    exercise: dict
    cancel: dict
    _minimizers: dict = field(default_factory=dict, repr=False, compare=False)

    def key(self, k: int, m: int, j: int) -> tuple:
        """The storage key of node (k, m) with j rights remaining."""
        return (k, self.contract.tree.state(k, m), j)

    def curve(self) -> PwlFn:
        return self.J[(0, 0, self.contract.L)]

    def risk(self, x) -> Fraction:
        return self.curve().eval(check_capital(x))

    def minimizer(self, key) -> PwlControl:
        """c -> leftmost minimizer of w + phi[key](w) over w >= c, built once."""
        # 77 hits to 26 misses per partial-hedge-query cycle
        table = self._minimizers.get(key)
        if table is None:
            table = self._minimizers[key] = leftmost_minimizer(self.phi[key])
        return table


def build_risk_stack(contract) -> RiskStack:
    tree = contract.tree
    N, L = tree.N, contract.L
    # the tree's own p and ptilde, checked when it was built
    p, pt, b = tree.params.p, tree.ptilde, tree.params.b
    J, phi, phi_ctrl = {}, {}, {}
    ex_fn, ca_fn = {}, {}
    zero = PwlFn.zero()  # one per stack: its suffix rows are read 137 times, built 5

    for s in range(tree.width(N)):
        J[(N, s, 0)] = zero
        for j in range(1, L + 1):
            due = sum((contract.Y(i).row(N)[s] for i in range(L - j + 1, L + 1)), Fraction(0))
            J[(N, s, j)] = PwlFn.hockey_stick(due)

    for k in range(N - 1, -1, -1):
        for s in range(tree.width(k)):
            up, dn = tree.children(k, s)
            J[(k, s, 0)] = phi[(k, s, 0)] = zero
            for j in range(1, L + 1):
                i = L - j + 1
                pj, ctrl = _portfolio_fold(J[(k + 1, up, j)], J[(k + 1, dn, j)], p, pt, b)
                phi[(k, s, j)] = pj
                phi_ctrl[(k, s, j)] = ctrl
                settled = phi[(k, s, j - 1)]
                e_fn = infusion_transform(settled, contract.Y(i).row(k)[s])
                c_fn = infusion_transform(settled, contract.X(i).row(k)[s])
                ex_fn[(k, s, j)] = e_fn
                ca_fn[(k, s, j)] = c_fn
                J[(k, s, j)] = pointwise_min(c_fn, pointwise_max(e_fn, pj))

    return RiskStack(
        contract=contract,
        J=J,
        phi=phi,
        phi_ctrl=phi_ctrl,
        exercise=ex_fn,
        cancel=ca_fn,
    )


def shortfall_risk(contract, x) -> Fraction:
    return build_risk_stack(contract).risk(x)


def infusion_minimizer(fn: PwlFn, y):
    """(smallest optimal injection, resulting wealth) for cost-to-go fn.

    Minimizes w + fn(w) over w >= max(y, 0), taking the leftmost minimizer.
    y may be negative (wealth after an unpaid obligation); the injection
    w - y is then at least the debt.
    """
    y = to_rational(y)
    w = leftmost_minimizer(fn).eval(max(y, Fraction(0)))
    return w - y, w


# The pair protocol. The stack's own policies answer on wealth held as a
# reduced (numerator, denominator) pair, in pairs with positive denominators:
# StackPortfolio._units, StackInfusion._amount, ReplayStrategy._stops_at.
# Their public methods wrap these in Fractions. Every loop below asks a
# policy through the adapter of its interface (hedge._units_on_pairs for
# share counts), which hands over the pair method when the policy's own
# class defines it and asks any other policy through its Fraction call.


def _amount_on_pairs(infusion):
    if "_amount" in type(infusion).__dict__:
        return infusion._amount

    def amount(level, node, claim, y):
        z = to_rational(infusion.amount(level, node, claim, Fraction(*y)))
        return z.numerator, z.denominator

    return amount


def _stops_on_pairs(seller):
    if "_stops_at" in type(seller).__dict__:
        return seller._stops_at
    return lambda k, m, j, w: seller.stops_at_state(k, m, j, Fraction(*w))


class StackPortfolio(PortfolioStrategy):
    """Optimal share counts: the stored portfolio control over the price.

    Each answer of _units is kept for the life of the instance, keyed by
    (level, tree.state(level, node), claim, wealth pair): the control and
    the price are read through the state, so the key is exact on the full
    tree and on the lattice.
    """

    def __init__(self, stack: RiskStack):
        self.stack = stack
        self.tree = stack.contract.tree
        # 181 hits to 181 misses per partial-hedge-query cycle: both children of a node ask alike
        self._memo = {}
        self._books = {}  # (infusion, capital as a pair) -> the _WealthBook they share

    def units(self, level, node, claim, wealth):
        w = to_rational(wealth)
        return Fraction(*self._units(level, node, claim, (w.numerator, w.denominator)))

    def _units(self, level, node, claim, w):
        L = self.stack.contract.L
        tree = self.tree
        if claim > L or level >= tree.N:
            return 0, 1
        s = tree.state(level, node)
        key = (level, s, claim, w)
        units = self._memo.get(key)
        if units is None:
            ctrl = self.stack.phi_ctrl[(level, s, L - claim + 1)]
            an, ad = ctrl._at(w if w[0] > 0 else (0, 1))
            stock = tree.stock
            units = self._memo[key] = an * stock.dens[level], ad * stock.nums[level][s]
        return units


class StackInfusion:
    """Optimal injections. amount(level, node, claim, y) with y the wealth
    left after claim's settlement amount was charged (possibly negative).

    Each answer of _amount is kept for the life of the instance, keyed by
    (level, tree.state(level, node), claim, y) like StackPortfolio's.
    """

    def __init__(self, stack: RiskStack):
        self.stack = stack
        self.contract = stack.contract
        # 0 hits to 157 misses per partial-hedge-query cycle; 243 hits on the memo test's lattices
        self._memo = {}

    def amount(self, level, node, claim, y):
        y = to_rational(y)
        return Fraction(*self._amount(level, node, claim, (y.numerator, y.denominator)))

    def _amount(self, level, node, claim, y):
        contract = self.contract
        tree = contract.tree
        s = tree.state(level, node)
        key = (level, s, claim, y)
        z = self._memo.get(key)
        if z is not None:
            return z
        yn, yd = y
        if level == tree.N:
            # what the open claims after this one pay here, less y, if positive
            later = tuple((i, 0) for i in range(claim + 1, contract.L + 1))
            _, (n, d) = _level_wealth(contract, level, node, y, (0, 1), later)
            z = (-n, d) if n < 0 else (0, 1)
        else:
            table = self.stack.minimizer((level, s, contract.L - claim))
            wn, wd = table._at(y if yn > 0 else (0, 1))
            z = wn * yd - yn * wd, wd * yd
        self._memo[key] = z
        return z


class ReplayStrategy(StoppingStrategy):
    """Stopping behaviour of the optimal partial hedge.

    The stop test compares branch values at the wealth the policy actually
    holds. The node index encodes the whole path prefix and the history
    carries the settlements, so that wealth is exact: it is the arrival
    entry of the wealth book of (gamma, infusion, x), keyed by the node and
    the settlements below its level (a prefix of the history). The book is
    the one simulate_with_infusion reads (see _wealth_book), so the
    optimal hedge's seller and the caller's per-path simulations step each
    prefix once; any other pair gets a book of this instance's own. stops
    and the wealth-direct stops_at_state, for recursive evaluators, refuse a
    claim or rights count outside 1..L and a node off the tree before any
    policy is asked and answer True at maturity; _stops_at checks nothing.
    Below maturity stops also refuses a history no play hands that question
    (see _check_history) before the book or a policy is asked; _stops, the
    route the resolvers take with histories they built themselves (see
    swing.resolve), trusts its history.
    """

    def __init__(self, stack: RiskStack, x, gamma, infusion, side):
        contract = stack.contract
        super().__init__(contract.tree, contract.L)
        if side not in ("seller", "buyer"):
            raise ContractError(f"unknown side {side!r}")
        self.stack = stack
        self.contract = contract
        self.x = check_capital(x)
        self.gamma = gamma
        self.infusion = infusion
        self.side = side
        self._branch = stack.cancel if side == "seller" else stack.exercise
        self._book = _wealth_book(contract, gamma, infusion, self.x)

    def _at_maturity(self, what, n, k, m):
        """k == N, for n in 1..L and (k, m) a node of the tree, else ContractError."""
        if not 1 <= n <= self.L:
            raise ContractError(f"{what} {echo(n)} is not one of the game's {what}s 1..{self.L}")
        if not (0 <= k <= self.tree.N and 0 <= m < 1 << k):
            raise ContractError(f"({echo(k)}, {echo(m)}) is not a node of the tree")
        return k == self.tree.N

    def stops_at_state(self, k, m, j, wealth):
        if self._at_maturity("rights count", j, k, m):
            return True
        w = to_rational(wealth)
        return self._stops_at(k, m, j, (w.numerator, w.denominator))

    def _stops_at(self, k, m, j, w):
        if w[0] < 0:
            w = 0, 1
        key = self.stack.key(k, m, j)
        bn, bd = self._branch[key]._at(w)
        vn, vd = self.stack.J[key]._at(w)
        return bn * vd == vn * bd

    def _wealth(self, k, m, history):
        """Wealth pair on arrival at node (k, m), before level k's settlements."""
        return self._book.entry(k, m, _below(history, k))[0]

    def stops(self, i, k, m, history):
        if not self._at_maturity("claim", i, k, m):
            _check_history(i, k, m, history)
        return self._stops(i, k, m, history)

    def _stops(self, i, k, m, history):
        if self._at_maturity("claim", i, k, m):
            return True
        return self._stops_at(k, m, self.L - i + 1, self._wealth(k, m, history))


def _check_history(i, k, m, history):
    """ContractError unless history is one some play hands claim i at node
    (k, m) below maturity: a tuple of i - 1 (level, d) tuples of ints,
    bools refused, d 0 or 1, levels increasing from 0 and all below k (the
    window opens one level after the last settlement)."""
    def refuse(why):
        raise ContractError(
            f"no play reaches claim {i} at ({k}, {m}) after the settlements {echo(history)}: {why}")

    if not isinstance(history, tuple):
        refuse("a history is a tuple of (level, d) pairs")
    if len(history) != i - 1:
        refuse(f"claim {i} is asked after exactly {i - 1} settlements")
    last = -1
    for pair in history:
        if not (isinstance(pair, tuple) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            refuse("a settlement is a tuple (level, d) of ints")
        level, d = pair
        if d not in (0, 1):
            refuse("d is 0 or 1")
        if not last < level < k:
            refuse(f"settlement levels increase from 0 and stay below level {k}")
        last = level


def optimal_hedge(stack: RiskStack, x):
    """(shares, injections, cancellation strategy) attaining the risk at x."""
    gamma, infusion = StackPortfolio(stack), StackInfusion(stack)
    return gamma, infusion, ReplayStrategy(stack, x, gamma, infusion, "seller")


def optimal_buyer(stack: RiskStack, x):
    """The buyer behaviour extracting the full risk against the hedge at x."""
    return ReplayStrategy(stack, x, StackPortfolio(stack), StackInfusion(stack), "buyer")


# ---------------------------------------------------------------------------
# running and evaluating arbitrary policies

class SimulationOutcome:
    """A partial hedge run along one path.

    pre: wealth at each level before that level's settlements; post: after
    its settlements and injections; infusions: (level, claim, amount) in
    order; cost: their total. The keyword constructor takes Fractions.
    simulate_with_infusion keeps the wealth book's entry of the run instead
    (_of_entry) and builds cost at once; pre, post and infusions are built
    as Fractions when first read.
    """

    __hash__ = None

    def __init__(self, pre, post, infusions, cost):
        self.pre, self.post, self.infusions, self.cost = pre, post, infusions, cost

    # partial-hedge-query reads only cost: 6,720 Fractions of its 480 outcomes unbuilt
    @classmethod
    def _of_entry(cls, entry, pad):
        out = cls.__new__(cls)
        out._entry = entry, pad
        out.cost = Fraction(*entry[3])
        return out

    @cached_property
    def _pairs(self):
        return _unrolled(*self._entry)

    @cached_property
    def pre(self):
        return [Fraction(*w) for w in self._pairs[0]]

    @cached_property
    def post(self):
        return [Fraction(*w) for w in self._pairs[1]]

    @cached_property
    def infusions(self):
        return [(k, i, Fraction(*z)) for k, i, z in self._pairs[2]]

    def _fields(self):
        return self.pre, self.post, self.infusions, self.cost

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "SimulationOutcome(pre={!r}, post={!r}, infusions={!r}, cost={!r})".format(
            *self._fields()
        )


def _trade(contract, k, node, w, units):
    """Wealth pair w at the parent of (k, node), held as `units` shares (a
    pair) into level k; the reduced pair it becomes.

    Raises InvariantError when the trade leaves that wealth negative.
    """
    (n, d), _ = _level_wealth(contract, k, node, w, units, ())
    if n < 0:
        raise InvariantError(
            f"share count {Fraction(*units)} at level {k - 1} can bankrupt wealth {Fraction(*w)}"
        )
    return _q(n, d)


def _settle(contract, amount, k, node, w, claim, d):
    """(injection, reduced wealth after it) when claim settles at (k, node)
    from wealth w, all pairs, with amount a pair-level injection rule; d = 1
    pays the cancellation leg."""
    # not through _level_wealth: partial-hedge-query then lost 5 of 6 pairs, 1.7-5.7% of its jobs/s
    leg = contract.X(claim) if d else contract.Y(claim)
    den = leg.dens[k]
    n, wd = w
    rest = _q(n * den - leg.nums[k][contract.tree.state(k, node)] * wd, wd * den)
    z = amount(k, node, claim, rest)
    after = _add(rest, z)
    if z[0] < 0 or after[0] < 0:
        raise InvariantError(
            f"injection {Fraction(*z)} at level {k} leaves wealth {Fraction(*after)}; "
            "policies must keep wealth nonnegative"
        )
    return z, after


def _wealth_book(contract, gamma, infusion, x):
    """The _WealthBook of the partial hedge (gamma, infusion) from capital x.

    Shared only when gamma and infusion are exactly the stack's own classes
    (read on type(policy), like the pair adapters), built on one stack whose
    contract is `contract`: then the book is kept on gamma per (infusion, x)
    and lives and dies with the instances. Any other pair, a subclass
    included, gets a new book, so it is asked every question again.
    """
    shared = (type(gamma) is StackPortfolio and type(infusion) is StackInfusion
              and gamma.stack is infusion.stack and contract is gamma.stack.contract)
    key = infusion, x.numerator, x.denominator
    if shared:
        book = gamma._books.get(key)
        if book is not None:
            return book
    amount = _amount_on_pairs(infusion)
    book = _WealthBook(
        contract.L,
        _units_on_pairs(gamma),
        lambda k, m, w, units: _trade(contract, k, m, w, units),
        lambda k, m, w, claim, d: _settle(contract, amount, k, m, w, claim, d),
        x,
    )
    if shared:
        gamma._books[key] = book
    return book


def simulate_with_infusion(contract, gamma, infusion, events, path: int, x):
    """Run a partial hedge through one resolved play on one path.

    The play is checked by hedge._checked_play, and the run is the wealth
    book's entry at the play's last settlement, kept to maturity; calls with
    the optimal hedge's own gamma and infusion share one book.
    """
    x, key = _checked_play(contract, events, path, x)
    entry = _wealth_book(contract, gamma, infusion, x).entry(*key)
    return SimulationOutcome._of_entry(entry, contract.tree.N - key[0])


def _terminal_cost(contract, amount, m, first, y):
    """Injection total, a reduced pair, when claims first..L all settle at
    maturity node m from wealth pair y."""
    cost = (0, 1)
    for q in range(first, contract.L + 1):
        z, y = _settle(contract, amount, contract.tree.N, m, y, q, 0)
        cost = _add(cost, z)
    return cost


@dataclass
class PolicyRisk:
    value: Fraction
    table: dict  # (level, node, rights, wealth) -> (value, exercise, cancel, cont)


def _policy_risk(contract, gamma, infusion, x, stops, cap):
    """Worst-buyer expected injection cost of fixed trading and injection
    policies, by recursion on (level, node, rights remaining, wealth).

    stops(k, m, j, wealth) is the seller's committed decision, asked on a
    wealth pair; only the branch it takes is valued. stops=None lets the
    seller cancel optimally, which values both. Returns (value, memo), all
    in reduced pairs: memo maps (level, node, rights, wealth) to (value,
    exercise, cancel, cont), None for a branch not valued. The memo is
    keyed by node, so a tree of more than `cap` full-tree nodes (cap=None
    sets no limit) is refused before any policy is asked.
    """
    x = check_capital(x)
    tree = contract.tree
    N, L = tree.N, contract.L
    check_cap(2 ** (N + 1) - 1, cap)
    units, amount = _units_on_pairs(gamma), _amount_on_pairs(infusion)
    pn, pd = tree.params.p.numerator, tree.params.p.denominator
    memo = {}

    def hold(k, m, claim, w):
        """Expected cost from wealth w at (k, m) after its settlements, with
        claim the next right open."""
        if claim > L:
            return 0, 1
        shares = units(k, m, claim, w)
        up = _trade(contract, k + 1, 2 * m + 1, w, shares)
        dn = _trade(contract, k + 1, 2 * m, w, shares)
        j = L - claim + 1
        (un, ud), (vn, vd) = rec(k + 1, 2 * m + 1, j, up), rec(k + 1, 2 * m, j, dn)
        return _q(pn * un * vd + (pd - pn) * vn * ud, pd * ud * vd)

    def rec(k, m, j, y):
        i = L - j + 1
        if k == N:
            return _terminal_cost(contract, amount, m, i, y)
        key = (k, m, j, y)
        if key in memo:
            return memo[key][0]

        def settle(d):
            z, w = _settle(contract, amount, k, m, y, i, d)
            return _add(z, hold(k, m, i + 1, w))

        ex = settle(0)
        if stops is None:
            ca, cont = settle(1), hold(k, m, i, y)
            low = cont if _lt(cont, ca) else ca
        elif stops(k, m, j, y):
            ca, cont = settle(1), None
            low = ca
        else:
            ca, cont = None, hold(k, m, i, y)
            low = cont
        val = low if _lt(ex, low) else ex
        memo[key] = (val, ex, ca, cont)
        return val

    return rec(0, 0, L, (x.numerator, x.denominator)), memo


def evaluate_policy_risk(contract, gamma, infusion, x, cap=DEFAULT_ENUMERATION_CAP) -> PolicyRisk:
    """Exact worst-buyer cost of fixed trading and injection policies.

    The seller still cancels optimally against the given policies; the buyer
    plays the exact best response. For the policies extracted from a risk
    stack this reproduces the stack's value function state by state. A tree
    of more than `cap` full-tree nodes is refused (cap=None sets no limit).
    """
    value, memo = _policy_risk(contract, gamma, infusion, x, None, cap)
    table = {
        (k, m, j, Fraction(*y)): tuple(None if q is None else Fraction(*q) for q in entry)
        for (k, m, j, y), entry in memo.items()
    }
    return PolicyRisk(value=Fraction(*value), table=table)


def evaluate_risk(contract, gamma, infusion, seller, x, mode="enumeration",
                  cap=DEFAULT_ENUMERATION_CAP):
    """Worst-buyer expected injection cost with the seller fully committed.

    Two deliberately different routes:

    enumeration: materialize every reduced buyer strategy, resolve each
    against the committed seller, simulate every path, take the worst
    expectation. Dumb and exhaustive.

    recursion: state recursion on (node, rights, wealth) where the seller's
    committed decision is read per state; needs a seller exposing
    stops_at_state.

    The two must agree exactly; tests hold them against each other. Both
    refuse a seller built for another tree or claim count. cap bounds the
    buyer strategies the enumeration materializes and the full-tree nodes the
    recursion keys its memo by; cap=None sets no limit.
    """
    x = check_capital(x)
    if mode not in ("enumeration", "recursion"):
        raise ContractError(f"unknown evaluation mode {mode!r}")
    if mode == "recursion" and not hasattr(seller, "stops_at_state"):
        raise ContractError("recursion mode needs a seller with wealth-addressed decisions")
    check_strategy(seller, contract)
    if mode == "enumeration":
        from .oracle import enumerate_buyer_strategies

        buyers = enumerate_buyer_strategies(contract, cap=cap)
        tree = contract.tree
        probs = [tree.path_prob(path, tree.params.p) for path in tree.paths()]
        worst = None
        for buyer in buyers:
            play = resolve(seller, buyer)
            total = Fraction(0)
            for path, prob in zip(tree.paths(), probs):
                out = simulate_with_infusion(
                    contract, gamma, infusion, play.events[path], path, x
                )
                total += prob * out.cost
            if worst is None or total > worst:
                worst = total
        return worst
    value, _ = _policy_risk(contract, gamma, infusion, x, _stops_on_pairs(seller), cap)
    return Fraction(*value)
