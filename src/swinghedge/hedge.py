"""Perfect hedging of the whole claim stack from the game price.

The seller who collects the root value of the stack can trade the stock so
that, whatever the buyer does and however the seller's own cancellations play
out, the portfolio covers every payment and never goes negative. The share
count over one period targets the two possible next-period continuation
values of the relevant stack level:

    units = (v_up - v_down) / (price * (b - a))

which moves the wealth exactly onto v_up / v_down whenever current wealth is
at least the one-step expectation of those targets. The verifier checks the
covering property exhaustively, in one depth-first walk of the tree, over
every play: the ClaimEvent sequence one buyer behaviour forces on one path
against the seller's committed cancellations. Plays that share a path prefix
and a settlement history share one wealth, computed once. Play order takes
the paths in increasing order and, on a path, goes right by right: a right's
outcomes go by level, the buyer's exercise comes before the seller's
cancellation at the same level, and at maturity every open right settles on Y.

Wealth runs on integers: the one wealth step, _level_wealth, holds it and
the share count as (numerator, denominator) pairs and reads the stock prices
and the payments off the integer rows of their processes. Share counts are
asked on the wealth pair through one adapter, _units_on_pairs: PerfectHedge
answers in pairs from one rule per (level, state, claim), read once off the
integer rows of V and the stock and kept for the instance's life, and a
portfolio of any other class is handed a Fraction and answers one. The step
and the adapter also serve the shortfall layer's trades, share counts and
maturity debts; shortfall._settle keeps its own one-leg subtraction, which
ran partial-hedge-query 1.7-5.7% faster than the step (5 of 6 pairs).

Both path simulators check the capital, the path and the play in one
place, _checked_play, before any policy is asked, and then read one wealth
stepper, _WealthBook. A book keeps every prefix of a run by (level, node,
settlements up to that level) and steps a missing prefix down from the
nearest kept one, so runs that share a prefix share its trades and
payments. simulate_portfolio runs one path on a private book with plain
payments. shortfall.simulate_with_infusion and the partial hedge's replay
run checked trades and injections, on one book per (portfolio rule,
injection rule, capital) where both rules are the risk stack's own (see
that module). Fractions are built only for what simulate_portfolio returns
and a HedgeWitness reports; a SimulationOutcome builds its own when a field
is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DEFAULT_ENUMERATION_CAP, ContractError, InvariantError, check_cap, echo
from .market import to_rational
from .pwl import _q
from .swing import (
    ClaimEvent,
    ValueStack,
    check_strategy,
    optimal_strategies,
    price_swing,
    window_start,
)


class PortfolioStrategy:
    """Share counts per period. `claim` is the next right still alive."""

    def units(self, level: int, node: int, claim: int, wealth: Fraction) -> Fraction:
        raise NotImplementedError


class PerfectHedge(PortfolioStrategy):
    """Replicating share counts read off a value stack.

    The share count at (level, node) for the next open claim depends on the
    node only through its state, tree.state(level, node), and on the wealth
    only through one test: wealth below the expectation of the two targets
    holds nothing. So the instance keeps one rule per (level, state, claim),
    built on the first question and kept for its life: the targets'
    expectation as an integer pair and the share count as a pair, or None
    where nothing is held (claim > L or level >= N). A question is then one
    dict read and one cross-multiplication; every play and path that reaches
    a (level, state, claim) again, in any verify or simulation with this
    instance, reuses its rule.
    """

    def __init__(self, stack: ValueStack):
        self.stack = stack
        self.tree = stack.contract.tree
        self._spread = self.tree.params.b - self.tree.params.a
        # 1,373 hits to 217 misses per hedge-pathdep cycle
        self._rules = {}  # (level, state, claim) -> _rule's answer

    @property
    def initial_capital(self) -> Fraction:
        return self.stack.price()

    def units(self, level, node, claim, wealth):
        w = to_rational(wealth)
        return Fraction(*self._units(level, node, claim, (w.numerator, w.denominator)))

    def _units(self, level, node, claim, w):
        key = level, self.tree.state(level, node), claim
        try:
            rule = self._rules[key]
        except KeyError:
            rule = self._rules[key] = self._rule(*key)
        # underfunded wealth cannot reach both targets; stay in cash rather
        # than gamble (only reachable when starting below the exact price)
        if rule is None or w[0] * rule[1] < rule[0] * w[1]:
            return 0, 1
        return rule[2]

    def _rule(self, level, state, claim):
        """(n, d, units) at `state` of `level` for `claim`: the targets'
        expectation is n/d, d > 0, and units the share count held from
        wealth at least that, as a pair with a positive denominator; None
        where nothing is held."""
        L = self.stack.contract.L
        tree = self.tree
        if claim > L or level >= tree.N:
            return None
        Vk = self.stack.V[L - claim]  # stack level L - claim + 1
        row, den = Vk.nums[level + 1], Vk.dens[level + 1]
        up, down = tree.children(level, state)
        vu, vd = row[up], row[down]
        # the targets' expectation is (u*vu + (v-u)*vd) / (v*den)
        u, v = tree.ptilde.numerator, tree.ptilde.denominator
        stock = tree.stock
        s = stock.nums[level][state]
        spread = self._spread
        units = (vu - vd) * stock.dens[level] * spread.denominator, den * s * spread.numerator
        return u * vu + (v - u) * vd, v * den, units


def build_perfect_hedge(stack: ValueStack) -> PerfectHedge:
    return PerfectHedge(stack)


def _level_wealth(contract, k, node, w, units, paid):
    """One level of the wealth recursion at node (k, node).

    w is the wealth at the parent after its payments (the capital at the
    root) as a (numerator, denominator) pair, held as `units` shares over
    the period into level k, a pair with a positive denominator too; paid
    lists the (claim, d) settlements at level k, d = 1 paying the
    cancellation leg. Returns (pre, post): wealth before and after those
    payments, as pairs with positive denominators, not reduced.
    """
    tree = contract.tree
    n, d = w
    s = tree.state(k, node)
    un, ud = units
    if k > 0 and un:
        stock = tree.stock
        now, before = stock.dens[k], stock.dens[k - 1]
        move = stock.nums[k][s] * before - stock.nums[k - 1][tree.state(k - 1, node >> 1)] * now
        scale = ud * now * before
        n, d = n * scale + un * move * d, d * scale
    pre = n, d
    for i, cancelled in paid:
        leg = contract.X(i) if cancelled else contract.Y(i)
        den = leg.dens[k]
        n, d = n * den - leg.nums[k][s] * d, d * den
    return pre, (n, d)


def _units_on_pairs(portfolio):
    """portfolio's share counts asked on wealth pairs, answered in pairs with
    positive denominators: its own pair method `_units` when its class
    defines one, else its Fraction `units`."""
    if "_units" in type(portfolio).__dict__:
        return portfolio._units

    def units(level, node, claim, w):
        u = to_rational(portfolio.units(level, node, claim, Fraction(*w)))
        return u.numerator, u.denominator

    return units


def _outcomes(seller, N, L, i, k, m, hist):
    """Right i's branches at (k, m) after settlements hist, each a tuple of
    the (claim, d) settled: at maturity all open rights settle on Y; where
    the seller stops, exercise or cancel; otherwise exercise or wait."""
    if k == N:
        return (tuple((q, 0) for q in range(i, L + 1)),)
    if seller.stops(i, k, m, hist):
        return ((i, 0),), ((i, 1),)
    return ((i, 0),), ()


def _add(a, b):
    """The reduced pair of a + b."""
    return _q(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _below(history, k):
    """The settlements of history at levels below k. A history's levels
    never decrease (see swing.window_start), so they are a prefix of it."""
    n = len(history)
    while n and history[n - 1][0] >= k:
        n -= 1
    return history[:n]


class _WealthBook:
    """The one wealth stepper of the path simulators and the partial hedge's
    replay: every prefix of a run from capital x, kept by where it ends.

    An entry is keyed by (level k, node m, settlements up to level k), a
    history of (level, d) pairs, and holds the run up to there as (pre,
    post, paid, cost, prev): the wealth pairs before and after level k's
    settlements, the (level, claim, injection) triples paid at level k,
    the running injection total, and the entry of level k - 1 (None at the
    root). An entry with no settlement at level k is the arrival at (k, m):
    the wealth after level k - 1 held over one period as the share count
    units_of(k - 1, parent, next open claim, wealth) asks on the reduced
    pair, traded by trade(k, m, w, units) when nonzero, and nothing is held
    once every claim is settled. An entry with settlements at level k pays
    them, in claim order, from the arrival's wealth, each through
    settle(k, m, w, claim, d) -> (injection, wealth after it). Both steps
    return reduced pairs. A missing entry walks up to the nearest kept one
    and steps down from it, in a loop, so depth is not bounded by the
    recursion limit; each entry is stepped once for the book's life.
    """

    def __init__(self, L, units_of, trade, settle, x):
        self.L, self.units_of, self.trade, self.settle = L, units_of, trade, settle
        w = x.numerator, x.denominator
        # of a partial-hedge-query cycle's 826 reads, 393 hit; 433 step 511 entries
        self._entries = {(0, 0, ()): (w, w, (), (0, 1), None)}

    def entry(self, k, m, hist):
        """The entry of (k, m) after the settlements hist up to level k."""
        entries = self._entries
        key = k, m, hist
        e = entries.get(key)
        if e is not None:
            return e
        missing = []
        while e is None:
            missing.append(key)
            k, m, hist = key
            if hist and hist[-1][0] == k:
                key = k, m, _below(hist, k)
            elif k > 0:
                key = k - 1, m >> 1, hist
            else:
                k, m, hist = missing[0]
                raise ContractError(f"no play reaches ({k}, {m}) after the settlements {echo(hist)}")
            e = entries.get(key)
        done = len(key[2])  # settlements in e's history
        for key in reversed(missing):
            k, m, hist = key
            if len(hist) > done:  # level k's settlements, paid on arrival
                w, cost, paid = e[1], e[3], []
                for i in range(done + 1, len(hist) + 1):
                    z, w = self.settle(k, m, w, i, hist[i - 1][1])
                    paid.append((k, i, z))
                    cost = _add(cost, z)
                e = e[0], w, tuple(paid), cost, e[4]
            else:  # arrival from the wealth after level k - 1's settlements
                w = e[1]
                if done < self.L:
                    units = self.units_of(k - 1, m >> 1, done + 1, w)
                    if units[0]:
                        w = self.trade(k, m, w, units)
                e = w, w, (), e[3], e
            entries[key] = e
            done = len(hist)
        return e


def _unrolled(entry, pad):
    """(pre, post, paid) of the run that ends at a book entry, as lists over
    the levels, with the last wealth kept `pad` more levels."""
    chain = []
    while entry is not None:
        chain.append(entry)
        entry = entry[4]
    chain.reverse()
    last = chain[-1][1]
    pre = [e[0] for e in chain] + [last] * pad
    post = [e[1] for e in chain] + [last] * pad
    return pre, post, [z for e in chain for z in e[2]]


def check_capital(x) -> Fraction:
    """Initial capital x as an exact nonnegative Fraction, else ContractError."""
    x = to_rational(x)
    if x.numerator < 0:
        raise ContractError(f"initial capital must be nonnegative, got {echo(x, str)}")
    return x


def _checked_play(contract, events, path: int, x):
    """(capital, book key of the play's last settlement on `path`).

    Capital, path and events are checked, in that order, before any rule is
    asked: the path must be one of the tree's, and events must hold exactly
    L ClaimEvents (one per claim, in claim order), each at an int level from
    the window its predecessor opens to maturity, with d the int 0 or 1
    (bools refused), and 0 at maturity, where every open right settles on
    Y. Once every claim is settled the wealth stays as it is to maturity.
    """
    x = check_capital(x)
    tree = contract.tree
    N, L = tree.N, contract.L
    tree.check_path(path)
    if len(events) != L:
        raise ContractError(f"a play settles {L} claims, got {len(events)} events")
    hist = ()
    for i, ev in enumerate(events, start=1):
        start = window_start(hist, N)
        if not (isinstance(ev, ClaimEvent) and type(ev.level) is int and start <= ev.level <= N
                and type(ev.d) is int and ev.d in ((0, 1) if ev.level < N else (0,))):
            raise ContractError(
                f"event {i} must be a ClaimEvent at an integer level in [{start}, {N}] "
                f"with d 0 or 1, and 0 at maturity, got {echo(ev)}"
            )
        hist += ((ev.level, ev.d),)
    k = hist[-1][0]
    return x, (k, path >> (N - k), hist)


def simulate_portfolio(contract, portfolio: PortfolioStrategy, x, events, path: int):
    """Wealth along one path, given the settled claims on that path.

    events: the ClaimEvent sequence of the path (claim order). Returns
    (pre, post): pre[k] is wealth at level k before that level's payments,
    post[k] after them, as Fractions. No injections here; payments just
    subtract, and the wealth may go negative. The path runs on a private
    _WealthBook, with _level_wealth as its step.
    """
    x, key = _checked_play(contract, events, path, x)

    def trade(k, m, w, units):
        return _q(*_level_wealth(contract, k, m, w, units, ())[0])

    def pay(k, m, w, claim, d):
        return (0, 1), _q(*_level_wealth(contract, k, m, w, (0, 1), ((claim, d),))[1])

    book = _WealthBook(contract.L, _units_on_pairs(portfolio), trade, pay, x)
    pre, post, _ = _unrolled(book.entry(*key), contract.tree.N - key[0])
    return [Fraction(*w) for w in pre], [Fraction(*w) for w in post]


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


def _first_failing_play(contract, units_of, seller, x, path):
    """(position, witness) of the first play on `path` in play order whose
    wealth goes negative, position counting the path's plays up to it. Plays
    are searched depth first with the walk's outcomes, wealth step and share
    counts (units_of), so a shared prefix shares its wealth."""
    tree = contract.tree
    N, L = tree.N, contract.L
    position = 0

    def search(k, i, hist, w, units):
        nonlocal position
        m = path >> (N - k)
        for paid in _outcomes(seller, N, L, i, k, m, hist):
            _, post = _level_wealth(contract, k, m, w, units, paid)
            j, play = i + len(paid), hist + tuple((k, d) for _, d in paid)
            if post[0] < 0:
                position += 1
                # its first play exercises each later right as its window opens
                return k, post, play + tuple((min(k + n, N), 0) for n in range(1, L + 2 - j))
            if j > L:
                position += 1
                continue
            post = _q(*post)
            found = search(k + 1, j, play, post, units_of(k, m, j, post))
            if found:
                return found
        return None

    found = search(0, 1, (), (x.numerator, x.denominator), (0, 1))
    if found is None:
        raise InvariantError(f"path {tree.path_bits(path)} failed in the walk but in no play")
    level, wealth, play = found
    events = tuple(
        ClaimEvent(k, d, d == 1 or k == N or seller.stops(i, k, path >> (N - k), play[:i - 1]), d == 0)
        for i, (k, d) in enumerate(play, start=1)
    )
    return position, HedgeWitness(path, tree.path_bits(path), level, Fraction(*wealth), events)


def verify_perfect_hedge(
    contract, portfolio: PortfolioStrategy, x, seller=None, cap=DEFAULT_ENUMERATION_CAP
) -> HedgeCheck:
    """Does capital x with this portfolio cover every possible play?

    Wealth must stay nonnegative after every payment on every path under
    every buyer behaviour, with the seller cancelling per `seller` (the
    stack's optimal one when omitted). Soundness is per-play arithmetic,
    completeness holds because every buyer strategy induces one of the
    plays on each path.

    The plays are walked depth first over the tree, down child before up
    child. A node carries one state per settlement history that reaches it
    with a right still open, and each state branches once on its level's
    outcomes: a buyer exercise, and a seller cancellation where the seller
    stops, or waiting otherwise; at maturity everything left settles. A
    state whose rights are all settled keeps its wealth to maturity, so it
    stands for one play on each path through its node. Failure on a branch
    at (k, m) fails every path through m, and the walk meets those nodes in
    path order, so the first failing node gives the smallest failing path
    and ends the walk. A play earlier in play order can fail deeper on that
    path, so the witness is the path's first failing play in play order, and
    `plays` counts every play up to it. A tree of more than `cap` nodes
    (cap=None sets no limit), or a seller built for another contract, is
    refused before anything is walked.
    """
    x = check_capital(x)
    tree = contract.tree
    N, L = tree.N, contract.L
    check_cap(2 ** (N + 1) - 1, cap)
    if seller is None:
        seller, _ = optimal_strategies(price_swing(contract)[0])
    check_strategy(seller, contract)
    units_of = _units_on_pairs(portfolio)

    def walk(k, m, states):
        """(plays on paths below the first failure, the failing path or
        None) in the subtree of (k, m); states are (claim, history, parent
        wealth as a reduced pair, units as a pair) entering the node."""
        lo, width = m << (N - k), 1 << (N - k)
        done = 0  # plays that end here: one on each path through m
        onward = []
        for i, hist, w, units in states:
            for paid in _outcomes(seller, N, L, i, k, m, hist):
                _, post = _level_wealth(contract, k, m, w, units, paid)
                if post[0] < 0:
                    return 0, lo
                if i + len(paid) > L:
                    done += 1
                else:
                    post = _q(*post)
                    onward.append((i + len(paid), hist + tuple((k, d) for _, d in paid), post))
        count = 0
        if onward:
            states = [(i, hist, w, units_of(k, m, i, w)) for i, hist, w in onward]
            for child in (2 * m, 2 * m + 1):
                plays, failed = walk(k + 1, child, states)
                count += plays
                if failed is not None:
                    return count + done * (failed - lo), failed
        return count + done * width, None

    count, failed = walk(0, 0, [(1, (), (x.numerator, x.denominator), (0, 1))])
    if failed is None:
        return HedgeCheck(ok=True, plays=count)
    position, witness = _first_failing_play(contract, units_of, seller, x, failed)
    return HedgeCheck(ok=False, plays=count + position, witness=witness)
