"""Independent cross-checks for prices, strategies, and risk values.

Everything here recomputes quantities the fast code produces, by slower but
structurally different means: explicit enumeration of stopping times and of
full strategy profiles, best-response tables against a committed opponent,
forward play evaluation, direct candidate minimization for the one-period
transforms, and a bracketing grid scheme for the shortfall value. None of it
shares algorithmic machinery with the production recursions, so agreement is
evidence, not tautology.

The saddle certificate plays the pair forward in one walk over the states
the play reaches, scenarios sharing their path prefixes, and then computes
both best responses backward from one table of maturity payments, summed
once per leaf. The best responses visit every (node, right, history) state
but do the arithmetic once per distinct subgame: a subgame is interned by
its content (node, right, the opponent's answer and the child subgames'
ids), so histories the opponent treats alike share one value. Against a
TableStrategy opponent, which never reads the history, every history of a
(level, node, right) rebuilds the same content and so gets the same id; the
walk then keeps that id and visits each (level, node, right) once. Any other
opponent, a TableStrategy subclass that overrides stops included, gets the
walk over histories. Decisions are recorded only for a side that fails, by
walking its best response once more, over histories, to build the witness.
The values stay Fractions, but the certificate reads every leg payment as
integer parts, the numerator at the node's state over the level's
denominator, and never through a leg's Fraction row; a subgame compares its
two branches unreduced, by cross-multiplication, and builds a Fraction only
for the one that wins.

Enumeration sizes explode quickly with depth. Every enumerating entry point
takes a cap and raises EnumerationCapError before materializing anything too
large, counting level by level so that a deep tree is refused at once; the
caller decides whether to retry with a bigger budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .dynkin import StoppingTime, evaluate_game
from .errors import DEFAULT_ENUMERATION_CAP, ContractError, InvariantError, check_cap
from .hedge import check_capital
from .market import MARTINGALE, format_rational, martingale_prob, measure_prob
from .swing import StoppingStrategy, TableStrategy, check_strategy


# ---------------------------------------------------------------------------
# stopping-time enumeration

def count_stopping_times(tree, start_level=0, cap=None):
    """Number of stopping times with values in [start_level, N].

    The count below a node depends only on its level: 1 at maturity, and
    1 + (count below up child) * (count below down child) above it. With a
    cap, a count past it raises EnumerationCapError as soon as it appears,
    before the doubly exponential numbers of a deep tree are built; the
    error then carries that partial count.
    """
    below = 1
    check_cap(below, cap)
    for _ in range(start_level, tree.params.N):
        below = 1 + below * below
        check_cap(below, cap)
    if below == 1:
        return 1
    total = 1
    for _ in range(2 ** start_level):
        total *= below
        check_cap(total, cap)
    return total


def enumerate_stopping_times(tree, start_level=0, cap=DEFAULT_ENUMERATION_CAP):
    """All stopping times taking values in [start_level, N], as objects.

    A stopping time is a per-node stop decision on the subtree below each
    level-start node; decisions after a stop are unreachable and not stored,
    so distinct returned objects are genuinely distinct stopping times.
    """
    count_stopping_times(tree, start_level, cap)
    N = tree.params.N

    def subtree(k, m):
        if k == N:
            return [{}]
        out = [{(k, m): True}]
        ups = subtree(k + 1, 2 * m + 1)
        downs = subtree(k + 1, 2 * m)
        for du in ups:
            for dd in downs:
                merged = dict(du)
                merged.update(dd)
                out.append(merged)
        return out

    per_node = [subtree(start_level, m) for m in range(2 ** start_level)]
    result = []
    for combo in itertools.product(*per_node):
        decisions = {}
        for d in combo:
            decisions.update(d)
        result.append(StoppingTime(tree, start=start_level, decisions=decisions))
    return result


def dynkin_minimax(X, Y, measure=MARTINGALE, cap=DEFAULT_ENUMERATION_CAP):
    """Game value by full enumeration of both players' stopping times.

    Computes min over cancel times of the max over exercise times and the
    other order too; raises if they disagree (they never should). cap bounds
    both the stopping times enumerated and the full-tree nodes under each
    evaluate_game walk.
    """
    tree = X.tree
    times = enumerate_stopping_times(tree, cap=cap)
    table = [[evaluate_game(X, Y, sig, tau, measure, cap) for tau in times] for sig in times]
    upper = min(max(row) for row in table)
    lower = max(min(table[i][j] for i in range(len(times))) for j in range(len(times)))
    if upper != lower:
        raise InvariantError(f"enumerated game has a value gap: {lower} vs {upper}")
    return upper


# ---------------------------------------------------------------------------
# full strategy profiles for the multi-right game

def count_strategy_profiles(contract):
    """(seller, buyer) count of reduced strategies for the whole game.

    Reduced means: a strategy is specified only on states its own play can
    reach, so the counts are exact, not an overcount of formal decision
    tables.
    """
    *_, (_, nS, nB) = _profile_counts(contract)
    return nS[1], nB[1]


def _profile_counts(contract):
    """Reduced strategy counts per level, maturity first: (k, nS, nB).

    nS[i] and nB[i] count the seller's and the buyer's substrategies below
    one node of level k with right i open; they do not depend on the node.
    Each count grows up the tree and with fewer rights left, so nB[1] is
    the largest buyer count of its level.
    """
    N, L = contract.tree.params.N, contract.L
    nS = nB = [1] * (L + 2)
    yield N, nS, nB
    for k in range(N - 1, -1, -1):
        S, B = [1] * (L + 2), [1] * (L + 2)
        for i in range(L, 0, -1):
            c, x = nS[i], nS[i + 1]
            S[i] = (x * x) ** 2 + x * x * c * c if i < L else 1 + c * c
            c, x = nB[i], nB[i + 1]
            B[i] = x * x * (1 + c * c) if i < L else 1 + c * c
        nS, nB = S, B
        yield k, nS, nB


def enumerate_buyer_strategies(contract, cap=DEFAULT_ENUMERATION_CAP):
    """Materialize every reduced buyer strategy as a DictStrategy.

    A strategy carries decisions only on states its own play can reach: a
    stop decision ends the current right and branches into the next right's
    states, a continue decision branches into both the seller-cancelled
    continuation (next right, history gains a cancelled entry) and the quiet
    continuation (same right). Counts are checked against the closed-form
    recurrence before any tuples are built.
    """
    for _, _, nB in _profile_counts(contract):
        check_cap(nB[1], cap)
    total = nB[1]
    tree = contract.tree
    N, L = tree.N, contract.L

    def build(k, m, i, hist):
        if k == N:
            return [{}]
        up, dn = 2 * m + 1, 2 * m
        here = (i, k, m, hist)
        out = []
        if i < L:
            stopped = hist + ((k, 0),)
            for du in build(k + 1, up, i + 1, stopped):
                for dd in build(k + 1, dn, i + 1, stopped):
                    out.append({here: True, **du, **dd})
        else:
            out.append({here: True})
        if i < L:
            cancelled = hist + ((k, 1),)
            branches = (
                build(k + 1, up, i + 1, cancelled),
                build(k + 1, dn, i + 1, cancelled),
                build(k + 1, up, i, hist),
                build(k + 1, dn, i, hist),
            )
            for combo in itertools.product(*branches):
                d = {here: False}
                for part in combo:
                    d.update(part)
                out.append(d)
        else:
            for cu in build(k + 1, up, i, hist):
                for cd in build(k + 1, dn, i, hist):
                    out.append({here: False, **cu, **cd})
        return out

    strategies = [DictStrategy(tree, L, d) for d in build(0, 0, 1, ())]
    if len(strategies) != total:
        raise InvariantError(
            f"buyer enumeration produced {len(strategies)}, counted {total}"
        )
    return strategies


def brute_force_value(contract, cap=DEFAULT_ENUMERATION_CAP):
    """Exact game value by strategy enumeration with best-response tables.

    For every node, active right, and enumerated substrategy of one player
    below that state, the table holds the opponent's best-response value.
    The root then gives min over seller strategies of the buyer's best reply,
    and the same with roles swapped; the two are checked equal and returned.

    Strategies are enumerated implicitly: a substrategy at a state is a local
    action plus indices of child substrategies, so table entries line up with
    the reduced-strategy count and no tuple structures are materialized.
    """
    need = 0
    for k, nS, nB in _profile_counts(contract):
        need += 2 ** k * sum(nS[1:-1] + nB[1:-1])
        check_cap(need, cap)

    tree = contract.tree
    N = tree.params.N
    L = contract.L
    pt = martingale_prob(tree.params.a, tree.params.b)
    qt = 1 - pt
    BRbuy = {}   # seller committed, buyer best-responds (values per option)
    BRsell = {}  # buyer committed, seller best-responds

    for k in range(N, -1, -1):
        for m in range(2 ** k):
            for i in range(L, 0, -1):
                if k == N:
                    v = [contract.terminal_bundle(i, m)]
                    BRbuy[(k, m, i)] = v
                    BRsell[(k, m, i)] = list(v)
                    continue
                y = contract.Y(i).at(k, m)
                x = contract.X(i).at(k, m)
                up, dn = 2 * m + 1, 2 * m

                def mix(tab, j, iu, id_):
                    if j > L:
                        return Fraction(0)
                    return pt * tab[(k + 1, up, j)][iu] + qt * tab[(k + 1, dn, j)][id_]

                def pairs(tab, j):
                    if j > L:
                        return [((0, 0), Fraction(0))]
                    nu = len(tab[(k + 1, up, j)])
                    nd = len(tab[(k + 1, dn, j)])
                    return [((a_, b_), mix(tab, j, a_, b_))
                            for a_ in range(nu) for b_ in range(nd)]

                next_buy = pairs(BRbuy, i + 1)
                cur_buy = pairs(BRbuy, i)
                vals = []
                if i < L:
                    for _, tie in next_buy:
                        for _, canc in next_buy:
                            vals.append(max(y + tie, x + canc))
                else:
                    vals.append(max(y, x))
                for _, tie in next_buy:
                    for _, cont in cur_buy:
                        vals.append(max(y + tie, cont))
                BRbuy[(k, m, i)] = vals

                next_sell = pairs(BRsell, i + 1)
                cur_sell = pairs(BRsell, i)
                vals = []
                for _, after in next_sell:
                    vals.append(y + after)
                for _, canc in next_sell:
                    for _, cont in cur_sell:
                        vals.append(min(x + canc, cont))
                BRsell[(k, m, i)] = vals

    upper = min(BRbuy[(0, 0, 1)])
    lower = max(BRsell[(0, 0, 1)])
    if upper != lower:
        raise InvariantError(f"strategy enumeration has a value gap: {lower} vs {upper}")
    return upper


# ---------------------------------------------------------------------------
# pathwise play and saddle certificates

def play_value(contract, seller, buyer, measure=MARTINGALE):
    """Expected total payment when both strategies are played out.

    A forward simulation: one depth-first walk over the (node, right,
    history) states the play reaches, from the root down, on an explicit
    stack. Scenarios that share a path prefix share its states, so each node
    is visited once, with the probability of reaching it. Rights are used in
    order, each opens one period after the previous one closed (or
    immediately at maturity), a cancellation pays the penalty leg,
    simultaneous moves pay the exercise leg, and everything still open
    settles on the exercise leg at maturity. A scenario's payment is added,
    weighted by its reach probability, once its last right has settled;
    each payment is read off the leg's integer row as one Fraction(n, d). A
    strategy built for another contract is refused before it is asked.
    """
    check_strategy(seller, contract)
    check_strategy(buyer, contract)
    tree = contract.tree
    N, L = tree.params.N, contract.L
    q = measure_prob(tree, measure)
    r = 1 - q
    total = Fraction(0)
    stack = [(0, 0, 1, (), Fraction(1), Fraction(0))]
    while stack:
        k, m, i, hist, reach, paid = stack.pop()
        if k == N:
            st = tree.state(N, m)
            for j in range(i, L + 1):
                leg = contract.Y(j)
                paid += Fraction(leg.nums[N][st], leg.dens[N])
            total += reach * paid
            continue
        ss = seller.stops(i, k, m, hist)
        bs = buyer.stops(i, k, m, hist)
        if ss or bs:
            d = 1 if (ss and not bs) else 0
            leg = contract.X(i) if d else contract.Y(i)
            paid += Fraction(leg.nums[k][tree.state(k, m)], leg.dens[k])
            if i == L:
                total += reach * paid
                continue
            i, hist = i + 1, hist + ((k, d),)
        stack.append((k + 1, 2 * m, i, hist, reach * r, paid))
        stack.append((k + 1, 2 * m + 1, i, hist, reach * q, paid))
    return total


class DictStrategy(StoppingStrategy):
    """Stopping strategy backed by explicit (right, node, history) decisions."""

    def __init__(self, tree, L, decisions):
        super().__init__(tree, L)
        self.decisions = dict(decisions)

    def stops(self, i, k, m, history):
        return self.decisions.get((i, k, m, tuple(history)), False)

    def to_entries(self):
        return [
            {"claim": i, "level": k, "node": m,
             "history": [list(h) for h in hist], "stops": True}
            for (i, k, m, hist), flag in sorted(self.decisions.items())
            if flag
        ]


def _maturity_payments(contract):
    """Interned maturity payments, built once for both best responses.

    Returns (vals, leaf): vals lists the distinct payments by id, and
    leaf[i][m] is the id of the payment of rights i..L at maturity node m,
    a suffix sum over i. The sums are taken on the legs' level-N numerator
    rows, lifted to one common denominator, so a leaf costs integer
    additions and a Fraction is built once per distinct payment; ids are
    given in order of first appearance, rights from L down, nodes from 0 up.
    """
    tree = contract.tree
    N, L = tree.params.N, contract.L
    legs = [contract.Y(i) for i in range(1, L + 1)]
    den = lcm(*(Y.dens[N] for Y in legs))
    vals = []
    by_num = {}  # numerator over den -> id
    leaf = [None] * (L + 1)
    bundle = [0] * tree.width(N)
    for i in range(L, 0, -1):
        Y = legs[i - 1]
        lift = den // Y.dens[N]
        bundle = [n * lift + rest for n, rest in zip(Y.nums[N], bundle)]
        row = leaf[i] = []
        for m in range(2 ** N):
            n = bundle[tree.state(N, m)]
            sid = by_num.get(n)
            if sid is None:
                sid = by_num[n] = len(vals)
                vals.append(Fraction(n, den))
            row.append(sid)
    return vals, leaf


def _best_response(contract, opponent, opponent_is_seller, measure, maturity, witness):
    """The exact best reply to a committed opponent.

    The recursion visits every (node, right, history) state the reply can
    reach once, in the lazy order of a plain recursion over histories: where
    the opponent is the buyer, the exercise branch is visited only where the
    buyer stops. The arithmetic is done once per distinct subgame instead of
    once per state. A subgame gets an interned id from its content: the
    node, the right, the opponent's answer there and the ids of the child
    subgames visited, a leaf being its terminal payment (maturity is a
    _maturity_payments table). Two histories share an id only when the
    opponent answers alike in every reachable continuation, so this is
    exact for any opponent.

    An opponent whose stops is TableStrategy.stops, the method itself and
    not an override, never reads the history. Against it the content of a
    subgame depends on its (node, right) alone, so every later visit of a
    (level, node, right) would rebuild the content key of the first visit
    and get back its id; without a witness to record, the walk then keeps
    that id and visits each (level, node, right) once, with no content key
    at all, as none could be met twice. Other opponents, and every witness
    walk, take the history walk. The continuation of a child pair is
    computed once, as a pair of ids has one value, and as one Fraction from
    integer parts: with q = qn/qd, 1 - q = (qd - qn)/qd shares q's
    denominator, so q na/da + (1 - q) nb/db is (qn na db + (qd - qn) nb da)
    over qd da db, normalized once.

    The legs are read only on the branches that pay them, as integer parts:
    (leg.nums[k][tree.state(k, m)], leg.dens[k]), the denominator positive.
    A branch, a leg payment plus a continuation Fraction, is held as an
    unreduced pair, and the two branches of a subgame are compared by
    cross-multiplication. Only the winner becomes a Fraction; a winning
    continuation alone is the cached mix Fraction itself. Ties go as in a
    plain max or min: stop where stop >= the alternative, cancel where
    cancel <= the continuation.

    Returns (value, reply): with witness set, reply is the reply's decision
    at every state, read from its id, as a DictStrategy; else None, and no
    state is recorded.
    """
    tree = contract.tree
    N = tree.params.N
    L = contract.L
    q = measure_prob(tree, measure)
    qn, qd = q.numerator, q.denominator
    rn = qd - qn  # 1 - q = rn/qd
    vals, leaf = maturity
    ids = {}                    # content -> subgame id
    vals = list(vals)           # id -> value
    picks = [None] * len(vals)  # id -> the reply's decision, None where it has none
    decisions = {} if witness else None
    mixed = {None: Fraction(0)}  # child pair -> its continuation value
    # (level, node, right) -> subgame id, against a history-blind opponent
    states = {} if not witness and type(opponent).stops is TableStrategy.stops else None

    def new(key, value, pick=None):
        sid = len(vals)
        if key is not None:
            ids[key] = sid
        vals.append(value)
        picks.append(pick)
        return sid

    def mix(pair):
        v = mixed.get(pair)
        if v is None:
            va, vb = vals[pair[0]], vals[pair[1]]
            na, da, nb, db = va.numerator, va.denominator, vb.numerator, vb.denominator
            v = mixed[pair] = Fraction(qn * na * db + rn * nb * da, qd * da * db)
        return v

    def paying(leg, k, st, v):
        # leg's payment at state st of level k plus the continuation v, as
        # an unreduced (numerator, positive denominator)
        ld, vd = leg.dens[k], v.denominator
        return leg.nums[k][st] * vd + v.numerator * ld, ld * vd

    def visit(k, m, i, hist):
        if k == N:
            return leaf[i][m]
        if states is not None:
            sid = states.get((k, m, i))
            if sid is not None:
                return sid
        up, dn, j = 2 * m + 1, 2 * m, i + 1
        if opponent_is_seller:
            h = hist + ((k, 0),)
            a = None if j > L else (visit(k + 1, up, j, h), visit(k + 1, dn, j, h))
            s = opponent.stops(i, k, m, hist)
            if s:
                h = hist + ((k, 1),)
                b = None if j > L else (visit(k + 1, up, j, h), visit(k + 1, dn, j, h))
            else:
                b = visit(k + 1, up, i, hist), visit(k + 1, dn, i, hist)
        else:
            s = opponent.stops(i, k, m, hist)
            h = hist + ((k, 0) if s else (k, 1),)
            a = None if j > L else (visit(k + 1, up, j, h), visit(k + 1, dn, j, h))
            b = None if s else (visit(k + 1, up, i, hist), visit(k + 1, dn, i, hist))
        # on the state route each (level, node, right) is visited once, so
        # its content key could never be met again
        key = None if states is not None else (k, m, i, s, a, b)
        sid = None if key is None else ids.get(key)
        if sid is None:
            st = tree.state(k, m)
            if opponent_is_seller:
                stop, after = paying(contract.Y(i), k, st, mix(a)), mix(b)
                alt = paying(contract.X(i), k, st, after) if s else (after.numerator, after.denominator)
                pick = stop[0] * alt[1] >= alt[0] * stop[1]
                sid = new(key, Fraction(*stop) if pick else Fraction(*alt) if s else after, pick)
            elif s:
                sid = new(key, Fraction(*paying(contract.Y(i), k, st, mix(a))))
            else:
                canc, cont = paying(contract.X(i), k, st, mix(a)), mix(b)
                pick = canc[0] * cont.denominator <= cont.numerator * canc[1]
                sid = new(key, Fraction(*canc) if pick else cont, pick)
        if states is not None:
            states[(k, m, i)] = sid
        elif decisions is not None and picks[sid] is not None:
            decisions[(i, k, m, hist)] = picks[sid]
        return sid

    value = vals[visit(0, 0, 1, ())]
    return value, DictStrategy(tree, L, decisions) if witness else None


@dataclass
class SaddleCertificate:
    ok: bool
    value: Fraction
    buyer_best_response: Fraction
    seller_best_response: Fraction
    buyer_witness: Optional[DictStrategy]
    seller_witness: Optional[DictStrategy]

    def to_json_dict(self):
        out = {
            "ok": self.ok,
            "value": format_rational(self.value),
            "buyer_best_response": format_rational(self.buyer_best_response),
            "seller_best_response": format_rational(self.seller_best_response),
        }
        if self.buyer_witness is not None:
            out["buyer_deviation"] = {
                "gain": format_rational(self.buyer_best_response - self.value),
                "strategy": self.buyer_witness.to_entries(),
            }
        if self.seller_witness is not None:
            out["seller_deviation"] = {
                "gain": format_rational(self.value - self.seller_best_response),
                "strategy": self.seller_witness.to_entries(),
            }
        return out


def certify_saddle(contract, seller, buyer, measure=MARTINGALE, cap=DEFAULT_ENUMERATION_CAP):
    """Check that (seller, buyer) is a saddle point of the expected payment.

    Plays the pair forward to get its value v, then computes each player's
    exact best response against the other held fixed, both from one table
    of maturity payments. The pair certifies when no buyer strategy beats v
    against this seller and no seller strategy pushes below v against this
    buyer. On failure the certificate carries the profitable deviation as
    an explicit strategy: the failing side's best response is walked once
    more to record it, so a passing pair records no decisions. A tree of
    more than `cap` nodes (cap=None sets no limit), or a strategy built for
    another contract, is refused before any strategy is asked anything.
    """
    check_cap(2 ** (contract.tree.params.N + 1) - 1, cap)
    v = play_value(contract, seller, buyer, measure)
    maturity = _maturity_payments(contract)

    def respond(opponent, opponent_is_seller, witness):
        return _best_response(contract, opponent, opponent_is_seller, measure, maturity, witness)

    b_val, _ = respond(seller, True, False)
    s_val, _ = respond(buyer, False, False)
    buyer_bad = b_val > v
    seller_bad = s_val < v
    return SaddleCertificate(
        ok=not (buyer_bad or seller_bad),
        value=v,
        buyer_best_response=b_val,
        seller_best_response=s_val,
        buyer_witness=respond(seller, True, True)[1] if buyer_bad else None,
        seller_witness=respond(buyer, False, True)[1] if seller_bad else None,
    )


# ---------------------------------------------------------------------------
# direct evaluation of the one-period transforms

def portfolio_at(psi1, psi2, p, a, b, y):
    """(value, smallest optimal alpha) of the portfolio transform at one
    point, no envelope assembly.

    For fixed y the objective is piecewise linear in the up-state wealth w1,
    with kinks only where w1 meets a breakpoint of psi1 or the matching
    down-state wealth meets a breakpoint of psi2, so the minimum over the
    admissible segment is the minimum over those finitely many candidates.
    They are evaluated in increasing w1 and the first of least value is
    kept; alpha = (w1 - y) / b grows with w1, so that is the smallest
    optimal alpha.
    """
    y = Fraction(y)
    pt = martingale_prob(a, b)
    cands = {Fraction(0)}
    for x, _ in psi1.points:
        if pt * x <= y:
            cands.add(x)
    for x, _ in psi2.points:
        if (1 - pt) * x <= y:
            cands.add((y - (1 - pt) * x) / pt)
    p = Fraction(p)
    best, best_w1 = None, None
    for w1 in sorted(cands):
        w2 = (y - pt * w1) / (1 - pt)
        v = p * psi1.eval(w1) + (1 - p) * psi2.eval(w2)
        if best is None or v < best:
            best, best_w1 = v, w1
    return best, (best_w1 - y) / Fraction(b)


def infusion_at(psi, A, y):
    """(value, smallest optimal injection) of the infusion transform at one
    point.

    The leftmost minimizer of w + psi(w) over w >= (y - A)^+ sits at the
    left end or at a breakpoint; the injection is that w minus (y - A).
    """
    y, A = Fraction(y), Fraction(A)
    c = max(y - A, Fraction(0))
    best, best_w = c + psi.eval(c), c
    for x, v in psi.points:
        if x > c and x + v < best:
            best, best_w = x + v, x
    return (A - y) + best, best_w + A - y


def grid_portfolio_value(psi1, psi2, p, a, b, y, resolution):
    """Portfolio transform restricted to a uniform control grid (an upper bound)."""
    y, p = Fraction(y), Fraction(p)
    a, b = Fraction(a), Fraction(b)
    lo, hi = -y / b, -y / a
    best = None
    for t in range(resolution + 1):
        alpha = lo + (hi - lo) * t / resolution
        v = p * psi1.eval(y + b * alpha) + (1 - p) * psi2.eval(y + a * alpha)
        if best is None or v < best:
            best = v
    return best


def grid_infusion_value(psi, A, y, resolution):
    """Infusion transform restricted to a uniform injection grid (an upper bound)."""
    y, A = Fraction(y), Fraction(A)
    zmin = max(A - y, Fraction(0))
    zcap = max(zmin, A - y + psi.support_end)
    best = None
    for t in range(resolution + 1):
        z = zmin + (zcap - zmin) * t / resolution
        v = z + psi.eval(y - A + z)
        if best is None or v < best:
            best = v
    return best


# ---------------------------------------------------------------------------
# bracketing grid scheme for the shortfall value

def grid_risk_oracle(contract, x, resolution=8):
    """Rigorous bracket (lower, upper) around the exact shortfall risk at x.

    Upper bound: the exact state recursion with the seller's portfolio and
    injection controls restricted to finite grids. Restricting the feasible
    sets can only raise a min, and the stage combination is monotone, so the
    result dominates the true value. States are memoized on exact wealth, so
    this side is only meant for shallow trees.

    Lower bound: a wealth-grid recursion that reads every continuation at the
    next grid point up. The true stage values are non-increasing in wealth,
    so rounding wealth up before reading an under-estimate keeps it an
    under-estimate; control minimizations are carried out exactly against
    those step functions, sampling every constancy piece.

    Doubling the resolution refines both grids in a nested way, so brackets
    shrink monotonically.
    """
    x = check_capital(x)
    if resolution < 1:
        raise ContractError("resolution must be a positive integer")
    tree = contract.tree
    params = tree.params
    N = params.N
    L = contract.L
    p = params.p
    a, b = params.a, params.b

    max_y = []
    for i in range(1, L + 1):
        proc = contract.Y(i)
        max_y.append(max(v for row in proc.values for v in row))
    # if the seller never cancels and never trades, total payments are at
    # most the sum of the worst exercise legs, so risk vanishes from there on
    rem_cap = [Fraction(0)] * (L + 1)
    for j in range(1, L + 1):
        rem_cap[j] = rem_cap[j - 1] + max_y[L - j]
    wmax = rem_cap[L]
    if wmax == 0:
        return Fraction(0), Fraction(0)

    def leg(i, k, m, which):
        proc = contract.Y(i) if which == "y" else contract.X(i)
        return proc.at(k, m)

    # ---- upper side ----
    memo = {}

    def upper(k, m, j, y):
        if j == 0:
            return Fraction(0)
        if k == N:
            return max(contract.terminal_bundle(L - j + 1, m) - y, Fraction(0))
        key = (k, m, j, y)
        if key in memo:
            return memo[key]
        i = L - j + 1
        up, dn = 2 * m + 1, 2 * m

        def invest(w, jj):
            if jj == 0:
                return Fraction(0)
            lo, hi = -w / b, -w / a
            best = None
            for t in range(resolution + 1):
                alpha = lo + (hi - lo) * t / resolution
                v = p * upper(k + 1, up, jj, w + b * alpha) \
                    + (1 - p) * upper(k + 1, dn, jj, w + a * alpha)
                if best is None or v < best:
                    best = v
            return best

        def settle(amount):
            zmin = max(amount - y, Fraction(0))
            cap = rem_cap[j - 1]
            best = None
            for t in range(resolution + 1):
                z = zmin + cap * t / resolution
                v = z + invest(y - amount + z, j - 1)
                if best is None or v < best:
                    best = v
                if cap == 0:
                    break
            return best

        exercise = settle(leg(i, k, m, "y"))
        cancel = settle(leg(i, k, m, "x"))
        cont = invest(y, j)
        out = min(cancel, max(exercise, cont))
        memo[key] = out
        return out

    hi_val = upper(0, 0, L, x)

    # ---- lower side ----
    G = resolution
    step = wmax / G

    def ceil_idx(w):
        if w > wmax:
            return None
        q, r = divmod(w * G, wmax)
        return int(q) + (1 if r else 0)

    def read(arr, w):
        idx = ceil_idx(w)
        return Fraction(0) if idx is None else arr[idx]

    def invest_lo(arr_up, arr_dn, w):
        lo, hi = -w / b, -w / a
        cands = {lo, hi}
        for g in range(G + 1):
            yg = g * step
            for rho in (b, a):
                al = (yg - w) / rho
                if lo < al < hi:
                    cands.add(al)
        xs = sorted(cands)
        xs = xs + [(x0 + x1) / 2 for x0, x1 in zip(xs, xs[1:])]
        best = None
        for alpha in xs:
            v = p * read(arr_up, w + b * alpha) + (1 - p) * read(arr_dn, w + a * alpha)
            if best is None or v < best:
                best = v
        return best

    # arrays indexed [j][g]; built from maturity backwards
    level = []
    for m in range(2 ** N):
        rows = [[Fraction(0)] * (G + 1)]
        for j in range(1, L + 1):
            base = contract.terminal_bundle(L - j + 1, m)
            rows.append([max(base - g * step, Fraction(0)) for g in range(G + 1)])
        level.append(rows)

    for k in range(N - 1, -1, -1):
        nxt_level = level
        level = []
        for m in range(2 ** k):
            up_rows = nxt_level[2 * m + 1]
            dn_rows = nxt_level[2 * m]
            # continuation value at every grid point, per remaining-rights count
            cont = [[invest_lo(up_rows[j], dn_rows[j], g * step)
                     for g in range(G + 1)] for j in range(L + 1)]

            def settle_lo(amount, y, jj):
                zmin = max(amount - y, Fraction(0))
                w0 = max(y - amount, Fraction(0))
                best = None
                for g in range(G + 1):
                    yg = g * step
                    if yg < w0 and not (g == 0 and w0 == 0):
                        continue
                    left = max(zmin, amount - y + (g - 1) * step) if g else zmin
                    v = left + cont[jj][g]
                    if best is None or v < best:
                        best = v
                beyond = max(zmin, amount - y + wmax)
                if best is None or beyond < best:
                    best = beyond
                return best

            rows = [[Fraction(0)] * (G + 1)]
            for j in range(1, L + 1):
                i = L - j + 1
                row = []
                for g in range(G + 1):
                    y = g * step
                    ex = settle_lo(leg(i, k, m, "y"), y, j - 1)
                    ca = settle_lo(leg(i, k, m, "x"), y, j - 1)
                    row.append(min(ca, max(ex, cont[j][g])))
                rows.append(row)
            level.append(rows)

    root = level[0][L]
    idx = ceil_idx(x)
    lo_val = Fraction(0) if idx is None else root[idx]
    return lo_val, hi_val
