import hashlib
import random
from fractions import Fraction

import pytest

from conftest import (
    MixPortfolio,
    Recording,
    history_dependent_seller,
    random_contract,
    random_params,
    random_path_dependent_contract,
)
from swinghedge.contract import build_contract
from swinghedge.market import build_tree
from swinghedge.errors import ContractError, EnumerationCapError
from swinghedge.hedge import (
    HedgeCheck,
    HedgeWitness,
    build_perfect_hedge,
    simulate_portfolio,
    verify_perfect_hedge,
)
from swinghedge.swing import (
    ClaimEvent,
    StoppingStrategy,
    TableStrategy,
    optimal_strategies,
    price_swing,
    resolve,
    window_start,
)

EPS = Fraction(1, 10 ** 6)


def test_perfect_hedge_units_replicate_both_children():
    # targets 3 up, 1 down from price 2 with b=1, a=-1/2 (ptilde = 1/3)
    c = build_contract({"model": {"S0": "2", "a": "-1/2", "b": "1", "p": "1/2", "N": 1},
                        "claims": [{"exercise": {"kind": "table", "values": [["0"], ["1", "3"]]},
                                    "penalty": {"kind": "constant", "value": "10"}}]})
    stack, _ = price_swing(c)
    start = Fraction(1, 3) * 3 + Fraction(2, 3) * 1  # capital = expected target
    units = build_perfect_hedge(stack).units(0, 0, 1, start)
    assert start + units * Fraction(2) * Fraction(1) == 3
    assert start + units * Fraction(2) * Fraction(-1, 2) == 1


def reference_units(hedge, level, node, claim, w):
    """The share count on wealth pair w by the formula asked afresh, as
    PerfectHedge answered before it kept a rule per (level, state, claim)."""
    L = hedge.stack.contract.L
    tree = hedge.tree
    if claim > L or level >= tree.N:
        return 0, 1
    Vk = hedge.stack.V[L - claim]
    row, den = Vk.nums[level + 1], Vk.dens[level + 1]
    vu = row[tree.state(level + 1, 2 * node + 1)]
    vd = row[tree.state(level + 1, 2 * node)]
    u, v = tree.ptilde.numerator, tree.ptilde.denominator
    if w[0] * v * den < (u * vu + (v - u) * vd) * w[1]:
        return 0, 1
    s = tree.stock.nums[level][tree.state(level, node)]
    spread = tree.params.b - tree.params.a
    return (vu - vd) * tree.stock.dens[level] * spread.denominator, den * s * spread.numerator


@pytest.mark.parametrize("recombining", [False, True])
def test_perfect_hedge_rules_answer_as_the_formula(recombining):
    # one instance asked every (level, node, claim), claim L + 1 and level N
    # included, in random order and at wealth below, at and above the
    # targets' expectation, on unreduced pairs too
    rng = random.Random(113 + recombining)
    for _ in range(12):
        c = random_contract(rng, max_n=5, max_l=3, recombining=recombining)
        tree, L = c.tree, c.L
        stack, _ = price_swing(c)
        hedge = build_perfect_hedge(stack)
        asks = []
        for level in range(tree.N + 1):
            for node in range(2 ** level):
                for claim in range(1, L + 2):
                    if claim > L or level == tree.N:
                        expect = Fraction(0)
                    else:
                        V = stack.V[L - claim]
                        expect = tree.ptilde * V.at(level + 1, 2 * node + 1) \
                            + (1 - tree.ptilde) * V.at(level + 1, 2 * node)
                    for w in (expect - Fraction(1, 7), expect, expect + Fraction(1, 7)):
                        asks.append((level, node, claim, (w.numerator, w.denominator)))
                        asks.append((level, node, claim, (3 * w.numerator, 3 * w.denominator)))
        rng.shuffle(asks)
        for level, node, claim, w in asks + asks:
            want = reference_units(hedge, level, node, claim, w)
            assert hedge._units(level, node, claim, w) == want
            assert hedge.units(level, node, claim, Fraction(*w)) == Fraction(*want)


def test_initial_capital_is_the_price():
    rng = random.Random(41)
    for _ in range(10):
        c = random_contract(rng)
        stack, price = price_swing(c)
        assert build_perfect_hedge(stack).initial_capital == price


def test_hedge_wealth_tracks_stack_values_on_contract_a():
    c = build_contract({"model": {"S0": "1", "a": "-1/2", "b": "1",
                                  "p": "1/2", "N": 1},
                        "claims": [{"exercise": {"kind": "call", "strike": "1"},
                                    "penalty": {"kind": "constant", "value": "1/10"}}]})
    stack, price = price_swing(c)
    hedge = build_perfect_hedge(stack)
    seller, buyer = optimal_strategies(stack)
    play = resolve(seller, buyer)
    for path in c.tree.paths():
        pre, post = simulate_portfolio(c, hedge, price, play.events[path], path)
        assert all(w >= 0 for w in post)


def test_perfect_hedge_covers_every_play():
    rng = random.Random(43)
    for _ in range(25):
        c = random_contract(rng)
        stack, price = price_swing(c)
        hedge = build_perfect_hedge(stack)
        check = verify_perfect_hedge(c, hedge, price)
        assert check.ok
        assert check.witness is None
        assert check.plays > 0


def test_hedge_fails_below_the_price_with_witness():
    rng = random.Random(47)
    found = 0
    for _ in range(25):
        c = random_contract(rng)
        stack, price = price_swing(c)
        if price == 0:
            continue
        found += 1
        hedge = build_perfect_hedge(stack)
        check = verify_perfect_hedge(c, hedge, price - EPS)
        assert not check.ok
        w = check.witness
        assert w is not None
        assert w.wealth < 0
        assert 0 <= w.level <= c.tree.N
    assert found >= 15


def test_witness_play_replays_to_the_reported_wealth():
    rng = random.Random(53)
    c = random_contract(rng, n=2, l=2)
    stack, price = price_swing(c)
    hedge = build_perfect_hedge(stack)
    check = verify_perfect_hedge(c, hedge, price - EPS)
    assert not check.ok
    w = check.witness
    pre, post = simulate_portfolio(c, hedge, price - EPS, w.events, w.path)
    assert min(post) == w.wealth


def test_verify_counts_every_play():
    c = build_contract({"model": {"S0": "1", "a": "-1/2", "b": "1",
                                  "p": "1/2", "N": 2},
                        "claims": [{"exercise": {"kind": "call", "strike": "1"},
                                    "penalty": {"kind": "constant", "value": "1"}}]})
    hedge = build_perfect_hedge(price_swing(c)[0])
    # capital 10 covers every play, so every play of the 4 paths is counted
    never = TableStrategy.all_wait(c.tree, 1)
    # the buyer alone can settle at level 0, 1, or 2
    assert verify_perfect_hedge(c, hedge, 10, never) == HedgeCheck(ok=True, plays=12)
    early = TableStrategy.all_at_start(c.tree, 1)
    # tie at the root or the seller cancelling alone
    assert verify_perfect_hedge(c, hedge, 10, early) == HedgeCheck(ok=True, plays=8)


def test_verify_refuses_a_strategy_built_for_another_contract():
    spec = {"model": {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 2},
            "claims": [{"exercise": {"kind": "call", "strike": "1"},
                        "penalty": {"kind": "constant", "value": "1"}}] * 2}
    c, other = build_contract(spec), build_contract(spec)
    stack, price = price_swing(c)
    hedge = build_perfect_hedge(stack)
    foreign, _ = optimal_strategies(price_swing(other)[0])
    for seller in (TableStrategy.all_wait(c.tree, 1), foreign):
        asked = Recording(seller)
        with pytest.raises(ContractError, match="another tree or claim count"):
            verify_perfect_hedge(c, hedge, price, asked)
        assert asked.log == []


def test_negative_capital_rejected():
    rng = random.Random(59)
    c = random_contract(rng)
    stack, _ = price_swing(c)
    hedge = build_perfect_hedge(stack)
    with pytest.raises(ContractError):
        verify_perfect_hedge(c, hedge, Fraction(-1))
    seller, buyer = optimal_strategies(stack)
    events = resolve(seller, buyer).events[0]
    with pytest.raises(ContractError, match="nonnegative"):
        simulate_portfolio(c, hedge, Fraction(-1), events, 0)


@pytest.mark.parametrize("capital", [0.5, 1.0, True, False])
def test_float_and_bool_capital_rejected(capital):
    c = random_contract(random.Random(59))
    stack, _ = price_swing(c)
    hedge = build_perfect_hedge(stack)
    seller, buyer = optimal_strategies(stack)
    events = resolve(seller, buyer).events[0]
    with pytest.raises(ContractError, match="not a rational"):
        verify_perfect_hedge(c, hedge, capital)
    with pytest.raises(ContractError, match="not a rational"):
        simulate_portfolio(c, hedge, capital, events, 0)


def forced_plays(contract, seller, path):
    """Every ClaimEvent sequence a buyer can force on one path, in order.

    Grows all plays one right at a time: each partial play extends by a
    buyer exercise at every level from the right's window up to the
    seller's first stop (maturity if none), then by the seller's own
    cancellation at that stop. Plays come out ordered by the first right's
    outcome, then the second's, and so on.
    """
    N = contract.tree.params.N
    plays = [()]
    for i in range(1, contract.L + 1):
        grown = []
        for play in plays:
            hist = tuple((ev.level, ev.d) for ev in play)
            start = window_start(hist, N)
            fire = start
            while fire < N and not seller.stops(i, fire, path >> (N - fire), hist):
                fire += 1
            for level in range(start, fire + 1):
                grown.append(play + (ClaimEvent(level, 0, level == fire, True),))
            if fire < N:
                grown.append(play + (ClaimEvent(fire, 1, True, False),))
        plays = grown
    return plays


def reference_check(contract, portfolio, x, seller):
    """The HedgeCheck of brute force: shares no code with hedge.py.

    Replays the wealth of every play on every path from the root, paths in
    increasing order, and stops at the first play whose wealth after some
    level's payments is negative. Prices are rebuilt from the market
    parameters, not read off the tree.
    """
    params = contract.tree.params
    N, L = params.N, contract.L
    count = 0
    for path in range(2 ** N):
        ups = [(path >> (N - k)).bit_count() for k in range(N + 1)]
        price = [params.S0 * (1 + params.b) ** u * (1 + params.a) ** (k - u)
                 for k, u in enumerate(ups)]
        for play in forced_plays(contract, seller, path):
            count += 1
            wealth = Fraction(x)
            paid = 0
            for k in range(N + 1):
                node = path >> (N - k)
                if k > 0 and paid < L:
                    shares = portfolio.units(k - 1, node >> 1, paid + 1, wealth)
                    wealth += shares * (price[k] - price[k - 1])
                for i, ev in enumerate(play, start=1):
                    if ev.level == k:
                        wealth -= (contract.X(i) if ev.d else contract.Y(i)).at(k, node)
                        paid += 1
                if wealth < 0:
                    bits = "".join("u" if path >> (N - 1 - j) & 1 else "d" for j in range(N))
                    return HedgeCheck(ok=False, plays=count, witness=HedgeWitness(
                        path=path, bits=bits, level=k, wealth=wealth, events=play))
    return HedgeCheck(ok=True, plays=count)


# primes, some past 2^31, that make the table denominators large
BIG_PRIMES = (1009, 65537, 1000003, 2 ** 31 - 1, 10 ** 9 + 7, 2 ** 61 - 1)


def random_table_contract(rng, recombining):
    """A contract of table legs whose entries have large denominators.

    On the full tree every entry is drawn on its own, so the legs are path
    dependent; on the lattice one entry is drawn per up-count class. Some
    entries are written unreduced. Half the contracts pay nothing for an
    exercise at the root, where the hedge then mostly starts at its funding
    threshold.
    """
    params = random_params(rng, n=rng.randint(2, 4))
    N = params.N
    big = int(params.S0 * 2) + 1

    def entry(hi):
        d = rng.choice(BIG_PRIMES) * rng.randint(1, 40)
        g = rng.randint(1, 3)
        return f"{g * rng.randint(0, hi * d)}/{g * d}"

    def table(hi):
        rows = []
        for k in range(N + 1):
            if recombining:
                per_class = [entry(hi) for _ in range(k + 1)]
                rows.append([per_class[m.bit_count()] for m in range(2 ** k)])
            else:
                rows.append([entry(hi) for _ in range(2 ** k)])
        return rows

    claims = []
    idle_root = rng.random() < 0.5
    for _ in range(rng.randint(1, 3)):
        exercise = table(big)
        if idle_root:
            exercise[0] = ["0"]
        if rng.random() < 0.5:
            penalty = {"kind": "table", "values": table(big)}
        else:
            penalty = {"kind": "constant", "value": entry(big)}
        claims.append({"exercise": {"kind": "table", "values": exercise}, "penalty": penalty})
    return build_contract({"claims": claims}, tree=build_tree(params, recombining))


def funding_threshold(stack):
    """Wealth at which the perfect hedge of the first right starts trading
    at the root: the martingale expectation of the top stack level's
    level-1 values."""
    q = stack.contract.tree.ptilde
    V = stack.V[-1]
    return q * V.at(1, 1) + (1 - q) * V.at(1, 0)


def coprime_capitals(stack, price):
    """The capitals next to the price over a prime that divides no level
    denominator of the stack."""
    scales = stack.V[-1].dens
    p = next(p for p in (7919, 7927, 7933, 7937) if all(c % p for c in scales))
    below = Fraction(int(price * p), p)
    return [below, below + Fraction(1, p)]


def matching_failures(c, sellers, portfolios, capitals, optimal):
    """Compare the walk with the brute force on every combination; returns
    the number of failing checks. portfolios[0] is the perfect hedge, which
    must cover every play against the optimal seller from the price on."""
    hedge = portfolios[0]
    price = hedge.initial_capital
    failures = 0
    for seller in sellers:
        for portfolio in portfolios:
            for x in capitals:
                check = verify_perfect_hedge(c, portfolio, x, seller)
                assert check == reference_check(c, portfolio, x, seller)
                if seller is optimal and portfolio is hedge and x >= price:
                    assert check.ok
                failures += not check.ok
    return failures


@pytest.mark.parametrize("recombining", [False, True])
def test_walk_matches_play_by_play_replay(recombining):
    rng = random.Random(61 + recombining)
    failures = 0
    for _ in range(10):
        c = random_contract(rng, max_n=5, max_l=3, recombining=recombining)
        tree, L = c.tree, c.L
        stack, price = price_swing(c)
        optimal, _ = optimal_strategies(stack)
        sellers = [
            optimal,
            TableStrategy.all_wait(tree, L),
            TableStrategy.all_at_start(tree, L),
            history_dependent_seller(rng, tree, L),
        ]
        portfolios = [build_perfect_hedge(stack), MixPortfolio(tree, rng.randrange(2 ** 30))]
        capitals = [x for x in (price, price - EPS, price / 2, Fraction(0)) if x >= 0]
        failures += matching_failures(c, sellers, portfolios, capitals, optimal)
    assert failures >= 20

    # table legs with large denominators, at capitals over a prime foreign
    # to the stack and at the hedge's funding threshold
    rng = random.Random(71 + recombining)
    failures = at_threshold = 0
    for _ in range(8):
        c = random_table_contract(rng, recombining)
        assert c.tree.recombining == recombining
        stack, price = price_swing(c)
        optimal, _ = optimal_strategies(stack)
        sellers = [optimal, history_dependent_seller(rng, c.tree, c.L)]
        portfolios = [build_perfect_hedge(stack), MixPortfolio(c.tree, rng.randrange(2 ** 30))]
        threshold = funding_threshold(stack)
        at_threshold += threshold == price
        capitals = [price, price - EPS, threshold] + coprime_capitals(stack, price)
        failures += matching_failures(c, sellers, portfolios, capitals, optimal)
    assert failures >= 10
    assert at_threshold >= 1


def test_verify_refuses_a_tree_past_the_cap_before_any_stop_query():
    c = build_contract({"model": {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 60},
                        "claims": [{"exercise": {"kind": "call", "strike": "1"},
                                    "penalty": {"kind": "constant", "value": "1/10"}}]})
    assert c.tree.recombining

    calls = []

    class Recording(StoppingStrategy):
        def stops(self, i, k, m, history):
            calls.append((i, k, m, history))
            return False

    with pytest.raises(EnumerationCapError):
        verify_perfect_hedge(c, MixPortfolio(c.tree, 1), Fraction(1), Recording(c.tree, c.L))
    assert calls == []


def test_verify_cap_counts_full_tree_nodes():
    c = random_contract(random.Random(67), n=2, l=1)
    stack, price = price_swing(c)
    hedge = build_perfect_hedge(stack)
    assert verify_perfect_hedge(c, hedge, price, cap=7).ok  # 2^3 - 1 nodes
    with pytest.raises(EnumerationCapError):
        verify_perfect_hedge(c, hedge, price, cap=6)


def test_verify_takes_no_cap_as_no_limit():
    c = random_contract(random.Random(67), n=2, l=1)
    stack, price = price_swing(c)
    hedge = build_perfect_hedge(stack)
    for x in (price, price - EPS):
        assert verify_perfect_hedge(c, hedge, x, cap=None) == verify_perfect_hedge(c, hedge, x)


# ---- the hedge walk, pinned ------------------------------------------------

# sha256 of hedge_fingerprint over hedge_pin_contracts, recorded before
# solve_dynkin became the one-game case of the value stack's sweep
HEDGE_PIN = "b2c9273c3499ef63d84529d1517f50c0dcfe1120c880eab48b392cb62f8156f0"


def hedge_pin_contracts():
    """Random contracts on the full tree and on the lattice, then full-tree
    table contracts with path-dependent legs."""
    rng = random.Random(2603)
    for recombining in (False, True):
        for _ in range(20):
            yield random_contract(rng, max_n=7, max_l=3, recombining=recombining)
    for n, l in [(3, 2), (4, 1), (5, 3), (6, 2), (7, 3), (8, 2)]:
        yield random_path_dependent_contract(rng, n, l)


def hedge_fingerprint(contract) -> bytes:
    """The perfect hedge's HedgeCheck, witness included, at the price, just
    below it (where that is not negative), at half of it and at 0, against
    the optimal, the never-early and the always-early seller."""
    tree, L = contract.tree, contract.L
    stack, price = price_swing(contract)
    hedge = build_perfect_hedge(stack)
    sellers = (optimal_strategies(stack)[0], TableStrategy.all_wait(tree, L),
               TableStrategy.all_at_start(tree, L))
    return "\n".join(
        repr(verify_perfect_hedge(contract, hedge, x, seller))
        for seller in sellers for x in (price, price - EPS, price / 2, Fraction(0)) if x >= 0
    ).encode()


def test_the_hedge_walk_is_pinned():
    digest = hashlib.sha256()
    for contract in hedge_pin_contracts():
        digest.update(hedge_fingerprint(contract))
    assert digest.hexdigest() == HEDGE_PIN
