import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    Recording,
    history_dependent_buyer,
    history_dependent_seller,
    random_claim,
    random_contract,
    random_path_dependent_contract,
)
from swinghedge.contract import build_contract
from swinghedge.errors import ContractError, EnumerationCapError
from swinghedge.market import MARKET, MARTINGALE, MarketParams, build_tree, measure_prob
from swinghedge.oracle import (
    DictStrategy,
    _best_response,
    _maturity_payments,
    brute_force_value,
    certify_saddle,
    count_stopping_times,
    count_strategy_profiles,
    enumerate_buyer_strategies,
    enumerate_stopping_times,
    grid_risk_oracle,
    play_value,
)
from swinghedge.shortfall import build_risk_stack
from swinghedge.swing import (
    TableStrategy,
    optimal_strategies,
    price_swing,
    resolve,
    window_start,
)

MODEL1 = {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 1}


def small_tree(n):
    return build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1,
                                   p=Fraction(1, 2), N=n))


def contract_a():
    return build_contract({"model": MODEL1, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}}]})


def test_stopping_time_counts():
    assert count_stopping_times(small_tree(1)) == 2
    assert count_stopping_times(small_tree(2)) == 5
    assert count_stopping_times(small_tree(3)) == 26
    assert count_stopping_times(small_tree(3), start_level=3) == 1


def test_enumeration_matches_count_and_is_distinct():
    for n in (1, 2, 3):
        tree = small_tree(n)
        times = enumerate_stopping_times(tree)
        assert len(times) == count_stopping_times(tree)
        seen = {tuple(sorted(t.decisions)) for t in times}
        assert len(seen) == len(times)


def test_enumeration_cap_carries_sizes():
    with pytest.raises(EnumerationCapError) as err:
        enumerate_stopping_times(small_tree(3), cap=10)
    assert err.value.needed == 26
    assert err.value.cap == 10


def test_profile_counts():
    two = build_contract({"model": dict(MODEL1, N=2), "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}},
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}}]})
    assert count_strategy_profiles(two) == (32, 20)
    three = build_contract({"model": dict(MODEL1, N=3), "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}},
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}}]})
    assert count_strategy_profiles(three) == (26225, 10025)


def test_enumerate_buyer_strategies():
    two = build_contract({"model": dict(MODEL1, N=2), "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}},
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}}]})
    buyers = enumerate_buyer_strategies(two)
    assert len(buyers) == 20
    fingerprints = {tuple(sorted(b.decisions.items())) for b in buyers}
    assert len(fingerprints) == 20
    # every enumerated strategy resolves against a fixed opponent
    seller = DictStrategy(two.tree, two.L, {})
    for b in buyers:
        play = resolve(seller, b)
        assert all(len(play.events[p]) == 2 for p in two.tree.paths())
    with pytest.raises(EnumerationCapError):
        enumerate_buyer_strategies(two, cap=19)


def test_brute_force_values_for_bundled_shapes():
    assert brute_force_value(contract_a()) == Fraction(1, 10)


def test_play_value_on_committed_strategies():
    c = contract_a()
    never = DictStrategy(c.tree, 1, {})
    wait = DictStrategy(c.tree, 1, {})
    assert play_value(c, never, wait) == Fraction(1, 3)
    eager = DictStrategy(c.tree, 1, {(1, 0, 0, ()): True})
    assert play_value(c, eager, wait) == Fraction(1, 10)
    assert play_value(c, eager, eager) == 0  # tie settles at the exercise leg


def test_certify_saddle_rejects_and_blames_the_right_side():
    c = contract_a()
    never = DictStrategy(c.tree, 1, {})
    wait = DictStrategy(c.tree, 1, {})
    cert = certify_saddle(c, never, wait)
    assert not cert.ok
    assert cert.value == Fraction(1, 3)
    assert cert.seller_best_response == Fraction(1, 10)
    assert cert.buyer_best_response == Fraction(1, 3)
    doc = cert.to_json_dict()
    assert doc["ok"] is False
    assert doc["seller_deviation"]["gain"] == "7/30"
    json.dumps(doc)  # serializable all the way down


def test_certify_saddle_accepts_the_solved_pair():
    rng = random.Random(61)
    for _ in range(20):
        c = random_contract(rng, max_n=2)
        stack, price = price_swing(c)
        cert = certify_saddle(c, *optimal_strategies(stack))
        assert cert.ok and cert.value == price
        doc = cert.to_json_dict()
        assert doc["ok"] is True
        assert "seller_deviation" not in doc


def test_grid_risk_oracle_brackets_and_nesting():
    c = contract_a()
    curve = build_risk_stack(c).curve()
    for x in [Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1)]:
        exact = curve.eval(x)
        lo8, hi8 = grid_risk_oracle(c, x, resolution=8)
        lo16, hi16 = grid_risk_oracle(c, x, resolution=16)
        assert lo8 <= lo16 <= exact <= hi16 <= hi8


def test_grid_risk_oracle_zero_contract():
    c = build_contract({"model": MODEL1, "claims": [
        {"exercise": {"kind": "table", "values": [["0"], ["0", "0"]]},
         "penalty": {"kind": "constant", "value": "1"}}]})
    assert grid_risk_oracle(c, Fraction(0)) == (Fraction(0), Fraction(0))


def test_grid_risk_oracle_input_guards():
    c = contract_a()
    for x in (Fraction(-1), 0.1, True):
        with pytest.raises(ContractError):
            grid_risk_oracle(c, x)
    with pytest.raises(ContractError):
        grid_risk_oracle(c, Fraction(0), resolution=0)


def reference_best_response(contract, opponent, opponent_is_seller, measure):
    """The best reply by a plain recursion with one value per history.

    Every (node, right, history) state pays its own arithmetic; nothing is
    shared between histories. Returns the value and the reply's decisions.
    """
    tree = contract.tree
    N, L = tree.params.N, contract.L
    q = measure_prob(tree, measure)
    memo = {}
    decisions = {}

    def value(k, m, i, hist):
        if k == N:
            return contract.terminal_bundle(i, m)
        key = (k, m, i, hist)
        if key in memo:
            return memo[key]
        up, dn = 2 * m + 1, 2 * m

        def nxt(j, h):
            if j > L:
                return Fraction(0)
            return q * value(k + 1, up, j, h) + (1 - q) * value(k + 1, dn, j, h)

        y = contract.Y(i).at(k, m)
        x = contract.X(i).at(k, m)
        if opponent_is_seller:
            stop_val = y + nxt(i + 1, hist + ((k, 0),))
            if opponent.stops(i, k, m, hist):
                alt = x + nxt(i + 1, hist + ((k, 1),))
            else:
                alt = nxt(i, hist)
            best = max(stop_val, alt)
            decisions[(i, k, m, hist)] = stop_val >= alt
        else:
            if opponent.stops(i, k, m, hist):
                best = y + nxt(i + 1, hist + ((k, 0),))
            else:
                canc = x + nxt(i + 1, hist + ((k, 1),))
                cont = nxt(i, hist)
                best = min(canc, cont)
                decisions[(i, k, m, hist)] = canc <= cont
        memo[key] = best
        return best

    return value(0, 0, 1, ()), decisions


def reference_play_value(contract, seller, buyer, measure):
    """The expected total payment by playing every scenario separately.

    Each of the 2^N paths is walked from the root on its own, both players
    asked at every level the play reaches on it, and its payment weighted
    by the path's probability; nothing is shared between paths.
    """
    tree = contract.tree
    N = tree.params.N
    q = measure_prob(tree, measure)
    total = Fraction(0)
    for path in tree.paths():
        hist = ()
        paid = Fraction(0)
        for i in range(1, contract.L + 1):
            k = window_start(hist, N)
            while True:
                m = tree.node_on_path(path, k)
                forced = k == N
                ss = forced or seller.stops(i, k, m, hist)
                bs = forced or buyer.stops(i, k, m, hist)
                if ss or bs:
                    d = 1 if (ss and not bs) else 0
                    leg = contract.X(i) if d else contract.Y(i)
                    paid += leg.at(k, m)
                    hist = hist + ((k, d),)
                    break
                k += 1
        total += tree.path_prob(path, q) * paid
    return total


def strategy_zoo(rng, contract):
    """(sellers, buyers): optimal, never early, always early, history-dependent."""
    tree, L = contract.tree, contract.L
    seller, buyer = optimal_strategies(price_swing(contract)[0])
    simple = [TableStrategy.all_wait(tree, L), TableStrategy.all_at_start(tree, L)]
    return ([seller] + simple + [history_dependent_seller(rng, tree, L)],
            [buyer] + simple + [history_dependent_buyer(rng, tree, L)])


@pytest.mark.parametrize("recombining", [False, True])
def test_interned_best_response_matches_the_history_recursion(recombining):
    rng = random.Random(71 + recombining)
    for _ in range(12):
        c = random_contract(rng, max_n=5, max_l=3, recombining=recombining)
        sellers, buyers = strategy_zoo(rng, c)
        for opponent in sellers + [buyers[0], buyers[3]]:
            for opponent_is_seller in (True, False):
                for measure in (MARTINGALE, MARKET):
                    asked, asked_ref = Recording(opponent), Recording(opponent)
                    value, witness = _best_response(c, asked, opponent_is_seller, measure,
                                                    _maturity_payments(c), True)
                    ref_value, ref_decisions = reference_best_response(
                        c, asked_ref, opponent_is_seller, measure)
                    assert value == ref_value
                    assert witness.decisions == ref_decisions
                    assert asked.log == asked_ref.log
                    asked = Recording(opponent)
                    assert _best_response(c, asked, opponent_is_seller, measure,
                                          _maturity_payments(c), False) == (ref_value, None)
                    assert asked.log == asked_ref.log


def test_best_responses_on_path_dependent_legs_match_the_history_recursion():
    # full-tree table legs; a plain table opponent without a witness takes
    # the state route, every other case the walk over histories
    rng = random.Random(107)
    for n, l in [(3, 1), (3, 3), (4, 2), (5, 3), (6, 1), (6, 2), (6, 3)]:
        c = random_path_dependent_contract(rng, n, l)
        maturity = _maturity_payments(c)
        sellers, buyers = strategy_zoo(rng, c)
        for opponent in sellers + [buyers[0], buyers[3]]:
            for opponent_is_seller in (True, False):
                for measure in (MARTINGALE, MARKET):
                    ref_value, ref_decisions = reference_best_response(
                        c, opponent, opponent_is_seller, measure)
                    assert _best_response(c, opponent, opponent_is_seller, measure,
                                          maturity, False) == (ref_value, None)
                    value, witness = _best_response(c, opponent, opponent_is_seller, measure,
                                                    maturity, True)
                    assert value == ref_value
                    assert witness.decisions == ref_decisions


def tied_contracts(rng, recombining):
    """Contracts whose branches tie: a constant penalty of 0, so X == Y
    before maturity, and the same claims with every leg zero."""
    for _ in range(6):
        c = random_contract(rng, max_n=5, max_l=3, recombining=recombining)
        claims = [random_claim(rng, c.tree.params) for _ in range(c.L)]
        for claim in claims:
            claim["penalty"] = {"kind": "constant", "value": 0}
        yield build_contract({"claims": claims}, tree=c.tree)
        for claim in claims:
            claim["exercise"] = {"kind": "call", "strike": c.tree.params.S0 * 10 ** 6}
        yield build_contract({"claims": claims}, tree=c.tree)


@pytest.mark.parametrize("recombining", [False, True])
def test_tied_branches_pick_as_the_history_recursion(recombining):
    # ties go to cancel for the seller's reply and to stop for the buyer's;
    # a plain table opponent without a witness takes the state route, a
    # Recording one the walk over histories
    rng = random.Random(127 + recombining)
    for c in tied_contracts(rng, recombining):
        maturity = _maturity_payments(c)
        sellers, buyers = strategy_zoo(rng, c)
        for opponent in sellers + buyers:
            for opponent_is_seller in (True, False):
                for measure in (MARTINGALE, MARKET):
                    asked_ref = Recording(opponent)
                    ref_value, ref_decisions = reference_best_response(
                        c, asked_ref, opponent_is_seller, measure)
                    asked = Recording(opponent)
                    value, witness = _best_response(c, asked, opponent_is_seller, measure,
                                                    maturity, True)
                    assert (value, witness.decisions, asked.log) == \
                        (ref_value, ref_decisions, asked_ref.log)
                    asked = Recording(opponent)
                    assert _best_response(c, asked, opponent_is_seller, measure,
                                          maturity, False) == (ref_value, None)
                    assert asked.log == asked_ref.log
                    assert _best_response(c, opponent, opponent_is_seller, measure,
                                          maturity, False) == (ref_value, None)


@pytest.mark.parametrize("recombining", [False, True])
def test_the_certificate_builds_no_fraction_row_of_a_leg(recombining):
    rng = random.Random(131 + recombining)
    if recombining:
        c = random_contract(rng, n=5, l=3, recombining=True)
    else:
        c = random_path_dependent_contract(rng, 5, 3)
    tree, L = c.tree, c.L
    seller, buyer = optimal_strategies(price_swing(c)[0])
    never, early = TableStrategy.all_wait(tree, L), TableStrategy.all_at_start(tree, L)
    assert certify_saddle(c, seller, buyer).ok
    witnesses = set()
    for pair in ((seller, never), (seller, early), (never, buyer), (early, buyer)):
        cert = certify_saddle(c, *pair)
        witnesses |= {side for side, w in (("buyer", cert.buyer_witness),
                                           ("seller", cert.seller_witness)) if w is not None}
    assert witnesses == {"buyer", "seller"}  # both witness walks ran
    play_value(c, early, never)
    legs = [leg for i in range(1, L + 1) for leg in (c.X(i), c.Y(i))]
    assert all(row is None for leg in legs for row in leg._rows)


def reference_maturity_payments(contract):
    """The interned maturity payments by Fraction sums, node by node."""
    N, L = contract.tree.params.N, contract.L
    ids, vals = {}, []
    leaf = [None] * (L + 1)
    bundle = [Fraction(0)] * 2 ** N
    for i in range(L, 0, -1):
        Y = contract.Y(i)
        bundle = [Y.at(N, m) + rest for m, rest in enumerate(bundle)]
        row = leaf[i] = []
        for v in bundle:
            key = v.as_integer_ratio()
            if key not in ids:
                ids[key] = len(vals)
                vals.append(v)
            row.append(ids[key])
    return vals, leaf


@pytest.mark.parametrize("recombining", [False, True])
def test_maturity_payments_match_the_fraction_sums(recombining):
    rng = random.Random(91 + recombining)
    for _ in range(20):
        c = random_contract(rng, max_n=6, max_l=3, recombining=recombining)
        claims = [random_claim(rng, c.tree.params) for _ in range(c.L)]
        for claim in rng.sample(claims, rng.randint(1, c.L)):  # legs that pay nothing
            claim["exercise"] = {"kind": "call", "strike": c.tree.params.S0 * 10 ** 6}
        zeros = build_contract({"claims": claims}, tree=c.tree)
        for contract in (c, zeros):
            vals, leaf = _maturity_payments(contract)
            assert (vals, leaf) == reference_maturity_payments(contract)
            assert all(type(v) is Fraction for v in vals)


def random_table(rng, tree, L, rate):
    """A history-blind strategy that stops at random, by state on the lattice."""
    return TableStrategy(tree, L, [
        {(k, s): rng.random() < rate for k in range(tree.N) for s in range(tree.width(k))}
        for _ in range(L)
    ], by_state=True)


@pytest.mark.parametrize("recombining", [False, True])
def test_a_table_opponent_is_asked_once_per_claim_level_and_node(recombining, monkeypatch):
    asked = []
    table_stops = TableStrategy.stops

    def logged(self, i, k, m, history):
        asked.append((i, k, m))
        return table_stops(self, i, k, m, history)

    monkeypatch.setattr(TableStrategy, "stops", logged)
    rng = random.Random(97 + recombining)
    for _ in range(10):
        c = random_contract(rng, max_n=5, max_l=3, recombining=recombining)
        tree, L = c.tree, c.L
        maturity = _maturity_payments(c)
        tables = [*optimal_strategies(price_swing(c)[0]), TableStrategy.all_wait(tree, L),
                  TableStrategy.all_at_start(tree, L), random_table(rng, tree, L, 0.3)]
        for opponent in tables:
            for opponent_is_seller in (True, False):
                for measure in (MARTINGALE, MARKET):
                    del asked[:]
                    value, reply = _best_response(c, opponent, opponent_is_seller, measure,
                                                  maturity, False)
                    assert reply is None and len(asked) == len(set(asked))
                    walked = Recording(opponent)  # the history walk
                    ref_value, ref_reply = _best_response(c, walked, opponent_is_seller, measure,
                                                          maturity, True)
                    assert value == ref_value
                    assert set(asked) == {(i, k, m) for i, k, m, _ in walked.log}
                    _, witness = _best_response(c, opponent, opponent_is_seller, measure,
                                                maturity, True)
                    assert witness.decisions == ref_reply.decisions


class HistoryTable(TableStrategy):
    """A table whose answer flips after an odd number of cancellations."""

    def stops(self, i, k, m, history):
        return super().stops(i, k, m, history) != (sum(d for _, d in history) % 2 == 1)


@pytest.mark.parametrize("recombining", [False, True])
def test_a_table_that_reads_its_history_takes_the_history_walk(recombining):
    rng = random.Random(101 + recombining)
    differs = 0
    for _ in range(10):
        c = random_contract(rng, max_n=4, max_l=3, recombining=recombining)
        tree, L = c.tree, c.L
        plain = [TableStrategy.all_wait(tree, L), random_table(rng, tree, L, 0.3)]
        sellers = [HistoryTable(tree, L, t.tables, t.by_state) for t in plain]
        buyers = [HistoryTable(tree, L, t.tables, t.by_state) for t in reversed(plain)]
        for seller, buyer in zip(sellers, buyers):
            for measure in (MARTINGALE, MARKET):
                v = play_value(c, seller, buyer, measure)
                b_val, b_dec = reference_best_response(c, seller, True, measure)
                s_val, s_dec = reference_best_response(c, buyer, False, measure)
                expected = (b_val <= v <= s_val, v, b_val, s_val,
                            b_dec if b_val > v else None, s_dec if s_val < v else None)
                assert certificate_fields(certify_saddle(c, seller, buyer, measure)) == expected
                blind = (reference_best_response(c, TableStrategy(tree, L, seller.tables), True,
                                                 measure)[0],
                         reference_best_response(c, TableStrategy(tree, L, buyer.tables), False,
                                                 measure)[0])
                differs += blind != (b_val, s_val)
    assert differs >= 5


@pytest.mark.parametrize("recombining", [False, True])
def test_forward_play_value_matches_the_per_path_play(recombining):
    rng = random.Random(83 + recombining)
    for _ in range(8):
        c = random_contract(rng, max_n=5, max_l=3, recombining=recombining)
        sellers, buyers = strategy_zoo(rng, c)
        for seller in sellers:
            for buyer in buyers:
                for measure in (MARTINGALE, MARKET):
                    assert play_value(c, seller, buyer, measure) == \
                        reference_play_value(c, seller, buyer, measure)


@pytest.mark.parametrize("recombining", [False, True])
def test_a_passing_certificate_walks_each_side_once(recombining):
    rng = random.Random(89 + recombining)
    for _ in range(6):
        c = random_contract(rng, max_n=4, max_l=3, recombining=recombining)
        seller, buyer = optimal_strategies(price_swing(c)[0])
        asked_seller, asked_buyer = Recording(seller), Recording(buyer)
        assert certify_saddle(c, asked_seller, asked_buyer).ok
        once_seller, once_buyer = Recording(seller), Recording(buyer)
        play_value(c, once_seller, once_buyer)
        maturity = _maturity_payments(c)
        _best_response(c, once_seller, True, MARTINGALE, maturity, False)
        _best_response(c, once_buyer, False, MARTINGALE, maturity, False)
        assert sorted(asked_seller.log) == sorted(once_seller.log)
        assert sorted(asked_buyer.log) == sorted(once_buyer.log)


def certificate_fields(cert):
    return (cert.ok, cert.value, cert.buyer_best_response, cert.seller_best_response,
            cert.buyer_witness and cert.buyer_witness.decisions,
            cert.seller_witness and cert.seller_witness.decisions)


@pytest.mark.parametrize("recombining", [False, True])
def test_certificates_of_failing_pairs_match_the_history_recursion(recombining):
    rng = random.Random(73 + recombining)
    witnesses = 0
    for _ in range(8):
        c = random_contract(rng, max_n=4, max_l=3, recombining=recombining)
        sellers, buyers = strategy_zoo(rng, c)
        for seller in sellers:
            for buyer in buyers:
                for measure in (MARTINGALE, MARKET):
                    v = play_value(c, seller, buyer, measure)
                    b_val, b_dec = reference_best_response(c, seller, True, measure)
                    s_val, s_dec = reference_best_response(c, buyer, False, measure)
                    expected = (b_val <= v <= s_val, v, b_val, s_val,
                                b_dec if b_val > v else None, s_dec if s_val < v else None)
                    cert = certify_saddle(c, seller, buyer, measure)
                    assert certificate_fields(cert) == expected
                    witnesses += (cert.buyer_witness is not None) + (cert.seller_witness is not None)
    assert witnesses >= 100


def n60_contract():
    c = build_contract({"model": dict(MODEL1, N=60), "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}}] * 2})
    assert c.tree.recombining
    return c


def test_certify_refuses_a_tree_past_the_cap_before_any_stop_query():
    c = n60_contract()
    seller, buyer = Recording(DictStrategy(c.tree, c.L, {})), Recording(DictStrategy(c.tree, c.L, {}))
    with pytest.raises(EnumerationCapError) as err:
        certify_saddle(c, seller, buyer)
    assert err.value.needed == 2 ** 61 - 1
    assert seller.log == buyer.log == []


def test_certify_and_play_value_refuse_a_strategy_built_for_another_contract():
    spec = {"model": dict(MODEL1, N=2), "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}}] * 2}
    c, other = build_contract(spec), build_contract(spec)
    seller, buyer = optimal_strategies(price_swing(c)[0])
    foreign_seller, foreign_buyer = optimal_strategies(price_swing(other)[0])
    short = TableStrategy.all_wait(c.tree, 1)
    for pair in ((short, buyer), (seller, short), (foreign_seller, buyer), (seller, foreign_buyer)):
        asked = [Recording(s) for s in pair]
        for check in (certify_saddle, play_value):
            with pytest.raises(ContractError, match="another tree or claim count"):
                check(c, *asked)
        assert asked[0].log == asked[1].log == []


def test_certify_cap_counts_full_tree_nodes():
    c = random_contract(random.Random(79), n=2, l=1)
    seller, buyer = optimal_strategies(price_swing(c)[0])
    assert certify_saddle(c, seller, buyer, cap=7).ok  # 2^3 - 1 nodes
    with pytest.raises(EnumerationCapError):
        certify_saddle(c, seller, buyer, cap=6)


def test_certify_takes_no_cap_as_no_limit():
    c = random_contract(random.Random(79), n=2, l=1)
    seller, buyer = optimal_strategies(price_swing(c)[0])
    never = DictStrategy(c.tree, c.L, {})
    for pair in ((seller, buyer), (never, never)):
        assert certificate_fields(certify_saddle(c, *pair, cap=None)) == \
            certificate_fields(certify_saddle(c, *pair))


def test_enumerations_refuse_a_deep_tree_before_counting_every_node():
    c = n60_contract()
    start = time.perf_counter()
    for enumerate_ in (brute_force_value, enumerate_buyer_strategies,
                       lambda c: enumerate_stopping_times(c.tree)):
        with pytest.raises(EnumerationCapError):
            enumerate_(c)
    assert time.perf_counter() - start < 5


# ---- the certificate and the best responses, pinned ------------------------

# sha256 of certificate_fingerprint over certificate_pin_contracts, recorded
# before solve_dynkin became the one-game case of the value stack's sweep
CERTIFICATE_PIN = "407ee028f656a56729a8f5c184fd084f43e3120f2839440cf563505dc8269b8c"


def certificate_pin_contracts():
    """Random contracts on the full tree and on the lattice, then full-tree
    table contracts with path-dependent legs."""
    rng = random.Random(2601)
    for recombining in (False, True):
        for _ in range(8):
            yield random_contract(rng, max_n=4, max_l=3, recombining=recombining)
    for n, l in [(3, 2), (4, 1), (4, 3), (5, 2)]:
        yield random_path_dependent_contract(rng, n, l)


def certificate_fingerprint(rng, contract) -> bytes:
    """Every certificate of the strategy zoo's pairs under both measures,
    witnesses sorted, then every best response to each zoo strategy with its
    witness on and off, with the questions it asked in order."""
    sellers, buyers = strategy_zoo(rng, contract)
    maturity = _maturity_payments(contract)
    out = []
    for measure in (MARTINGALE, MARKET):
        for seller in sellers:
            for buyer in buyers:
                cert = certify_saddle(contract, seller, buyer, measure)
                out.append(repr(certificate_fields(cert)[:4]))
                for witness in (cert.buyer_witness, cert.seller_witness):
                    out.append(repr(witness and sorted(witness.decisions.items())))
        for opponents, opponent_is_seller in ((sellers, True), (buyers, False)):
            for opponent in opponents:
                for witness in (False, True):
                    asked = Recording(opponent)
                    value, reply = _best_response(contract, asked, opponent_is_seller,
                                                  measure, maturity, witness)
                    out.append(repr((value, reply and sorted(reply.decisions.items()))))
                    out.append(repr(asked.log))
    return "\n".join(out).encode()


def test_the_certificate_and_best_responses_are_pinned():
    rng = random.Random(2602)
    digest = hashlib.sha256()
    for contract in certificate_pin_contracts():
        digest.update(certificate_fingerprint(rng, contract))
    assert digest.hexdigest() == CERTIFICATE_PIN
