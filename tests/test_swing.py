import gc
import hashlib
import json
import random
import time
from fractions import Fraction
from importlib import resources
from types import FunctionType, ModuleType, SimpleNamespace

import pytest

from conftest import (
    Recording,
    history_dependent_buyer,
    history_dependent_seller,
    random_contract,
)
from swinghedge.contract import build_contract
from swinghedge.dynkin import solve_dynkin
from swinghedge.errors import ContractError, EnumerationCapError
from swinghedge.market import AdaptedProcess, build_tree
from swinghedge.oracle import brute_force_value, certify_saddle
from swinghedge.shortfall import build_risk_stack, optimal_buyer, optimal_hedge
from swinghedge.swing import (
    StoppingStrategy,
    TableStrategy,
    optimal_strategies,
    price_swing,
    resolve,
    resolve_path,
    window_start,
)

MODEL = {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 2}


def two_calls(penalty):
    return build_contract({"model": MODEL, "claims": [
        {"exercise": {"kind": "call", "strike": "1"}, "penalty": penalty},
        {"exercise": {"kind": "call", "strike": "1"}, "penalty": penalty},
    ]})


def random_table_strategy(rng, tree, L):
    tables = []
    for _ in range(L):
        tables.append({(k, m): True
                       for k in range(tree.N) for m in range(2 ** k)
                       if rng.random() < 0.4})
    return TableStrategy(tree, L, tables)


def test_window_start():
    assert window_start((), 5) == 0
    assert window_start(((2, 0),), 5) == 3
    assert window_start(((2, 0), (4, 1)), 5) == 5
    assert window_start(((5, 0),), 5) == 5


def test_resolve_respects_windows_and_maturity():
    rng = random.Random(3)
    for _ in range(40):
        c = random_contract(rng)
        s = random_table_strategy(rng, c.tree, c.L)
        b = random_table_strategy(rng, c.tree, c.L)
        play = resolve(s, b)
        for path in c.tree.paths():
            events = play.events[path]
            assert len(events) == c.L
            last = -1
            for ev in events:
                assert ev.level >= min(last + 1, c.tree.N)
                assert ev.level <= c.tree.N
                if ev.d == 1:
                    assert ev.seller_stopped and not ev.buyer_stopped
                if ev.level == c.tree.N:
                    assert ev.d == 0
                last = ev.level


def strategy_pairs(rng, c):
    """(seller, buyer) pairs: the optimal tables, the trivial tables,
    history-dependent rules, and the optimal partial hedge's replays at
    capitals 0, price/2 and the price."""
    tree, L = c.tree, c.L
    stack, price = price_swing(c)
    seller, buyer = optimal_strategies(stack)
    wait, start = TableStrategy.all_wait(tree, L), TableStrategy.all_at_start(tree, L)
    rules = history_dependent_seller(rng, tree, L), history_dependent_buyer(rng, tree, L)
    pairs = [(seller, buyer), (wait, start), (start, wait), (wait, wait), rules, (seller, rules[1])]
    risk = build_risk_stack(c)
    for x in (0, price / 2, price):
        pairs.append((optimal_hedge(risk, x)[2], optimal_buyer(risk, x)))
    return pairs


def recorded(s, b):
    """s and b under Recording, both logging (side, question) to one list."""
    log = []
    pair = Recording(s), Recording(b)
    for side, rec in enumerate(pair):
        rec.log = SimpleNamespace(append=lambda question, side=side: log.append((side, question)))
    return pair, log


@pytest.mark.parametrize("seed, lattice", [(s, lat) for s in range(6) for lat in (False, True)])
def test_resolve_walk_asks_what_the_path_loop_asks(seed, lattice):
    """resolve gives every path resolve_path's events, in path order, and
    asks each distinct question once, in the order the paths first ask it."""
    rng = random.Random(500 + seed)
    c = random_contract(rng, max_n=5, max_l=3, recombining=lattice)
    for s, b in strategy_pairs(rng, c):
        walked, walk_log = recorded(s, b)
        events = resolve(*walked).events
        looped, loop_log = recorded(s, b)
        assert list(events.items()) == [(p, resolve_path(*looped, p)) for p in c.tree.paths()]
        assert walk_log == list(dict.fromkeys(loop_log))


@pytest.mark.parametrize("path", [-1, 4, 1.0])
def test_resolve_path_refuses_a_path_off_the_tree(path):
    c = two_calls({"kind": "constant", "value": "1"})
    s = Recording(TableStrategy.all_wait(c.tree, c.L))
    b = Recording(TableStrategy.all_at_start(c.tree, c.L))
    with pytest.raises(ContractError, match="path"):
        resolve_path(s, b, path)
    assert s.log == b.log == []


def test_tie_settles_as_exercise():
    c = two_calls({"kind": "constant", "value": "1/10"})
    s = TableStrategy.all_at_start(c.tree, c.L)
    b = TableStrategy.all_at_start(c.tree, c.L)
    play = resolve(s, b)
    for path in c.tree.paths():
        assert all(ev.d == 0 for ev in play.events[path])
    # seller alone cancelling marks the event
    b2 = TableStrategy.all_wait(c.tree, c.L)
    play2 = resolve(s, b2)
    assert all(play2.events[p][0].d == 1 for p in c.tree.paths())


def test_single_right_price_is_the_dynkin_value():
    rng = random.Random(7)
    for _ in range(25):
        c = random_contract(rng, max_l=1)
        _, price = price_swing(c)
        assert price == solve_dynkin(c.X(1), c.Y(1)).value.at(0, 0)


def test_price_matches_brute_force():
    rng = random.Random(9)
    for _ in range(60):
        c = random_contract(rng)
        _, price = price_swing(c)
        assert price == brute_force_value(c)


def test_optimal_pair_certifies():
    rng = random.Random(29)
    for _ in range(40):
        c = random_contract(rng)
        stack, price = price_swing(c)
        seller, buyer = optimal_strategies(stack)
        cert = certify_saddle(c, seller, buyer)
        assert cert.ok
        assert cert.value == price


def test_known_two_right_prices():
    assert price_swing(two_calls({"kind": "infinite-proxy"}))[1] == Fraction(2, 3)
    # free cancellation still hands over intrinsic value claim by claim:
    # cancel the first right at the root for nothing, the second right then
    # starts one period later and is worth its expected intrinsic 1/3
    free = two_calls({"kind": "constant", "value": "0"})
    assert price_swing(free)[1] == brute_force_value(free) == Fraction(1, 3)


def reachable(root):
    """Every object reachable from root through gc.get_referents, classes,
    modules and functions excluded, by id."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return seen


@pytest.mark.parametrize("recombining", [False, True])
def test_the_stack_keeps_only_its_value_processes(recombining):
    rng = random.Random(131 + recombining)
    for _ in range(10):
        c = random_contract(rng, max_n=5, max_l=3, recombining=recombining)
        result = price_swing(c)
        stack = result[0]
        held = {key for key, obj in reachable(c).items() if isinstance(obj, AdaptedProcess)}
        kept = {key for key, obj in reachable(result).items()
                if isinstance(obj, AdaptedProcess) and key not in held}
        assert kept == {id(v) for v in stack.V} and len(stack.V) == c.L
        assert all(sol.value is v for sol, v in zip(stack.solutions, stack.V, strict=True))


def test_both_resolvers_pass_on_a_strategy_refusal_alike():
    class RefusesAtLevel1(StoppingStrategy):
        def stops(self, i, k, m, history):
            if k == 1:
                raise ContractError(f"claim {i} refuses node ({k}, {m}) after {history}")
            return False

    c = two_calls({"kind": "constant", "value": "1"})
    wait = TableStrategy.all_wait(c.tree, c.L)
    for s, b in [(RefusesAtLevel1(c.tree, c.L), wait), (wait, RefusesAtLevel1(c.tree, c.L))]:
        with pytest.raises(ContractError) as walked:
            resolve(s, b)
        with pytest.raises(ContractError) as looped:
            for path in c.tree.paths():
                resolve_path(s, b, path)
        assert str(walked.value) == str(looped.value) == "claim 1 refuses node (1, 0) after ()"


def test_table_strategy_needs_all_claims():
    c = two_calls({"kind": "constant", "value": "1"})
    with pytest.raises(ContractError):
        TableStrategy(c.tree, c.L, [{}])


@pytest.mark.parametrize("recombining", [False, True])
def test_table_strategy_refuses_a_claim_outside_the_game(recombining):
    # claim 0 would read claim L's table, claim L + 1 no table at all
    c = two_calls({"kind": "constant", "value": "1"})
    tree = build_tree(c.tree.params, recombining)
    table = TableStrategy.all_at_start(tree, c.L)
    for i in (0, -1, c.L + 1):
        with pytest.raises(ContractError, match=f"claim {i} is not one of the game's claims 1..2"):
            table.stops(i, 0, 0, ())
    assert table.stops(1, 0, 0, ()) is table.stops(c.L, 0, 0, ()) is True


def test_the_resolvers_ask_a_strategy_s_own_trusted_route():
    # a class that defines _stops is asked through it; a subclass that does
    # not, and any other strategy, through stops
    class Trusted(StoppingStrategy):
        def stops(self, i, k, m, history):
            raise AssertionError("the public route was asked")

        def _stops(self, i, k, m, history):
            return k == 1

    class Public(Trusted):
        def stops(self, i, k, m, history):
            return k == 1

    c = two_calls({"kind": "constant", "value": "1"})
    wait = Recording(TableStrategy.all_wait(c.tree, c.L))
    for s, b in [(Trusted(c.tree, c.L), wait), (wait, Trusted(c.tree, c.L)),
                 (Public(c.tree, c.L), wait), (wait, Public(c.tree, c.L))]:
        play = resolve(s, b)
        assert {path: resolve_path(s, b, path) for path in c.tree.paths()} == play.events
        assert all(events[0].level == 1 for events in play.events.values())
    assert wait.log  # the recording table is asked through stops


def test_brute_force_cap():
    rng = random.Random(31)
    c = random_contract(rng, n=3, l=2)
    with pytest.raises(EnumerationCapError):
        brute_force_value(c, cap=100)


def test_resolve_refuses_a_tree_past_the_cap_before_asking():
    # an N=30 lattice: resolve would fill a 2^30-entry events dict
    c = build_contract({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 30},
        "claims": [
            {"exercise": {"kind": kind, "strike": "1"},
             "penalty": {"kind": "constant", "value": "1/10"}}
            for kind in ("call", "put")
        ],
    })

    class Unasked(StoppingStrategy):
        def stops(self, i, k, m, history):
            raise AssertionError("a strategy was asked")

    start = time.perf_counter()
    with pytest.raises(EnumerationCapError) as refused:
        resolve(Unasked(c.tree, c.L), Unasked(c.tree, c.L))
    assert time.perf_counter() - start < 1
    assert refused.value.needed == 2 ** 31 - 1


# ---- the whole value stack, pinned -----------------------------------------

# sha256 of value_fingerprint over value_pin_contracts, recorded before
# price_swing solved every right's game in one backward sweep
VALUE_PIN = "0af3d6b94601e5311e2f3683041d9a43e5907aba65e2931729678bb49ac99a22"


def value_pin_contracts():
    """The bundled contracts on the lattice and on the full tree, the L=3
    baseline lattice at N=60, then random contracts of both kinds."""
    base = resources.files("swinghedge") / "contracts"
    for name in sorted(entry.name for entry in base.iterdir() if entry.name.endswith(".json")):
        spec = json.loads((base / name).read_text())
        params = build_contract(spec).tree.params
        for recombining in (True, False):
            yield build_contract({"claims": spec["claims"]}, tree=build_tree(params, recombining))
    yield build_contract({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 60},
        "claims": [{"exercise": {"kind": kind, "strike": "1"},
                    "penalty": {"kind": "constant", "value": "1/10"}}
                   for kind in ("call", "put", "call")],
    })
    rng = random.Random(2309)
    for recombining in (True, False):
        for _ in range(20):
            yield random_contract(rng, max_n=6, max_l=3, recombining=recombining)


def value_fingerprint(stack) -> bytes:
    """Every V's numerator rows and level denominators and both sorted stop
    tables of every solution, stack level by stack level."""
    out = []
    for sol in stack.solutions:
        out.append(repr((sol.value.nums, sol.value.dens)))
        out.append(repr(sorted(sol.seller_stop.decisions.items())))
        out.append(repr(sorted(sol.buyer_stop.decisions.items())))
    return "\n".join(out).encode()


def test_the_whole_value_stack_is_pinned():
    digest = hashlib.sha256()
    for contract in value_pin_contracts():
        digest.update(value_fingerprint(price_swing(contract)[0]))
    assert digest.hexdigest() == VALUE_PIN


def test_both_resolvers_refuse_strategies_of_another_tree_or_claim_count():
    c = two_calls({"kind": "constant", "value": "1"})
    other = two_calls({"kind": "constant", "value": "1"})
    wait = TableStrategy.all_wait(c.tree, c.L)
    for stranger in (TableStrategy.all_wait(other.tree, c.L), TableStrategy.all_wait(c.tree, 1)):
        for s, b in [(wait, stranger), (stranger, wait)]:
            for play in (lambda: resolve(s, b), lambda: resolve_path(s, b, 0)):
                with pytest.raises(ContractError) as info:
                    play()
                assert str(info.value) == "strategies disagree on tree or claim count"
