"""The recombining lattice against the full tree.

Markov contracts are built twice, once on the lattice build_contract picks
for them and once on a forced full tree; every value, control and play the
two produce must agree exactly, read by full-tree node index. The large-N
tests forbid building any full tree, so a regression that allocates 2^N
nodes fails at once instead of exhausting memory.
"""

import json
import random
from fractions import Fraction

import pytest

from conftest import random_claim, random_params
from swinghedge.cli import main
from swinghedge.contract import build_contract
from swinghedge.errors import ContractError
from swinghedge.market import MarketParams, ScenarioTree
from swinghedge.shortfall import (
    StackInfusion,
    StackPortfolio,
    build_risk_stack,
    evaluate_policy_risk,
    evaluate_risk,
    optimal_buyer,
    optimal_hedge,
    simulate_with_infusion,
)
from swinghedge.swing import optimal_strategies, price_swing, resolve

F = Fraction


def markov_table(rng, N, scale):
    """Per-node rows constant on every up-count class."""
    rows = []
    for k in range(N + 1):
        by_ups = [scale * F(rng.randint(0, 8), 4) for _ in range(k + 1)]
        rows.append([by_ups[m.bit_count()] for m in range(2 ** k)])
    return rows


def markov_claim(rng, params):
    claim = random_claim(rng, params)
    if rng.random() < 0.25:
        claim["exercise"] = {"kind": "table", "values": markov_table(rng, params.N, params.S0)}
    if rng.random() < 0.2:
        claim["penalty"] = {"kind": "table", "values": markov_table(rng, params.N, 1)}
    return claim


def test_lattice_matches_tree():
    rng = random.Random(2027)
    for _ in range(14):
        params = random_params(rng, max_n=6)
        L = rng.randint(1, 3)
        spec = {"model": params.to_dict(),
                "claims": [markov_claim(rng, params) for _ in range(L)]}
        lat = build_contract(spec)
        full = build_contract(spec, tree=ScenarioTree(params))
        N = params.N
        assert lat.tree.recombining and not full.tree.recombining
        assert lat.tree.node_count == (N + 1) * (N + 2) // 2
        nodes = [(k, m) for k in range(N + 1) for m in range(2 ** k)]

        lat_stack, lat_price = price_swing(lat)
        full_stack, full_price = price_swing(full)
        assert lat_price == full_price
        # the stack keeps no Xk or Yk: equal legs and equal V make equal games
        lat_procs, full_procs = (
            [leg for i in range(1, L + 1) for leg in (c.X(i), c.Y(i))] + stack.V
            for c, stack in ((lat, lat_stack), (full, full_stack))
        )
        for a, b in zip(lat_procs, full_procs, strict=True):
            assert all(a.at(k, m) == b.at(k, m) for k, m in nodes)
        for a, b in zip(lat_stack.solutions, full_stack.solutions):
            for side in ("seller_stop", "buyer_stop"):
                lat_stop, full_stop = getattr(a, side), getattr(b, side)
                assert all(lat_stop.stops_at(k, m) == full_stop.stops_at(k, m) for k, m in nodes)

        lat_sides = optimal_strategies(lat_stack)
        full_sides = optimal_strategies(full_stack)
        for a, b in zip(lat_sides, full_sides):
            for i in range(1, L + 1):
                assert all(a.stops(i, k, m, ()) == b.stops(i, k, m, ())
                           for k, m in nodes if k < N)
            assert list(a.entries()) == list(b.entries())
            assert a.entry_count() == b.entry_count()
        assert resolve(*lat_sides).events == resolve(*full_sides).events

        lat_risk, full_risk = build_risk_stack(lat), build_risk_stack(full)
        assert lat_risk.curve() == full_risk.curve()
        for k, m in nodes:
            for j in range(L + 1):
                assert lat_risk.J[lat_risk.key(k, m, j)] == full_risk.J[full_risk.key(k, m, j)]
        xs = [x for x, _ in lat_risk.curve().points]
        controls = [(StackPortfolio(s), StackInfusion(s)) for s in (lat_risk, full_risk)]
        (lat_gamma, lat_inf), (full_gamma, full_inf) = controls
        for k, m in nodes:
            for claim in range(1, L + 1):
                for x in xs:
                    assert lat_gamma.units(k, m, claim, x) == full_gamma.units(k, m, claim, x)
                    for y in (x, -x):
                        assert lat_inf.amount(k, m, claim, y) == full_inf.amount(k, m, claim, y)

        # the optimal play and its policy runs, at zero capital and the first kinks
        for x in xs[:3]:
            runs = []
            for risk in (lat_risk, full_risk):
                c = risk.contract
                gamma, infusion, seller = optimal_hedge(risk, x)
                play = resolve(seller, optimal_buyer(risk, x))
                outcomes = [simulate_with_infusion(c, gamma, infusion, play.events[path], path, x)
                            for path in c.tree.paths()]
                run = [play.events, outcomes]
                if N <= 4:
                    policy = evaluate_policy_risk(c, gamma, infusion, x)
                    committed = evaluate_risk(c, gamma, infusion, seller, x, mode="recursion")
                    run += [policy.value, policy.table, committed]
                runs.append(run)
            assert runs[0] == runs[1]


def test_path_dependent_table_stays_on_the_tree():
    rows = [["1"], ["0", "1"], ["0", "1", "2", "3"]]
    c = build_contract({"model": {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 2},
                        "claims": [{"exercise": {"kind": "table", "values": rows},
                                    "penalty": {"kind": "constant", "value": "1"}}]})
    assert not c.tree.recombining
    assert c.tree.node_count == 7
    with pytest.raises(ContractError):
        build_contract({"claims": [{"exercise": {"kind": "table", "values": rows},
                                    "penalty": {"kind": "constant", "value": "1"}}]},
                       tree=ScenarioTree(c.tree.params, recombining=True))


@pytest.mark.parametrize("penalty, level", [
    # -1 on both nodes of up-count 1 at level 2: the tree names "du" first
    ({"kind": "table", "values": [["0"], ["0", "0"], ["0", "-1", "-1", "0"]]}, "level 2, path du"),
    ({"kind": "table", "values": [["0"], ["0", "0"], ["0", "0", "0", "-1"]]}, "level 2, path uu"),
])
def test_lattice_errors_name_the_tree_node(penalty, level):
    spec = {"model": {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 2},
            "claims": [{"exercise": {"kind": "call", "strike": "1/2"}, "penalty": penalty}]}
    with pytest.raises(ContractError) as on_lattice:
        build_contract(spec)
    with pytest.raises(ContractError) as on_tree:
        build_contract(spec, tree=ScenarioTree(MarketParams.from_dict(spec["model"])))
    assert str(on_lattice.value) == str(on_tree.value)
    assert str(on_lattice.value).endswith(level)


N60 = {
    "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "1/2", "N": 60},
    "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}},
        {"exercise": {"kind": "put", "strike": "1"},
         "penalty": {"kind": "proportional", "factor": "1/4"}},
    ],
}


@pytest.fixture
def n60_file(tmp_path):
    path = tmp_path / "n60.json"
    path.write_text(json.dumps(N60))
    return str(path)


def test_n60_prices_on_the_lattice(no_full_tree, n60_file, capsys):
    assert main(["price", n60_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["price"] == doc["root_values"][-1]


def test_n60_hedge_simulate_resolves_one_path(no_full_tree, n60_file, capsys):
    assert main(["hedge-simulate", n60_file, "--path", "ud" * 30]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["wealth_after"]) == 61
    assert all(F(w) >= 0 for w in doc["wealth_after"])


def test_n60_strategies_refused_before_expansion(no_full_tree, n60_file, capsys):
    assert main(["strategies", n60_file]) == 2
    assert capsys.readouterr().out == ""


def test_oversized_table_refused_before_allocation(no_full_tree):
    spec = {"model": dict(N60["model"], N=40),
            "claims": [{"exercise": {"kind": "table", "values": [["1"]]},
                        "penalty": {"kind": "constant", "value": "0"}}]}
    with pytest.raises(ContractError):
        build_contract(spec)


def test_oversized_lattice_refused(no_full_tree, tmp_path, capsys):
    # 501,501 states, just over the budget: refused before any row is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"model": dict(N60["model"], N=1000),
                                "claims": N60["claims"]}))
    assert main(["price", str(path)]) == 2
    assert "cap is" in capsys.readouterr().err
