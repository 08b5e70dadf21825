import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_contract
from swinghedge import contract
from swinghedge.contract import _parse_table, build_contract, load_contract, payoff_at
from swinghedge.errors import ContractError
from swinghedge.market import AdaptedProcess, MarketParams, build_tree, to_rational

MODEL = {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 1}


def make(claims):
    return build_contract({"model": MODEL, "claims": claims})


def test_call_with_constant_penalty():
    c = make([{"exercise": {"kind": "call", "strike": "1"},
               "penalty": {"kind": "constant", "value": "1/10"}}])
    assert c.L == 1
    assert c.Y(1).at(0, 0) == 0
    assert c.X(1).at(0, 0) == Fraction(1, 10)
    # at maturity cancelling is the same event as exercising
    assert c.X(1).at(1, 1) == c.Y(1).at(1, 1) == 1
    assert c.X(1).at(1, 0) == c.Y(1).at(1, 0) == 0


def test_put_payoffs():
    c = make([{"exercise": {"kind": "put", "strike": "2"},
               "penalty": {"kind": "constant", "value": "0"}}])
    assert c.Y(1).at(1, 0) == Fraction(3, 2)
    assert c.Y(1).at(1, 1) == 0


def test_proportional_penalty_scales_with_exercise():
    c = make([{"exercise": {"kind": "put", "strike": "2"},
               "penalty": {"kind": "proportional", "factor": "1/2"}}])
    assert c.X(1).at(0, 0) == Fraction(3, 2)
    assert c.X(1).at(1, 0) == c.Y(1).at(1, 0)


def test_table_payoffs_and_penalty():
    c = make([{"exercise": {"kind": "table", "values": [["1"], ["0", "2"]]},
               "penalty": {"kind": "table", "values": [["1/2"], ["0", "0"]]}}])
    assert c.Y(1).at(0, 0) == 1
    assert c.X(1).at(0, 0) == Fraction(3, 2)
    assert c.X(1).at(1, 1) == 2


def test_proxy_penalty_dominates_everything():
    c = make([{"exercise": {"kind": "call", "strike": "1"},
               "penalty": {"kind": "infinite-proxy"}}])
    worst = c.terminal_bundle(1, max(range(2), key=lambda m: c.Y(1).at(1, m)))
    assert c.X(1).at(0, 0) - c.Y(1).at(0, 0) > worst


def test_negative_exercise_rejected():
    with pytest.raises(ContractError):
        make([{"exercise": {"kind": "table", "values": [["-1"], ["0", "0"]]},
               "penalty": {"kind": "constant", "value": "1"}}])


def test_penalty_below_zero_rejected():
    # a negative table delta would put X under Y
    with pytest.raises(ContractError) as err:
        make([{"exercise": {"kind": "table", "values": [["1"], ["0", "2"]]},
               "penalty": {"kind": "table", "values": [["-1/2"], ["0", "0"]]}}])
    assert "below" in str(err.value)


def test_bad_specs_rejected():
    with pytest.raises(ContractError):
        build_contract({"claims": []})
    with pytest.raises(ContractError):
        build_contract({"model": MODEL, "claims": []})
    with pytest.raises(ContractError):
        make([{"exercise": {"kind": "strangle", "strike": "1"},
               "penalty": {"kind": "constant", "value": "0"}}])
    with pytest.raises(ContractError):
        make([{"exercise": {"kind": "call", "strike": "1"},
               "penalty": {"kind": "maybe"}}])
    with pytest.raises(ContractError):
        make([{"exercise": {"kind": "call", "strike": 0.25},
               "penalty": {"kind": "constant", "value": "0"}}])


def test_table_shape_checked():
    with pytest.raises(ContractError):
        make([{"exercise": {"kind": "table", "values": [["1"]]},
               "penalty": {"kind": "constant", "value": "0"}}])
    with pytest.raises(ContractError):
        make([{"exercise": {"kind": "table", "values": [["1"], ["0"]]},
               "penalty": {"kind": "constant", "value": "0"}}])


def test_terminal_bundle_sums_tail_claims():
    model = dict(MODEL, N=2)
    c = build_contract({"model": model, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1"}},
        {"exercise": {"kind": "call", "strike": "2"},
         "penalty": {"kind": "constant", "value": "1"}},
    ]})
    top = 3  # the uu node
    assert c.terminal_bundle(1, top) == (4 - 1) + (4 - 2)
    assert c.terminal_bundle(2, top) == 4 - 2
    assert c.terminal_bundle(3, top) == 0


def test_payoff_at_orders_stopping_times():
    c = make([{"exercise": {"kind": "call", "strike": "1"},
               "penalty": {"kind": "constant", "value": "1/10"}}])
    assert payoff_at(c, 1, 0, 1, 0) == Fraction(1, 10)   # seller strictly first
    assert payoff_at(c, 1, 0, 0, 0) == 0                 # tie pays exercise
    assert payoff_at(c, 1, 1, 0, 0) == 0                 # buyer strictly first
    with pytest.raises(ContractError):
        payoff_at(c, 2, 0, 0, 0)
    N = c.tree.N
    for m, n in [(N + 1, 0), (0, N + 1), (-1, 1), (1, -1)]:
        with pytest.raises(ContractError) as info:
            payoff_at(c, 1, m, n, 0)
        assert str(info.value) == f"stopping levels ({m}, {n}) out of range 0..{N}"
    for m, n, node in [(1, 1, 2), (0, 1, 1), (1, 0, -1)]:
        with pytest.raises(ContractError) as info:
            payoff_at(c, 1, m, n, node)
        assert str(info.value) == f"node {node} not at level {min(m, n)}"


def test_a_spec_that_is_a_json_array_is_refused(tmp_path, capsys):
    from swinghedge.cli import main

    with pytest.raises(ContractError) as info:
        build_contract([])
    assert str(info.value) == "contract spec must be a JSON object"
    path = tmp_path / "array.json"
    path.write_text("[]")
    assert main(["price", str(path)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: contract spec must be a JSON object\n")


def test_load_contract_round_trip(tmp_path):
    spec = {"model": MODEL, "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}},
    ]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    c = load_contract(str(path))
    assert c.X(1).at(0, 0) == Fraction(1, 10)
    with pytest.raises(ContractError):
        load_contract(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ContractError):
        load_contract(str(bad))


def test_random_contracts_always_validate():
    rng = random.Random(7)
    for _ in range(50):
        c = random_contract(rng)
        for i in range(1, c.L + 1):
            for k in range(c.tree.N + 1):
                for m in range(2 ** k):
                    assert 0 <= c.Y(i).at(k, m) <= c.X(i).at(k, m)


GOOD_CLAIMS = [
    {"exercise": {"kind": "call", "strike": "1"},
     "penalty": {"kind": "constant", "value": "1/10"}},
    {"exercise": {"kind": "table", "values": [["1"], ["0", "2"]]},
     "penalty": {"kind": "proportional", "factor": "1/2"}},
    {"exercise": {"kind": "put", "strike": "2"},
     "penalty": {"kind": "table", "values": [["1/2"], ["0", "0"]]}},
    {"exercise": {"kind": "call", "strike": "1/2"},
     "penalty": {"kind": "infinite-proxy", "value": "5"}},
]


@pytest.mark.parametrize("claims, model", [
    ([{"exercise": {"kind": "call", "strike": "1"}, "penalty": {"kind": "constant"}}], MODEL),
    ([{"exercise": {"kind": "call", "strike": "1"}, "penalty": {"kind": "table"}}], MODEL),
    ([{"exercise": "call", "penalty": {"kind": "constant", "value": "0"}}], MODEL),
    ([{"exercise": {"kind": "call", "strike": True},
       "penalty": {"kind": "constant", "value": "0"}}], MODEL),
    (GOOD_CLAIMS, dict(MODEL, S0=True)),
    ([{"exercise": {"kind": ["call"], "strike": "1"},
       "penalty": {"kind": "constant", "value": "0"}}], MODEL),
    ([{"exercise": {"kind": "table", "values": "1"},
       "penalty": {"kind": "constant", "value": "0"}}], MODEL),
])
def test_malformed_specs_exit_1(tmp_path, capsys, claims, model):
    from swinghedge.cli import main

    spec = {"model": model, "claims": claims}
    with pytest.raises(ContractError):
        build_contract(spec)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    assert main(["price", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# Every field a spec reads, as a path from the spec root. Each claim list
# keeps a table leg, so any horizon but N = 1 fails the shape check and no
# replacement can ask for a large state space.
SPEC_FIELDS = (
    [("model",), ("claims",)]
    + [("model", key) for key in ("S0", "a", "b", "p", "N")]
    + [("claims", i) for i in range(4)]
    + [("claims", i, part) for i in range(4) for part in ("exercise", "penalty")]
    + [("claims", i, part, "kind") for i in range(4) for part in ("exercise", "penalty")]
    + [("claims", 0, "exercise", "strike"), ("claims", 0, "penalty", "value"),
       ("claims", 1, "exercise", "values"), ("claims", 1, "exercise", "values", 1),
       ("claims", 1, "exercise", "values", 1, 0), ("claims", 1, "penalty", "factor"),
       ("claims", 2, "penalty", "values"), ("claims", 2, "penalty", "values", 0, 0),
       ("claims", 3, "penalty", "value")]
)


@given(st.sampled_from(SPEC_FIELDS), json_values)
def test_any_field_value_loads_or_is_rejected(field, value):
    spec = json.loads(json.dumps({"model": MODEL, "claims": GOOD_CLAIMS}))
    node = spec
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    try:
        build_contract(spec)
    except ContractError:
        pass


PARSE_CASES = [
    "3", "-0", "+3", " 3 ", "3\n", "1_000", "007", "6/8", "-6/8", "0/5", "3/-4", "1/0",
    "0/0", "1e3", "1.5", "٣", "", "-", "/", "1/", "1 / 2", "1" * 640, "1" * 641,
    "1" * 320 + "/" + "7" * 319, "9" * 4300, "1" * 4301, "1/" + "3" * 4301,
    0, -7, 10 ** 50, True, False, 1.5, None, [1],
]


@pytest.mark.parametrize("value", PARSE_CASES, ids=lambda v: repr(v)[:20])
def test_table_entries_parse_like_to_rational(value):
    try:
        q = to_rational(value)
    except ContractError as exc:
        with pytest.raises(ContractError) as got:
            _parse_table([[value]], 0, "t")
        assert str(got.value) == str(exc)
    else:
        assert _parse_table([[value]], 0, "t") == [[(q.numerator, q.denominator)]]


def check_table_legs_against_the_fraction_constructor(recombining, entry):
    """Five random tables with entries from entry() read as AdaptedProcess reads them."""
    params = MarketParams(S0=3, a=Fraction(-1, 3), b=Fraction(1, 2), p=Fraction(1, 2), N=4)
    tree = build_tree(params, recombining)
    for _ in range(5):
        rows = []
        for k in range(params.N + 1):
            by_class = [entry() for _ in range(k + 1)]
            rows.append([by_class[m.bit_count()] if recombining else entry()
                         for m in range(2 ** k)])
        c = build_contract({"claims": [{"exercise": {"kind": "table", "values": rows},
                                        "penalty": {"kind": "constant", "value": "1"}}]},
                           tree=tree)
        states = [[row[next(tree.nodes_of(k, s))] for s in range(tree.width(k))]
                  for k, row in enumerate(rows)]
        want = AdaptedProcess(tree, states)
        assert (c.Y(1).nums, c.Y(1).dens) == (want.nums, want.dens)


@pytest.mark.parametrize("recombining", [False, True])
def test_table_legs_match_the_fraction_constructor(recombining):
    rng = random.Random(73 + recombining)

    def entry():
        d = rng.choice((1, 7, 1000003, 2 ** 61 - 1)) * rng.randint(1, 9)
        return f"{rng.randint(0, 5 * d)}/{d}"

    check_table_legs_against_the_fraction_constructor(recombining, entry)


@pytest.mark.parametrize("recombining", [False, True])
def test_table_legs_with_repeated_entries_match_the_fraction_constructor(recombining):
    # a small pool, one value spelled several ways and ints among the
    # strings, so most entries are met again
    rng = random.Random(79 + recombining)
    pool = ["0", "1/2", "2/4", "0.5", "4/6", "2/3", "7", 7, 0, "3/1000003"]
    check_table_legs_against_the_fraction_constructor(recombining, lambda: rng.choice(pool))


REPEATED = [["1/2"], ["2/4", "0.5"], ["1/2", 1, "1", "-0"], ["0.5"] * 4 + [3, "3", "6/2", "1/2"]]


def test_a_table_of_repeated_entries_parses_entry_by_entry():
    rows = _parse_table(REPEATED, 3, "t")
    want = [[to_rational(v) for v in row] for row in REPEATED]
    assert rows == [[(q.numerator, q.denominator) for q in row] for row in want]


@pytest.mark.parametrize("bad", [True, 1.0])
def test_a_bool_or_float_after_an_equal_entry_is_still_refused(bad):
    with pytest.raises(ContractError) as exc:
        to_rational(bad)
    with pytest.raises(ContractError) as got:
        _parse_table([["1"], [1, bad]], 1, "t")
    assert str(got.value) == str(exc.value)


def test_a_bad_entry_after_a_repeated_good_one_fails_as_unmemoized():
    with pytest.raises(ContractError) as exc:
        to_rational("1/0")
    with pytest.raises(ContractError) as got:
        _parse_table([["1/2"], ["1/2", "1/2"], ["1/2", "1/0", "x", "1/2"]], 2, "t")
    assert str(got.value) == str(exc.value)


def test_each_distinct_string_entry_is_parsed_once(monkeypatch):
    seen = []
    parse = contract._parse_entry

    def counted(value):
        seen.append(value)
        return parse(value)

    monkeypatch.setattr(contract, "_parse_entry", counted)
    _parse_table(REPEATED, 3, "t")
    # each string once, in first-seen order; every int entry on its own
    assert seen == ["1/2", "2/4", "0.5", 1, "1", "-0", 3, "3", "6/2"]
