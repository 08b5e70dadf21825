import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_contract, random_params
from swinghedge.contract import build_contract
from swinghedge.errors import (
    DEFAULT_ENUMERATION_CAP,
    ECHO_MAX,
    ContractError,
    EnumerationCapError,
    check_cap,
    echo,
)
from swinghedge.market import (
    MARKET,
    MARTINGALE,
    AdaptedProcess,
    MarketParams,
    ScenarioTree,
    build_tree,
    format_rational,
    martingale_prob,
    one_step_expectation,
    to_rational,
)
from swinghedge.swing import price_swing


def test_to_rational_parses_strings_and_ints():
    assert to_rational("-1/2") == Fraction(-1, 2)
    assert to_rational(3) == Fraction(3)
    assert to_rational(Fraction(5, 7)) == Fraction(5, 7)


def test_to_rational_rejects_floats_and_junk():
    with pytest.raises(ContractError):
        to_rational(0.5)
    with pytest.raises(ContractError):
        to_rational("half")


@pytest.mark.parametrize("value", [None, [[1]], {}, 1.5])
def test_to_rational_names_floats_only_for_floats(value):
    with pytest.raises(ContractError) as info:
        to_rational(value)
    assert str(info.value).startswith(f"not a rational: {value!r}")
    assert ("floats are not accepted" in str(info.value)) == isinstance(value, float)


def test_format_round_trip():
    for text in ["0", "7", "-3/4", "22/7"]:
        assert format_rational(to_rational(text)) == text


def test_martingale_prob_kills_the_drift():
    a, b = Fraction(-1, 2), Fraction(1)
    q = martingale_prob(a, b)
    assert q == Fraction(1, 3)
    assert q * b + (1 - q) * a == 0


@given(st.integers(min_value=1, max_value=10 ** 30), st.integers(min_value=1, max_value=10 ** 30),
       st.integers(min_value=1, max_value=10 ** 30), st.integers(min_value=1, max_value=10 ** 30))
def test_martingale_prob_is_a_over_a_minus_b(an, ad, bn, bd):
    a, b = -Fraction(min(an, ad), max(an, ad) + 1), Fraction(bn, bd)
    q = martingale_prob(a, b)
    assert type(q) is Fraction and q == a / (a - b)
    assert martingale_prob(str(a), str(b)) == q


@pytest.mark.parametrize("a, b, shown", [
    (-1, Fraction(1, 2), "a=-1, b=1/2"),
    (Fraction(-3, 2), 1, "a=-3/2, b=1"),
    (0, 1, "a=0, b=1"),
    (Fraction(-1, 2), 0, "a=-1/2, b=0"),
    (Fraction(-1, 2), Fraction(-1, 3), "a=-1/2, b=-1/3"),
    ("1" * 700, 1, f"a={'1' * ECHO_MAX}... (700 characters), b=1"),
    (Fraction(-1, 2), -Fraction(1, 10 ** 699), f"a=-1/2, b=-1/1{'0' * (ECHO_MAX - 4)}... (703 characters)"),
], ids=["a=-1", "a<-1", "a=0", "b=0", "b<0", "long a", "long b"])
def test_martingale_prob_refusals_keep_their_messages(a, b, shown):
    with pytest.raises(ContractError) as info:
        martingale_prob(a, b)
    assert str(info.value) == f"need -1 < a < 0 < b, got {shown}"


def test_params_validation():
    with pytest.raises(ContractError):
        MarketParams(S0=1, a=Fraction(-3, 2), b=1, p=Fraction(1, 2), N=1)
    with pytest.raises(ContractError):
        MarketParams(S0=1, a=Fraction(-1, 2), b=1, p=1, N=1)
    with pytest.raises(ContractError):
        MarketParams(S0=0, a=Fraction(-1, 2), b=1, p=Fraction(1, 2), N=1)


def test_tree_prices_follow_path_bits():
    tree = build_tree(MarketParams(S0=4, a=Fraction(-1, 2), b=1,
                                   p=Fraction(1, 2), N=3))
    # node index bits, most significant first, spell the path; 1 means up
    assert tree.stock.at(3, 0b111) == 32
    assert tree.stock.at(3, 0b000) == Fraction(1, 2)
    assert tree.stock.at(3, 0b101) == 8
    for path in tree.paths():
        s = tree.params.S0
        for k in range(1, tree.N + 1):
            bit = (path >> (tree.N - k)) & 1
            s = s * (1 + (tree.params.b if bit else tree.params.a))
            assert tree.stock.at(k, tree.node_on_path(path, k)) == s


def test_children_order():
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1,
                                   p=Fraction(1, 2), N=2))
    up, down = tree.children(0, 0)
    assert tree.stock.at(1, up) > tree.stock.at(1, down)


@given(st.integers(min_value=0, max_value=2 ** 31))
def test_path_probs_sum_to_one(seed):
    rng = random.Random(seed)
    tree = build_tree(random_params(rng))
    for q in (tree.ptilde, tree.params.p):
        assert sum(tree.path_prob(path, q) for path in tree.paths()) == 1


@given(st.integers(min_value=0, max_value=2 ** 31))
def test_path_prob_is_the_product_of_its_moves(seed):
    rng = random.Random(seed)
    tree = build_tree(random_params(rng, n=rng.randint(1, 12)), recombining=True)
    N = tree.N
    den = rng.randint(1, 40)
    q = Fraction(rng.randint(0, den), den)
    for path in [0, 2 ** N - 1] + [rng.randrange(2 ** N) for _ in range(30)]:
        ups = path.bit_count()
        assert tree.path_prob(path, q) == q ** ups * (1 - q) ** (N - ups)


@pytest.mark.parametrize("path", [-1, "2^N", 1.0])
def test_path_prob_and_bits_refuse_a_path_off_the_tree(path):
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1, p=Fraction(3, 5), N=5))
    if path == "2^N":
        path = 2 ** tree.N
    with pytest.raises(ContractError, match="path must be an integer"):
        tree.path_prob(path, tree.params.p)
    with pytest.raises(ContractError, match="path must be an integer"):
        tree.path_bits(path)


@given(st.integers(min_value=0, max_value=2 ** 31))
def test_price_is_martingale_under_ptilde(seed):
    rng = random.Random(seed)
    tree = build_tree(random_params(rng))
    proc = AdaptedProcess(tree, [list(level) for level in tree.stock.values])
    for k in range(tree.N):
        expected = one_step_expectation(proc, k, MARTINGALE)
        for m in range(2 ** k):
            assert expected[m] == tree.stock.at(k, m)


def test_one_step_expectation_measures_differ():
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1,
                                   p=Fraction(4, 5), N=1))
    proc = AdaptedProcess(tree, [list(level) for level in tree.stock.values])
    assert one_step_expectation(proc, 0, MARTINGALE)[0] == 1
    assert one_step_expectation(proc, 0, MARKET)[0] == \
        Fraction(4, 5) * 2 + Fraction(1, 5) * Fraction(1, 2)


def test_adapted_process_shape_checked():
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1,
                                   p=Fraction(1, 2), N=2))
    with pytest.raises(ContractError):
        AdaptedProcess(tree, [[1], [1, 2]])


def test_from_function_sees_prices():
    tree = build_tree(MarketParams(S0=1, a=Fraction(-1, 2), b=1,
                                   p=Fraction(1, 2), N=2))
    proc = AdaptedProcess.from_function(tree, lambda k, m, s: 2 * s)
    assert proc.at(2, 3) == 2 * tree.stock.at(2, 3)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_format_rational_names_the_interpreters_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit CPython accepts
    try:
        with pytest.raises(ContractError, match="more than 640 digits"):
            format_rational(Fraction(10 ** 700))
    finally:
        sys.set_int_max_str_digits(old)


def test_a_horizon_past_the_cap_is_refused_without_its_digits():
    with pytest.raises(EnumerationCapError) as info:
        ScenarioTree(MarketParams(S0=1, a=Fraction(-1, 2), b=1, p=Fraction(1, 2), N=10 ** 2999))
    cap = DEFAULT_ENUMERATION_CAP
    assert str(info.value) == f"enumeration needs more than {cap} items, cap is {cap}"


@pytest.mark.parametrize("text, N", [("0" * 5000 + "3", 3), ("-" + "9" * 5000, None)])
def test_a_horizon_string_of_thousands_of_digits_is_read_without_int(text, N):
    model = {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": text}
    if N is None:
        with pytest.raises(ContractError, match="N must be an integer >= 1, got a negative one"):
            MarketParams.from_dict(model)
    else:
        assert MarketParams.from_dict(model).N == N


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_a_count_too_long_to_print_is_named_by_the_cap():
    # 2^20001 - 1 full-tree nodes: more digits than int -> str converts
    with pytest.raises(EnumerationCapError) as info:
        ScenarioTree(MarketParams(S0=1, a=Fraction(-1, 2), b=1, p=Fraction(1, 2), N=20_000))
    assert str(info.value).startswith("enumeration needs more than ")


def test_check_cap_refuses_past_the_cap_and_none_sets_no_limit():
    check_cap(5, 5)
    check_cap(10 ** 100, None)
    with pytest.raises(EnumerationCapError) as err:
        check_cap(6, 5)
    assert (err.value.needed, err.value.cap) == (6, 5)


@pytest.mark.parametrize("seed", range(6))
def test_every_node_read_goes_through_state(seed):
    rng = random.Random(seed)
    contract = random_contract(rng, max_n=8, max_l=3, recombining=seed % 2 == 0)
    tree = contract.tree
    stack, _ = price_swing(contract)
    procs = [tree.stock] + stack.V + [
        leg for i in range(1, contract.L + 1) for leg in (contract.X(i), contract.Y(i))
    ]
    for k in range(tree.N + 1):
        by_state = {}
        for m in range(2 ** k):
            by_state.setdefault(tree.state(k, m), []).append(m)
        assert sorted(by_state) == list(range(tree.width(k)))
        for s, nodes in by_state.items():
            assert list(tree.nodes_of(k, s)) == nodes
            assert tree.node_multiplicity(k, s) == len(nodes)
    for proc in procs:
        for k in range(tree.N + 1):
            assert proc.values[k] == proc.row(k)
            for m in range(2 ** k):
                s = tree.state(k, m)
                assert proc.at(k, m) == proc.row(k)[s] == Fraction(proc.nums[k][s], proc.dens[k])


@pytest.mark.parametrize("seed", range(4))
def test_a_table_leg_lifts_like_a_process(seed):
    rng = random.Random(100 + seed)
    params = random_params(rng, max_n=5)
    rows = [[Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(2 ** k)]
            for k in range(params.N + 1)]
    contract = build_contract({
        "model": params.to_dict(),
        "claims": [{"exercise": {"kind": "table", "values": [[format_rational(q) for q in row]
                                                           for row in rows]},
                    "penalty": {"kind": "constant", "value": "1/3"}}],
    }, tree=ScenarioTree(params))
    leg = contract.Y(1)
    proc = AdaptedProcess(contract.tree, rows)
    assert (leg.nums, leg.dens) == (proc.nums, proc.dens)
    assert leg.values == rows


def test_echo_keeps_a_short_value_and_bounds_a_long_one():
    assert echo("x" * (ECHO_MAX - 2)) == repr("x" * (ECHO_MAX - 2))
    assert echo(Fraction(-1, 2), str) == "-1/2"
    assert echo("x" * (ECHO_MAX - 1)) == "'" + "x" * (ECHO_MAX - 1) + "... (61 characters)"
    assert echo(10 ** 99) == "1" + "0" * (ECHO_MAX - 1) + "... (100 characters)"
