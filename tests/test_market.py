import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_params
from swinghedge.errors import ContractError
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


def test_to_rational_parses_strings_and_ints():
    assert to_rational("-1/2") == Fraction(-1, 2)
    assert to_rational(3) == Fraction(3)
    assert to_rational(Fraction(5, 7)) == Fraction(5, 7)


def test_to_rational_rejects_floats_and_junk():
    with pytest.raises(ContractError):
        to_rational(0.5)
    with pytest.raises(ContractError):
        to_rational("half")


def test_format_round_trip():
    for text in ["0", "7", "-3/4", "22/7"]:
        assert format_rational(to_rational(text)) == text


def test_martingale_prob_kills_the_drift():
    a, b = Fraction(-1, 2), Fraction(1)
    q = martingale_prob(a, b)
    assert q == Fraction(1, 3)
    assert q * b + (1 - q) * a == 0


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
