import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest

from swinghedge import cli, hedge, pwl
from swinghedge.cli import main
from swinghedge.errors import DEFAULT_ENUMERATION_CAP, ECHO_MAX, InvariantError
from swinghedge.market import format_rational
from swinghedge.pwl import PwlFn
from swinghedge.shortfall import build_risk_stack
from swinghedge.contract import load_contract

SPEC = {
    "model": {"S0": "1", "a": "-1/2", "b": "1", "p": "1/2", "N": 2},
    "claims": [
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "constant", "value": "1/10"}},
        {"exercise": {"kind": "call", "strike": "1"},
         "penalty": {"kind": "infinite-proxy"}},
    ],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "contract.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def test_price_output_shape(spec_file, capsys):
    assert main(["price", spec_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"price", "root_values"}
    assert len(doc["root_values"]) == 2
    assert doc["root_values"][-1] == doc["price"]


def test_runs_are_byte_identical(spec_file, capsys):
    main(["strategies", spec_file])
    first = capsys.readouterr().out
    main(["strategies", spec_file])
    assert capsys.readouterr().out == first
    cmd = [sys.executable, "-m", "swinghedge.cli", "risk", spec_file,
           "--capital", "1/5"]
    runs = {subprocess.run(cmd, capture_output=True).stdout for _ in range(2)}
    assert len(runs) == 1


def _call(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on bad usage
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shared_parser_answers_like_a_fresh_one(spec_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    calls = [
        ["price", spec_file],
        ["price", spec_file, "--decimal"],
        ["strategies", spec_file],
        ["hedge-simulate", spec_file, "--path", "ud", "--decimal"],
        ["risk", spec_file, "--capital", "1/20"],
        ["risk-curve", spec_file],
        ["price", str(bad)],
        ["price", spec_file],
        ["risk", spec_file],  # usage error: --capital is required
        ["hedge-simulate", spec_file, "--path", "ud"],
    ]
    shared = [_call(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_call(argv, capsys))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 1, 0, 2, 0]
    assert "--capital" in shared[8][2]


def test_decimal_adds_float_rendering(spec_file, capsys):
    from fractions import Fraction

    main(["price", spec_file, "--decimal"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["price"]) == {"exact", "decimal"}
    assert doc["price"]["decimal"] == float(Fraction(doc["price"]["exact"]))


def test_risk_and_curve_round_trip(spec_file, capsys):
    main(["risk-curve", spec_file])
    doc = json.loads(capsys.readouterr().out)
    curve = build_risk_stack(load_contract(spec_file)).curve()
    assert PwlFn.from_wire(doc["wire"]) == curve
    assert main(["risk", spec_file, "--capital", doc["breakpoints"][0]["capital"]]) == 0
    risk_doc = json.loads(capsys.readouterr().out)
    assert risk_doc["risk"] == doc["breakpoints"][0]["risk"]


def test_curve_csv_written(spec_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["risk-curve", spec_file, "--csv", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "capital,risk"
    assert len(lines) > 2


def test_curve_csv_unwritable_path_is_refused(spec_file, tmp_path, capsys):
    csv = tmp_path / "missing" / "curve.csv"
    assert main(["risk-curve", spec_file, "--csv", str(csv)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write {csv}: ")
    assert "Traceback" not in out.err
    assert not csv.parent.exists()


def test_hedge_simulate(spec_file, capsys):
    assert main(["hedge-simulate", spec_file, "--path", "ud"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["wealth_after"]) == 3
    assert doc["events"]  # both claims settle somewhere


def test_exit_codes(spec_file, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["price", missing]) == 1
    assert main(["hedge-simulate", spec_file, "--path", "xyz"]) == 1
    assert main(["risk", spec_file, "--capital", "-1"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["risk", spec_file])  # argparse insists on --capital


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["price", "risk-curve"])
@pytest.mark.parametrize("where", ["top", "table leg"])
def test_deeply_nested_json_is_refused(command, where, tmp_path, capsys):
    if where == "top":
        text = DEEP
    else:
        spec = json.loads(json.dumps(SPEC))
        spec["claims"][0]["exercise"] = {"kind": "table", "values": "DEEP"}
        text = json.dumps(spec).replace('"DEEP"', DEEP)
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = _call([command, str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["price", "risk-curve"])
@pytest.mark.parametrize("horizon", [10 ** 2999, "9" * 5000], ids=["int", "string"])
def test_a_horizon_too_large_to_print_is_refused(command, horizon, tmp_path, capsys):
    spec = json.loads(json.dumps(SPEC))
    spec["model"]["N"] = horizon
    path = tmp_path / "big_n.json"
    path.write_text(json.dumps(spec))
    code, out, err = _call([command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: enumeration needs more than 500000 items, cap is 500000\n"


def test_a_table_entry_that_is_a_list_is_not_called_a_float(tmp_path, capsys):
    spec = json.loads(json.dumps(SPEC))
    spec["claims"][0]["exercise"] = {"kind": "table", "values": [[[[1]]], ["0", "1"], ["0"] * 4]}
    path = tmp_path / "list_entry.json"
    path.write_text(json.dumps(spec))
    code, out, err = _call(["price", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: not a rational: [[1]]\n")


@pytest.mark.parametrize("command", [["hedge-simulate", "--path", "u"], ["risk"]])
def test_negative_capital_is_refused(command, capsys):
    contract = resources.files("swinghedge") / "contracts" / "one_right_small_penalty.json"
    with resources.as_file(contract) as path:
        argv = command[:1] + [str(path)] + command[1:] + ["--capital", "-1"]
        code, out, err = _call(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: initial capital must be nonnegative, got -1\n"


@pytest.mark.parametrize("command", [["hedge-simulate", "--path", "u"], ["risk"]])
def test_negative_capital_is_refused_before_anything_is_built(command, monkeypatch, capsys):
    # on a large lattice the stack takes minutes; the capital is checked first
    def unexpected(*args, **kwargs):
        raise AssertionError("built before the capital was checked")

    monkeypatch.setattr(cli, "build_risk_stack", unexpected)
    monkeypatch.setattr(cli, "price_swing", unexpected)
    contract = resources.files("swinghedge") / "contracts" / "one_right_small_penalty.json"
    with resources.as_file(contract) as path:
        argv = command[:1] + [str(path)] + command[1:] + ["--capital", "-1"]
        code, out, err = _call(argv, capsys)
    assert (code, out, err) == (1, "", "error: initial capital must be nonnegative, got -1\n")


def test_verify_passes_on_bundled_contracts(capsys):
    assert main(["verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert set(doc["contracts"]) == {
        "american_call_proxy",
        "one_right_small_penalty",
        "two_rights_uncancellable",
    }
    for entry in doc["contracts"].values():
        assert all(entry["checks"].values())


def test_risk_commands_build_no_portfolio_control(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a portfolio control was built")

    monkeypatch.setattr(pwl, "_portfolio_control", refuse)
    base = resources.files("swinghedge") / "contracts"
    for name in ("american_call_proxy", "one_right_small_penalty", "two_rights_uncancellable"):
        with resources.as_file(base / f"{name}.json") as path:
            stack = build_risk_stack(load_contract(str(path)))
            assert stack.curve().eval(0) == stack.risk(0)
            assert main(["risk-curve", str(path)]) == 0
            assert main(["risk", str(path), "--capital", "1/2"]) == 0
    assert main(["verify"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_cap_reaches_the_hedge_walk(monkeypatch, capsys):
    caps = []

    def recording(*args, **kwargs):
        caps.append(kwargs.get("cap"))
        return verify(*args, **kwargs)

    verify = cli.verify_perfect_hedge
    monkeypatch.setattr(cli, "verify_perfect_hedge", recording)
    assert main(["verify", "--cap", "1000"]) == 0
    capsys.readouterr()
    assert caps == [1000] * 6  # at and below the price on three contracts


def test_verify_passes_the_solved_seller_to_the_hedge_walk(monkeypatch, capsys):
    assert main(["verify"]) == 0
    expected = capsys.readouterr().out

    def refuse(contract):
        raise AssertionError("the hedge walk priced the contract again")

    monkeypatch.setattr(hedge, "price_swing", refuse)
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("capital, code", [
    ("1e5000", 1),
    ("1e1000000000", 1),
    ("1e4300", 1),  # 10^4300 has 4301 digits
    ("1e4299", 0),  # 10^4299 has 4300, the limit
    ("1e-4300", 1),
    ("1e-4299", 0),
])
def test_capital_exponent_past_the_digit_limit_is_refused(capital, code, capsys):
    contract = resources.files("swinghedge") / "contracts" / "one_right_small_penalty.json"
    with resources.as_file(contract) as path:
        assert main(["risk", str(path), "--capital", capital]) == code
    out = capsys.readouterr()
    if code:
        assert out.err.startswith("error: not a rational")
    else:
        assert out.err == ""
        assert json.loads(out.out)["capital"] == format_rational(Fraction(capital))


@pytest.mark.parametrize("s0, code", [("1e5000", 1), ("1e4300", 1), ("1e4299", 0)])
def test_contract_exponent_past_the_digit_limit_is_refused(s0, code, tmp_path, capsys):
    spec = json.loads(json.dumps(SPEC))
    spec["model"]["S0"] = s0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    assert main(["price", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: not a rational") == bool(code)


def big_s0_contract(tmp_path, s0):
    contract = resources.files("swinghedge") / "contracts" / "one_right_small_penalty.json"
    spec = json.loads(contract.read_text())
    spec["model"]["S0"] = s0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["risk", "--capital", "1"],
    ["risk-curve"],
    ["hedge-simulate", "--path", "u"],
])
def test_results_past_the_digit_limit_are_refused(argv, tmp_path, capsys):
    # S0 = 9e4299 has 4300 digits and loads; S0 * (1 + b) has 4301
    path = big_s0_contract(tmp_path, "9e4299")
    assert main(["price", path]) == 0
    capsys.readouterr()
    assert main([argv[0], path] + argv[1:]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: a result has more than 4300 digits")


def test_verify_cap_reaches_the_saddle_certificate(monkeypatch, capsys):
    caps = []

    def recording(*args, **kwargs):
        caps.append(kwargs.get("cap"))
        return certify(*args, **kwargs)

    certify = cli.certify_saddle
    monkeypatch.setattr(cli, "certify_saddle", recording)
    assert main(["verify", "--cap", "1000"]) == 0
    capsys.readouterr()
    assert caps == [1000] * 3


@pytest.mark.parametrize("argv", [
    ["price", "--decimal"],
    ["hedge-simulate", "--path", "u", "--capital", "1/3", "--decimal"],
    ["risk-curve", "--csv"],
])
def test_values_past_the_float_range_are_refused(argv, tmp_path, capsys):
    path = big_s0_contract(tmp_path, "1e400")
    csv = tmp_path / "curve.csv"
    argv = argv + [str(csv)] if argv[-1] == "--csv" else argv
    assert main(["price", path]) == 0
    capsys.readouterr()
    assert main([argv[0], path] + argv[1:]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: a result is too large for a float\n"
    assert not csv.exists()


@pytest.mark.parametrize("where, value, message", [
    (("model", "a"), "1" * 700,
     f"need -1 < a < 0 < b, got a={'1' * ECHO_MAX}... (700 characters), b=1"),
    (("model", "N"), -10 ** 2999,
     f"horizon N must be an integer >= 1, got -1{'0' * (ECHO_MAX - 2)}... (3001 characters)"),
    (("claims", 0, "exercise", "kind"), "k" * 700,
     f"claim 1 has unknown exercise kind '{'k' * (ECHO_MAX - 1)}... (702 characters)"),
    (("claims", 0, "exercise", "strike"), "x" * 5000,
     f"not a rational: '{'x' * (ECHO_MAX - 1)}... (5002 characters)"),
], ids=["a", "N", "kind", "strike"])
def test_a_long_input_value_is_echoed_by_its_head_and_length(where, value, message, tmp_path,
                                                             capsys):
    spec = json.loads(json.dumps(SPEC))
    node = spec
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(spec))
    code, out, err = _call(["price", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


def test_a_spec_horizon_past_the_cap_exits_2(tmp_path, capsys):
    spec = json.loads(json.dumps(SPEC))
    spec["model"]["N"] = DEFAULT_ENUMERATION_CAP + 1
    path = tmp_path / "long.json"
    path.write_text(json.dumps(spec))
    cap = DEFAULT_ENUMERATION_CAP
    assert _call(["price", str(path)], capsys) == (
        2, "", f"error: enumeration needs more than {cap} items, cap is {cap}\n")


def test_a_long_path_or_capital_is_echoed_by_its_head_and_length(spec_file, capsys):
    code, out, err = _call(["hedge-simulate", spec_file, "--path", "u" * 700], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: path must be 2 letters of u/d, got '{'u' * (ECHO_MAX - 1)}... (702 characters)\n"
    code, out, err = _call(["risk", spec_file, "--capital", "-" + "9" * 700], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: initial capital must be nonnegative, got -{'9' * (ECHO_MAX - 1)}... (701 characters)\n"


# ---- hedge-simulate, pinned ------------------------------------------------

# sha256 of hedge-simulate's stdout over hedge_simulate_pin_specs, every path,
# at the price and at half of it; recorded before AdaptedProcess.at stopped
# building level rows
HEDGE_SIMULATE_PIN = "cd52143efd07d86edd6d17724e6bfb3586d2075bee13928c90abd8926c9ea6c3"


def hedge_simulate_pin_specs():
    """Full-tree contracts of lookback-call and Asian-put table legs, with
    constant or table penalties, then lattice contracts of call and put legs."""
    rng = random.Random(2701)

    def model(n):
        den = rng.randint(2, 5)
        return {"S0": str(Fraction(rng.randint(1, 6), rng.randint(1, 2))),
                "a": f"-{rng.randint(1, den - 1)}/{den}",
                "b": f"{rng.randint(1, 6)}/{rng.randint(1, 3)}", "p": "1/2", "N": n}

    for n, l in [(2, 1), (3, 2), (4, 3), (5, 2)]:
        spec = {"model": model(n), "claims": []}
        s0, a, b = (Fraction(spec["model"][key]) for key in ("S0", "a", "b"))
        for _ in range(l):
            lookback = rng.random() < 0.5
            strike = s0 * Fraction(rng.randint(2, 6), 4)
            exercise, penalty = [], []
            for k in range(n + 1):
                ex_row, pen_row = [], []
                for m in range(2 ** k):
                    bits = [(m >> (k - 1 - j)) & 1 for j in range(k)]
                    path = [s0]
                    for up in bits:
                        path.append(path[-1] * (1 + (b if up else a)))
                    v = max(path) - strike if lookback else strike - sum(path) / (k + 1)
                    v = max(v, Fraction(0))
                    ex_row.append(str(v))
                    pen_row.append(str(v + Fraction(rng.randint(0, 6), 4)))
                exercise.append(ex_row)
                penalty.append(pen_row)
            pen = ({"kind": "table", "values": penalty} if rng.random() < 0.5
                   else {"kind": "constant", "value": str(Fraction(rng.randint(0, 6), 4))})
            spec["claims"].append({"exercise": {"kind": "table", "values": exercise},
                                   "penalty": pen})
        yield spec
    for n, l in [(3, 1), (4, 2), (6, 3)]:
        spec = {"model": model(n), "claims": []}
        s0 = Fraction(spec["model"]["S0"])
        for _ in range(l):
            kind = rng.choice(["call", "put"])
            pen = rng.choice([{"kind": "constant", "value": str(Fraction(rng.randint(0, 6), 4))},
                              {"kind": "proportional", "factor": f"{rng.randint(0, 8)}/8"},
                              {"kind": "infinite-proxy"}])
            spec["claims"].append({
                "exercise": {"kind": kind, "strike": str(s0 * Fraction(rng.randint(1, 8), 4))},
                "penalty": pen})
        yield spec


def test_hedge_simulate_stdout_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for n, spec in enumerate(hedge_simulate_pin_specs()):
        path = tmp_path / f"pin{n}.json"
        path.write_text(json.dumps(spec))
        assert main(["price", str(path)]) == 0
        half = Fraction(json.loads(capsys.readouterr().out)["price"]) / 2
        N = spec["model"]["N"]
        for bits in range(2 ** N):
            letters = format(bits, f"0{N}b").replace("1", "u").replace("0", "d")
            for extra in ([], ["--capital", format_rational(half)]):
                code, out, err = _call(["hedge-simulate", str(path), "--path", letters, *extra],
                                       capsys)
                assert (code, err) == (0, "")
                digest.update(out.encode())
    assert digest.hexdigest() == HEDGE_SIMULATE_PIN


def test_an_invariant_violation_exits_3(spec_file, monkeypatch, capsys):
    def broken(path):
        raise InvariantError("planted in load_contract")

    monkeypatch.setattr(cli, "load_contract", broken)
    code, out, err = _call(["price", spec_file], capsys)
    assert (code, out, err) == (3, "", "invariant violated: planted in load_contract\n")
