"""Acceptance gate: ten exact, oracle-backed checks at desk scale.

Every criterion is one test with a printed pass/fail line (run with -s to
see them; pytest -v shows the same verdict per test name). All comparisons
are exact rational equality, no tolerances anywhere; the only epsilon is the
deliberate capital shortfall 1/10^6 used to probe threshold sharpness.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

from conftest import random_contract, random_point, random_policy
from swinghedge.contract import build_contract
from swinghedge.dynkin import certify_stopped_values
from swinghedge.hedge import build_perfect_hedge, verify_perfect_hedge
from swinghedge.oracle import (
    brute_force_value,
    certify_saddle,
    grid_infusion_value,
    grid_portfolio_value,
    grid_risk_oracle,
    infusion_at,
    portfolio_at,
)
from swinghedge.pwl import infusion_transform, portfolio_transform
from swinghedge.shortfall import (
    build_risk_stack,
    evaluate_policy_risk,
    evaluate_risk,
    infusion_minimizer,
    optimal_hedge,
    shortfall_risk,
)
from swinghedge.swing import optimal_strategies, price_swing

from test_dynkin import random_game
from test_pwl import random_market_bits, random_pwl

F = Fraction
EPS = F(1, 10 ** 6)


def report(number, name):
    def wrap(check):
        try:
            check()
        except BaseException:
            print(f"criterion {number:02d} ({name}): FAIL")
            raise
        print(f"criterion {number:02d} ({name}): PASS")
    return wrap


def bundled(name):
    text = (resources.files("swinghedge") / "contracts" / f"{name}.json").read_text()
    return build_contract(json.loads(text))


def test_criterion_01_pricing_vs_oracle():
    @report(1, "pricing vs oracle, 200 contracts")
    def check():
        start = time.monotonic()
        rng = random.Random(1001)
        for _ in range(200):
            c = random_contract(rng, max_n=3, max_l=2)
            _, price = price_swing(c)
            assert price == brute_force_value(c)
        assert time.monotonic() - start <= 300


def test_criterion_02_saddle_certificates():
    @report(2, "saddle certificates on the same 200")
    def check():
        rng = random.Random(1001)
        for _ in range(200):
            c = random_contract(rng, max_n=3, max_l=2)
            stack, price = price_swing(c)
            cert = certify_saddle(c, *optimal_strategies(stack))
            assert cert.ok
            assert cert.value == price


def test_criterion_03_perfect_hedge_and_sharpness():
    @report(3, "perfect hedge covers, short capital fails")
    def check():
        rng = random.Random(1003)
        for _ in range(100):
            c = random_contract(rng, max_n=4, max_l=2)
            stack, price = price_swing(c)
            hedge = build_perfect_hedge(stack)
            assert verify_perfect_hedge(c, hedge, price).ok
            short = verify_perfect_hedge(c, hedge, price - EPS) \
                if price >= EPS else None
            if short is not None:
                assert not short.ok
                assert short.witness is not None
                assert short.witness.wealth < 0


def test_criterion_04_worked_examples():
    @report(4, "worked examples match the oracle")
    def check():
        a = bundled("one_right_small_penalty")
        b = bundled("two_rights_uncancellable")
        assert brute_force_value(a) == F(1, 10)
        assert price_swing(a)[1] == F(1, 10)
        assert brute_force_value(b) == F(2, 3)
        assert price_swing(b)[1] == F(2, 3)


def test_criterion_05_risk_threshold():
    @report(5, "risk hits zero exactly at the price")
    def check():
        rng = random.Random(1005)
        for _ in range(100):
            c = random_contract(rng, max_n=3, max_l=2)
            _, price = price_swing(c)
            stack = build_risk_stack(c)
            assert stack.risk(price) == 0
            if price >= EPS:
                assert stack.risk(price - EPS) > 0


def test_criterion_06_risk_optimality():
    @report(6, "optimal hedge attains the risk, brackets agree")
    def check():
        rng = random.Random(1006)
        for _ in range(50):
            c = random_contract(rng, max_n=2, max_l=2)
            stack = build_risk_stack(c)
            curve = stack.curve()
            for _ in range(5):
                x = random_point(rng, F(0), curve.support_end + 1)
                want = shortfall_risk(c, x)
                assert want == curve.eval(x)
                gamma, infusion, seller = optimal_hedge(stack, x)
                got = evaluate_risk(c, gamma, infusion, seller, x,
                                    mode="enumeration")
                assert got == want
                lo, hi = grid_risk_oracle(c, x, resolution=4)
                assert lo <= want <= hi


def test_criterion_07_policy_dominance():
    @report(7, "no admissible policy beats the risk curve")
    def check():
        rng = random.Random(1007)
        for _ in range(4):
            c = random_contract(rng, max_n=2, max_l=2)
            stack = build_risk_stack(c)
            curve = stack.curve()
            xs = [x for x, _ in curve.points]
            xs += [random_point(rng, F(0), curve.support_end + 1)
                   for _ in range(100)]
            for _ in range(50):
                gamma, infusion = random_policy(rng, c.tree)
                for x in xs:
                    pol = evaluate_policy_risk(c, gamma, infusion, x)
                    assert curve.eval(x) <= pol.value


def test_criterion_08_pwl_closure_and_oracles():
    @report(8, "transforms stay in class and match the point oracles")
    def check():
        start = time.monotonic()
        rng = random.Random(1008)
        for n in range(10 ** 4):
            if n % 2 == 0:
                psi1, psi2 = random_pwl(rng, 3), random_pwl(rng, 3)
                p, a, b = random_market_bits(rng)
                fn, ctrl = portfolio_transform(psi1, psi2, p, a, b)
                y = random_point(rng, F(0), fn.support_end + 1)
                want, _ = portfolio_at(psi1, psi2, p, a, b, y)
                assert fn.eval(y) == want
                alpha = ctrl.eval(y)
                assert y + alpha * b >= 0 and y + alpha * a >= 0
                assert p * psi1.eval(y + alpha * b) \
                    + (1 - p) * psi2.eval(y + alpha * a) == want
                assert grid_portfolio_value(psi1, psi2, p, a, b, y, 4) >= want
            else:
                psi = random_pwl(rng, 3)
                A = F(rng.randint(0, 8), rng.randint(1, 4))
                fn = infusion_transform(psi, A)
                y = random_point(rng, F(0), fn.support_end + 1)
                want, _ = infusion_at(psi, A, y)
                assert fn.eval(y) == want
                z, w = infusion_minimizer(psi, y - A)
                assert z >= 0 and w >= 0
                assert z + psi.eval(w) == want
                assert grid_infusion_value(psi, A, y, 4) >= want
            values = [v for _, v in fn.points]
            assert fn.points[0][0] == 0
            assert values == sorted(values, reverse=True)
            assert values[-1] == 0
        assert time.monotonic() - start <= 120


def test_criterion_09_stopped_value_martingales():
    @report(9, "stopped values are super/sub/martingales")
    def check():
        rng = random.Random(1009)
        for _ in range(100):
            X, Y = random_game(rng, max_n=3)
            ok, failures = certify_stopped_values(X, Y)
            assert ok, failures


def test_criterion_10_cli_determinism():
    @report(10, "CLI output is byte-identical across runs")
    def check():
        base = resources.files("swinghedge") / "contracts"
        for entry in sorted(base.iterdir(), key=lambda e: e.name):
            if not entry.name.endswith(".json"):
                continue
            with resources.as_file(entry) as path:
                for args in (["price", str(path)],
                             ["strategies", str(path)],
                             ["risk", str(path), "--capital", "1/7"],
                             ["risk-curve", str(path)]):
                    cmd = [sys.executable, "-m", "swinghedge.cli"] + args
                    one = subprocess.run(cmd, capture_output=True, check=True)
                    two = subprocess.run(cmd, capture_output=True, check=True)
                    assert one.stdout == two.stdout
                    assert one.stdout
        verify = [sys.executable, "-m", "swinghedge.cli", "verify"]
        assert subprocess.run(verify, capture_output=True, check=True).stdout \
            == subprocess.run(verify, capture_output=True, check=True).stdout
