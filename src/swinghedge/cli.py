"""Command line front end.

Subcommands::

    price           perfect-hedge price and the per-rights stack values
    strategies      the saddle-point stopping tables
    hedge-simulate  wealth of the perfect hedge along one path
    risk            shortfall risk of a given initial capital
    risk-curve      the whole risk curve, optionally sampled to CSV
    verify          self-contained cross-checks on the bundled contracts

All quantities are exact rationals printed as "p/q" strings; --decimal adds
float renderings next to them. Exit codes: 0 success, 1 bad input, 2 an
enumeration would exceed its cap, 3 a cross-check or internal invariant
failed. (argparse itself also exits 2 on bad usage.)
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import cache
from importlib import resources

from .contract import build_contract, load_contract
from .errors import ContractError, EnumerationCapError, InvariantError, check_cap, echo
from .hedge import build_perfect_hedge, check_capital, simulate_portfolio, verify_perfect_hedge
from .market import format_rational
from .oracle import DEFAULT_ENUMERATION_CAP, brute_force_value, certify_saddle
from .pwl import PwlFn
from .shortfall import build_risk_stack
from .swing import optimal_strategies, price_swing, resolve_path


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _float(x):
    try:
        return float(x)
    except OverflowError:
        raise ContractError("a result is too large for a float") from None


def _fmt(x, decimal=False):
    if decimal:
        return {"exact": format_rational(x), "decimal": _float(x)}
    return format_rational(x)


def _parse_path(text, N):
    bits = text.strip().lower()
    if len(bits) != N or any(c not in "ud" for c in bits):
        raise ContractError(f"path must be {N} letters of u/d, got {echo(text)}")
    path = 0
    for c in bits:
        path = (path << 1) | (1 if c == "u" else 0)
    return path


def cmd_price(args):
    contract = load_contract(args.contract)
    stack, price = price_swing(contract)
    _emit({
        "price": _fmt(price, args.decimal),
        "root_values": [_fmt(v.at(0, 0), args.decimal) for v in stack.V],
    })
    return 0


def _table_entries(strategy):
    return [{"claim": i, "level": k, "node": m} for i, k, m in strategy.entries()]


def cmd_strategies(args):
    contract = load_contract(args.contract)
    stack, price = price_swing(contract)
    seller, buyer = optimal_strategies(stack)
    # one entry per full-tree node: refuse before a lattice table expands
    check_cap(seller.entry_count() + buyer.entry_count(), DEFAULT_ENUMERATION_CAP)
    _emit({
        "value": _fmt(price, args.decimal),
        "seller_cancels": _table_entries(seller),
        "buyer_exercises": _table_entries(buyer),
    })
    return 0


def cmd_hedge_simulate(args):
    contract = load_contract(args.contract)
    tree = contract.tree
    path = _parse_path(args.path, tree.N)
    capital = None if args.capital is None else check_capital(args.capital)
    stack, price = price_swing(contract)
    seller, buyer = optimal_strategies(stack)
    capital = price if capital is None else capital
    portfolio = build_perfect_hedge(stack)
    events = resolve_path(seller, buyer, path)
    pre, post = simulate_portfolio(contract, portfolio, capital, events, path)
    doc = {
        "path": args.path,
        "capital": _fmt(capital, args.decimal),
        "prices": [
            _fmt(tree.stock.at(k, tree.node_on_path(path, k)), args.decimal)
            for k in range(tree.N + 1)
        ],
        "wealth_before": [_fmt(w, args.decimal) for w in pre],
        "wealth_after": [_fmt(w, args.decimal) for w in post],
        "events": [
            {
                "claim": i,
                "level": ev.level,
                "kind": "cancel" if ev.d else "exercise",
                "paid": _fmt(
                    (contract.X(i) if ev.d else contract.Y(i)).at(
                        ev.level, tree.node_on_path(path, ev.level)
                    ),
                    args.decimal,
                ),
            }
            for i, ev in enumerate(events, start=1)
        ],
    }
    _emit(doc)
    return 0


def cmd_risk(args):
    contract = load_contract(args.contract)
    x = check_capital(args.capital)
    stack = build_risk_stack(contract)
    _emit({
        "capital": _fmt(x, args.decimal),
        "risk": _fmt(stack.risk(x), args.decimal),
    })
    return 0


def cmd_risk_curve(args):
    contract = load_contract(args.contract)
    curve = build_risk_stack(contract).curve()
    points = curve.points  # each breakpoint's Fractions, built once
    doc = {
        "breakpoints": [
            {"capital": _fmt(x, args.decimal), "risk": _fmt(v, args.decimal)}
            for x, v in points
        ],
        "wire": [[format_rational(x), format_rational(v)] for x, v in points],  # as to_wire()
    }
    if args.csv:
        xs = [x for x, _ in points]
        grid = []
        for lo, hi in zip(xs, xs[1:]):
            grid.append(lo)
            grid.append((lo + hi) / 2)
        grid.append(xs[-1])
        rows = [f"{_float(x)},{_float(curve.eval(x))}\n" for x in grid]
        try:
            with open(args.csv, "w") as fh:
                fh.write("capital,risk\n")
                fh.writelines(rows)
        except OSError as exc:
            raise ContractError(f"cannot write {args.csv}: {exc}") from exc
    _emit(doc)
    return 0


def _bundled_contracts():
    base = resources.files("swinghedge") / "contracts"
    out = []
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append((entry.name[:-5], build_contract(json.loads(entry.read_text()))))
    return out


def cmd_verify(args):
    eps = Fraction(1, 10 ** 6)
    rng = random.Random(2026)
    report = {}
    all_ok = True
    for name, contract in _bundled_contracts():
        stack, price = price_swing(contract)
        checks = {}
        checks["price_matches_enumeration"] = price == brute_force_value(
            contract, cap=args.cap
        )
        seller, buyer = optimal_strategies(stack)
        checks["saddle_certified"] = certify_saddle(contract, seller, buyer, cap=args.cap).ok
        portfolio = build_perfect_hedge(stack)
        checks["hedge_covers_at_price"] = verify_perfect_hedge(
            contract, portfolio, price, seller, cap=args.cap
        ).ok
        short = verify_perfect_hedge(contract, portfolio, price - eps, seller, cap=args.cap)
        checks["hedge_fails_below_price"] = (not short.ok) and short.witness is not None
        risk_stack = build_risk_stack(contract)
        risk_at_price = risk_stack.risk(price)
        checks["risk_vanishes_at_price"] = risk_at_price == 0
        curve = risk_stack.curve()
        wired = PwlFn.from_wire(curve.to_wire())
        agree = wired == curve
        hi = 2 * curve.support_end if curve.support_end > 0 else Fraction(2)
        for _ in range(100):
            y = Fraction(rng.randrange(0, 10 ** 6), 10 ** 6) * hi
            agree = agree and wired.eval(y) == curve.eval(y)
        checks["curve_round_trips"] = agree
        report[name] = {
            "price": format_rational(price),
            "risk_at_price": format_rational(risk_at_price),
            "checks": checks,
        }
        all_ok = all_ok and all(checks.values())
    _emit({"contracts": report, "ok": all_ok})
    return 0 if all_ok else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swinghedge",
        description="price, hedge, and risk of multi-right cancellable options "
        "on a binomial tree, in exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_contract(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("contract", help="contract JSON file")
        p.add_argument("--decimal", action="store_true",
                       help="add float renderings next to exact values")
        p.set_defaults(fn=fn)
        return p

    with_contract("price", cmd_price, "perfect-hedge price")
    with_contract("strategies", cmd_strategies, "saddle-point stopping tables")
    p = with_contract("hedge-simulate", cmd_hedge_simulate,
                      "perfect-hedge wealth along one path")
    p.add_argument("--path", required=True,
                   help="price path as u/d letters, e.g. uud")
    p.add_argument("--capital", default=None,
                   help="initial capital (default: the price)")
    p = with_contract("risk", cmd_risk, "shortfall risk of a given capital")
    p.add_argument("--capital", required=True, help="initial capital, e.g. 1/20")
    p = with_contract("risk-curve", cmd_risk_curve,
                      "the entire shortfall risk curve")
    p.add_argument("--csv", default=None, help="also sample the curve to CSV")
    p = sub.add_parser("verify", help="cross-check the bundled contracts")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="enumeration size cap")
    p.set_defaults(fn=cmd_verify)
    return parser


# building it takes about 1.0 ms, as long as a whole price-markov job (0.9 ms)
@cache
def _parser():
    """The parser, built on the first call and shared by later ones."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
