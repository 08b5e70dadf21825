"""Check the perfect hedge of each bundled contract, and run it underfunded.

For every bundled contract, verifies the perfect hedge against the optimal
seller at the price and just below it, printing the verdict, the play count
and every field of the witness. Then plays the optimal seller and buyer
against the hedge started at half the price, where it stays in cash at every
underfunded state, and prints the wealth on every path.

    python3 scripts/hedge_check_demo.py
"""

import json
from fractions import Fraction
from importlib import resources

from swinghedge.contract import build_contract
from swinghedge.hedge import build_perfect_hedge, simulate_portfolio, verify_perfect_hedge
from swinghedge.swing import optimal_strategies, price_swing, resolve


def bundled(name):
    text = (resources.files("swinghedge") / "contracts" / f"{name}.json").read_text()
    return build_contract(json.loads(text))


def show(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


def main():
    for name in ["one_right_small_penalty", "two_rights_uncancellable",
                 "american_call_proxy"]:
        contract = bundled(name)
        stack, price = price_swing(contract)
        seller, buyer = optimal_strategies(stack)
        hedge = build_perfect_hedge(stack)
        print(f"{name}: price {price}")
        for x in (price, price - Fraction(1, 10 ** 6)):
            check = verify_perfect_hedge(contract, hedge, x, seller)
            print(f"  verify at {x}: ok {check.ok}, plays {check.plays}")
            w = check.witness
            if w is not None:
                events = ", ".join(
                    f"({ev.level}, {ev.d}, {ev.seller_stopped}, {ev.buyer_stopped})"
                    for ev in w.events
                )
                print(f"    witness path {w.path} ({w.bits}), level {w.level}, "
                      f"wealth {w.wealth}, events [{events}]")
        x = price / 2
        play = resolve(seller, buyer)
        print(f"  simulate at {x}:")
        for path in contract.tree.paths():
            pre, post = simulate_portfolio(contract, hedge, x, play.events[path], path)
            print(f"    path {contract.tree.path_bits(path)}: "
                  f"pre {show(pre)}, post {show(post)}")


if __name__ == "__main__":
    main()
