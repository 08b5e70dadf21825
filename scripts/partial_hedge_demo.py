"""Run the optimal partial hedge of each bundled contract at half its price.

For every bundled contract, takes capital x = price/2, reads the optimal
shares, injections and cancellations off the risk stack, plays them against
the buyer that extracts the full risk, and prints the wealth and injections
on every path. Then prints the committed seller's risk by both evaluation
routes next to the curve's value at x.

    python3 scripts/partial_hedge_demo.py
"""

import json
from importlib import resources

from swinghedge.contract import build_contract
from swinghedge.shortfall import (
    build_risk_stack,
    evaluate_risk,
    optimal_buyer,
    optimal_hedge,
    simulate_with_infusion,
)
from swinghedge.swing import price_swing, resolve


def bundled(name):
    text = (resources.files("swinghedge") / "contracts" / f"{name}.json").read_text()
    return build_contract(json.loads(text))


def show(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


def main():
    for name in ["one_right_small_penalty", "two_rights_uncancellable",
                 "american_call_proxy"]:
        contract = bundled(name)
        _, price = price_swing(contract)
        x = price / 2
        stack = build_risk_stack(contract)
        gamma, infusion, seller = optimal_hedge(stack, x)
        play = resolve(seller, optimal_buyer(stack, x))
        print(f"{name}: price {price}, capital {x}, risk {stack.risk(x)}")
        for path in contract.tree.paths():
            out = simulate_with_infusion(
                contract, gamma, infusion, play.events[path], path, x
            )
            paid = ", ".join(f"({k}, {i}, {z})" for k, i, z in out.infusions)
            print(f"  path {contract.tree.path_bits(path)}: "
                  f"pre {show(out.pre)}, post {show(out.post)}, "
                  f"injections [{paid}], cost {out.cost}")
        for mode in ("enumeration", "recursion"):
            value = evaluate_risk(contract, gamma, infusion, seller, x, mode=mode)
            print(f"  evaluate_risk {mode}: {value}")


if __name__ == "__main__":
    main()
