"""Run the optimal partial hedge of a path-dependent contract on the full tree.

Builds a two-right contract at N=5 from table legs: a lookback call, which
pays the running maximum of the price over a strike, and an Asian put, which
pays a strike over the running average (the legs of pathdep_demo.py). For
capitals x = k/5 of the price, k = 0..4, reads the optimal shares,
injections and cancellations off the risk stack, plays them against the
buyer that extracts the full risk, and prints the risk at x and, on every
path, the settlements, the wealth before and after each level's
settlements, the injections and their total.

    python3 scripts/partial_hedge_pathdep.py
"""

from fractions import Fraction

from pathdep_demo import MODEL, claim
from swinghedge.contract import build_contract
from swinghedge.shortfall import (
    build_risk_stack,
    optimal_buyer,
    optimal_hedge,
    simulate_with_infusion,
)
from swinghedge.swing import price_swing, resolve

STEPS = 5


def show(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


def main():
    contract = build_contract({"model": MODEL, "claims": [
        claim("lookback-call", "9/2", "1/2"),
        claim("asian-put", "4", "2/5"),
    ]})
    tree = contract.tree
    _, price = price_swing(contract)
    stack = build_risk_stack(contract)
    print(f"partial hedge pathdep (full tree {not tree.recombining}, N {tree.N}, "
          f"L {contract.L}): price {price}")
    for step in range(STEPS):
        x = price * Fraction(step, STEPS)
        gamma, infusion, seller = optimal_hedge(stack, x)
        play = resolve(seller, optimal_buyer(stack, x))
        print(f"  capital {x}: risk {stack.risk(x)}")
        for path in tree.paths():
            out = simulate_with_infusion(
                contract, gamma, infusion, play.events[path], path, x
            )
            events = ", ".join(
                f"({ev.level}, {ev.d}, {ev.seller_stopped}, {ev.buyer_stopped})"
                for ev in play.events[path]
            )
            paid = ", ".join(f"({k}, {i}, {z})" for k, i, z in out.infusions)
            print(f"    path {tree.path_bits(path)}: events [{events}], "
                  f"pre {show(out.pre)}, post {show(out.post)}, "
                  f"injections [{paid}], cost {out.cost}")


if __name__ == "__main__":
    main()
