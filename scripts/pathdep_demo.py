"""Price, certify and hedge a path-dependent contract on the full tree.

Builds a three-right contract at N=5 from table legs: two lookback calls,
which pay the running maximum of the price over a strike, and an Asian put,
which pays a strike over the running average. Prints its price and every
field of the saddle certificate of the optimal pair under both measures,
then the certificates of two failing pairs with the witness strategy each
blames: the seller's where both players wait, the buyer's where the buyer
exercises every right at once. Last, verifies the perfect hedge
against the optimal seller at the price and just below it.

    python3 scripts/pathdep_demo.py
"""

from fractions import Fraction

from swinghedge.contract import build_contract
from swinghedge.hedge import build_perfect_hedge, verify_perfect_hedge
from swinghedge.market import MARKET, MARTINGALE
from swinghedge.oracle import certify_saddle
from swinghedge.swing import TableStrategy, optimal_strategies, price_swing

MODEL = {"S0": "4", "a": "-1/4", "b": "1/2", "p": "2/5", "N": 5}


def prices():
    """Stock price rows of the full tree, node m's children at 2m and 2m+1."""
    up, down = 1 + Fraction(MODEL["b"]), 1 + Fraction(MODEL["a"])
    rows = [[Fraction(MODEL["S0"])]]
    for _ in range(MODEL["N"]):
        rows.append([s * f for s in rows[-1] for f in (down, up)])
    return rows


def table(leg, strike):
    """Per-node payoff of a path-dependent leg, row k holding 2^k entries."""
    rows = prices()
    out = []
    for k, row in enumerate(rows):
        vals = []
        for m in range(len(row)):
            path = [rows[j][m >> (k - j)] for j in range(k + 1)]
            if leg == "lookback-call":
                v = max(max(path) - strike, Fraction(0))
            else:
                v = max(strike - sum(path) / len(path), Fraction(0))
            vals.append(str(v))
        out.append(vals)
    return out


def claim(leg, strike, penalty):
    return {"exercise": {"kind": "table", "values": table(leg, Fraction(strike))},
            "penalty": {"kind": "constant", "value": penalty}}


def show_certificate(cert):
    print(f"    ok {cert.ok}, value {cert.value}")
    print(f"    buyer_best_response {cert.buyer_best_response}")
    print(f"    seller_best_response {cert.seller_best_response}")
    for side, witness in (("buyer", cert.buyer_witness), ("seller", cert.seller_witness)):
        if witness is None:
            print(f"    {side}_witness None")
            continue
        entries = witness.to_entries()
        print(f"    {side}_witness {len(entries)} stops:")
        for e in entries:
            hist = "".join(f"({k},{d})" for k, d in e["history"])
            print(f"      claim {e['claim']}, level {e['level']}, node {e['node']}, "
                  f"history [{hist}]")


def main():
    contract = build_contract({"model": MODEL, "claims": [
        claim("lookback-call", "9/2", "1/2"),
        claim("asian-put", "4", "2/5"),
        claim("lookback-call", "5", "3/10"),
    ]})
    tree, L = contract.tree, contract.L
    stack, price = price_swing(contract)
    seller, buyer = optimal_strategies(stack)
    print(f"pathdep (full tree {not tree.recombining}, N {tree.N}, L {L}): price {price}")
    for name, measure in (("martingale", MARTINGALE), ("market", MARKET)):
        print(f"  optimal pair, {name} measure:")
        show_certificate(certify_saddle(contract, seller, buyer, measure))
    wait = TableStrategy.all_wait(tree, L)
    print("  both wait, martingale measure:")
    show_certificate(certify_saddle(contract, wait, wait))
    print("  optimal seller, buyer exercising at once, market measure:")
    show_certificate(certify_saddle(contract, seller, TableStrategy.all_at_start(tree, L), MARKET))
    hedge = build_perfect_hedge(stack)
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


if __name__ == "__main__":
    main()
