"""Price the L=3 baseline lattice at large horizons.

    python3 scripts/price_scale.py

The baseline alternates call and put rights with strike 1 and a constant
1/10 penalty, on S0 = 1, a = -1/3, b = 1/2, p = 3/5. Its prices at N = 60
and 120 are big-integer recursions that the bundled contracts (N <= 2)
never reach; the output pins them exactly.
"""

from swinghedge.contract import build_contract
from swinghedge.swing import price_swing


def baseline(N):
    return build_contract({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": N},
        "claims": [{"exercise": {"kind": kind, "strike": "1"},
                    "penalty": {"kind": "constant", "value": "1/10"}}
                   for kind in ("call", "put", "call")],
    })


def main():
    for N in (60, 120):
        stack, price = price_swing(baseline(N))
        print(f"N={N}: price {price}")
        for k, v in enumerate(stack.V, start=1):
            print(f"  V{k} at the root: {v.at(0, 0)}")


if __name__ == "__main__":
    main()
