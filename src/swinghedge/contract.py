"""Swing game contracts.

A contract grants the buyer L ordered rights. While the i-th right is alive
the buyer may exercise it at a node and collect Y_i there, or the seller may
cancel it and pay X_i = Y_i + penalty. If both act at the same moment the
exercise payoff Y_i is paid. After a payoff the next right becomes active one
period later (or immediately at maturity, where every remaining right settles
at its exercise value).

The per-claim payoff for seller time m and buyer time n is

    H_i(m, n) = X_i(m) if m < n, else Y_i(n),

evaluated at the node reached at level min(m, n).

Contracts are ingested from a small JSON schema, validated as a whole, then
materialized as one value per state of the contract's state space (the
recombining lattice when every leg is Markov, else the full tree) and checked
(0 <= Y <= X everywhere). Materialization works on the integer rows of
AdaptedProcess: each leg level is a list of numerators over the smallest
common denominator of the level, computed from the stock prices and the
scalars with integer arithmetic.

Table entries are parsed into reduced (numerator, denominator) int pairs. A
plain ASCII string "-?[0-9]+(/[0-9]+)?" of at most 640 characters with a
nonzero denominator is read directly; every other entry goes through
market.to_rational, so the accepted entries, their values and the error
messages are those of to_rational.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ContractError, echo
from .market import (
    AdaptedProcess,
    MarketParams,
    ScenarioTree,
    build_tree,
    format_rational,
    lift_pairs,
    normalized,
    to_rational,
)


@dataclass(frozen=True)
class ClaimPayoffs:
    """Exercise process Y and cancellation process X of one right, Y <= X."""

    exercise: AdaptedProcess
    cancel: AdaptedProcess


@dataclass(frozen=True)
class SwingContract:
    tree: ScenarioTree
    claims: tuple

    @property
    def L(self) -> int:
        return len(self.claims)

    def Y(self, i: int) -> AdaptedProcess:
        """Exercise payoff of claim i (1-based)."""
        return self.claims[i - 1].exercise

    def X(self, i: int) -> AdaptedProcess:
        """Cancellation payoff of claim i (1-based)."""
        return self.claims[i - 1].cancel

    def terminal_bundle(self, first: int, m: int) -> Fraction:
        """Sum of Y_i(N) for i >= first at terminal node m."""
        N = self.tree.N
        return sum(
            (self.Y(i).at(N, m) for i in range(first, self.L + 1)), Fraction(0)
        )


def payoff_at(contract: SwingContract, claim: int, m: int, n: int, node: int) -> Fraction:
    """H_claim(m, n) evaluated at `node`, which lives at level min(m, n)."""
    if not (1 <= claim <= contract.L):
        raise ContractError(f"claim index {claim} out of range 1..{contract.L}")
    N = contract.tree.N
    if not (0 <= m <= N and 0 <= n <= N):
        raise ContractError(f"stopping levels ({m}, {n}) out of range 0..{N}")
    k = min(m, n)
    if not (0 <= node < 2 ** k):
        raise ContractError(f"node {node} not at level {k}")
    if m < n:
        return contract.X(claim).at(m, node)
    return contract.Y(claim).at(n, node)


def _node_name(k: int, m: int) -> str:
    if k == 0:
        return "root"
    return f"level {k}, path {format(m, f'0{k}b').replace('1', 'u').replace('0', 'd')}"


# The field each leg kind reads; an infinite-proxy "value" is optional.
LEG_FIELDS = {
    "exercise": {"call": "strike", "put": "strike", "table": "values"},
    "penalty": {"constant": "value", "proportional": "factor", "table": "values",
                "infinite-proxy": "value"},
}


# Python refuses int() of a string longer than sys.get_int_max_str_digits(),
# which is 0 (no limit) or at least 640, so shorter strings parse the same
# under every setting.
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_PLAIN_MAX = 640


def _parse_entry(value) -> tuple:
    """One table entry as a reduced (numerator, denominator) pair."""
    if isinstance(value, str) and len(value) <= _PLAIN_MAX:
        match = _PLAIN.fullmatch(value)
        if match:
            n, d = match.groups()
            n, d = int(n), 1 if d is None else int(d)
            if d:
                g = gcd(n, d)
                return n // g, d // g
    q = to_rational(value)
    return q.numerator, q.denominator


def _parse_table(values, N: int, where: str) -> list:
    """Rows of reduced (numerator, denominator) pairs, one per level, row k
    holding 2^k entries.

    The whole shape is checked before any entry is parsed. Entries are
    parsed in row order, each distinct string once: a table of 2^(N+1) - 1
    entries usually spells a few hundred distinct values. Only strings are
    memoized, since True == 1 == 1.0 hash alike and bools and floats must
    still be refused; an entry that fails raises before it is kept, so the
    first bad entry and its message are those of a plain parse.
    """
    if not isinstance(values, list) or not all(isinstance(row, list) for row in values):
        raise ContractError(f"{where}: table values must be a list of lists")
    if len(values) != N + 1:
        raise ContractError(f"{where}: table has {len(values)} levels, the tree has {N + 1}")
    for k, row in enumerate(values):
        if len(row) != 2 ** k:
            raise ContractError(f"{where}: table level {k} has {len(row)} entries, wants {2 ** k}")
    # a hedge-pathdep cycle repeats 5,546 of its 6,135 entries: 1.6 ms, 6.7 ms unkept
    parsed = {}  # string entry -> its pair

    def entry(v):
        if type(v) is not str:
            return _parse_entry(v)
        pair = parsed.get(v)
        if pair is None:
            pair = parsed[v] = _parse_entry(v)
        return pair

    return [[entry(v) for v in row] for row in values]


def _parse_leg(spec, part: str, idx: int, N: int) -> tuple:
    """(kind, argument) of one exercise or penalty spec.

    The argument is a Fraction, table rows (see _parse_table), or None for
    a proxy without an explicit value.
    """
    where = f"claim {idx} {part}"
    if not isinstance(spec, dict):
        raise ContractError(f"{where} spec must be an object")
    kind = spec.get("kind")
    fields = LEG_FIELDS[part]
    if not isinstance(kind, str) or kind not in fields:
        raise ContractError(f"claim {idx} has unknown {part} kind {echo(kind)}")
    field = fields[kind]
    if field not in spec:
        if kind == "infinite-proxy":
            return kind, None
        raise ContractError(f"{where} spec is missing {field!r}")
    if kind == "table":
        return kind, _parse_table(spec[field], N, where)
    return kind, to_rational(spec[field])


def _parse_claims(raw_claims, N: int) -> list:
    """Validate every claim of a spec; returns [(exercise leg, penalty leg)]."""
    if not isinstance(raw_claims, list) or not raw_claims:
        raise ContractError("contract spec needs a non-empty 'claims' list")
    legs = []
    for idx, claim in enumerate(raw_claims, start=1):
        if not isinstance(claim, dict) or "exercise" not in claim or "penalty" not in claim:
            raise ContractError(f"claim {idx} needs 'exercise' and 'penalty'")
        legs.append((_parse_leg(claim["exercise"], "exercise", idx, N),
                     _parse_leg(claim["penalty"], "penalty", idx, N)))
    return legs


def _up_count_rows(rows):
    """Lattice rows of a table constant on every up-count class, else None.

    Entries are reduced pairs, so equal values are equal pairs.

    Stops at the first entry that differs from its class.
    """
    out = []
    for k, row in enumerate(rows):
        states = [row[(1 << s) - 1] for s in range(k + 1)]
        if any(v != states[m.bit_count()] for m, v in enumerate(row)):
            return None
        out.append(states)
    return out


def _is_markov(leg) -> bool:
    kind, arg = leg
    return kind != "table" or _up_count_rows(arg) is not None


def _table_process(rows, tree: ScenarioTree) -> AdaptedProcess:
    if tree.recombining:
        rows = _up_count_rows(rows)
        if rows is None:
            raise ContractError("a path-dependent table needs the full tree")
    return AdaptedProcess._of(tree, *lift_pairs(rows))


def _exercise_process(leg, tree: ScenarioTree) -> AdaptedProcess:
    """Y of one exercise leg. A call pays max(price - K, 0) and a put
    max(K - price, 0), both computed on the integer price rows over the lcm
    of the price and strike denominators."""
    kind, arg = leg
    if kind == "table":
        return _table_process(arg, tree)
    kn, kd = arg.numerator, arg.denominator
    sign = 1 if kind == "call" else -1
    nums, dens = [], []
    for row, pd in zip(tree.stock.nums, tree.stock.dens):
        den = lcm(pd, kd)
        a, b = sign * (den // pd), sign * kn * (den // kd)
        row, den = normalized([max(p * a - b, 0) for p in row], den)
        nums.append(row)
        dens.append(den)
    return AdaptedProcess._of(tree, nums, dens)


def _proxy_constant(exercise_procs, finite_penalty_caps) -> Fraction:
    """A finite stand-in for an uncancellable claim.

    Any constant strictly above the largest total the buyer could ever
    extract makes cancellation never optimal; exact infinities would not fit
    the rational scalar type.
    """
    total = Fraction(1)
    for proc in exercise_procs:
        total += proc.max_value()
    for cap in finite_penalty_caps:
        total += cap
    return total


def _penalty_rows(leg, Y: AdaptedProcess, tree: ScenarioTree, proxy_default) -> tuple:
    """Per-state penalty X - Y as (numerator rows, level denominators); only
    table penalties apply at maturity."""
    kind, arg = leg
    N = tree.N
    if kind == "table":
        delta = _table_process(arg, tree)
        return delta.nums, delta.dens
    if kind == "proportional":
        fn, fd = arg.numerator, arg.denominator
        rows = [normalized([fn * y for y in row], fd * den)
                for row, den in zip(Y.nums[:N], Y.dens)]
    else:
        c = proxy_default if arg is None else arg
        rows = [([c.numerator] * tree.width(k), c.denominator) for k in range(N)]
    rows.append(([0] * tree.width(N), 1))
    return [row for row, _ in rows], [den for _, den in rows]


def build_contract(spec: dict, tree: ScenarioTree = None) -> SwingContract:
    """Materialize a contract from its JSON-style dict.

    Schema: {"model": {S0, a, b, p, N}, "claims": [{"exercise": ..., "penalty": ...}]}
    with exercise kinds call(strike) / put(strike) / table(values) and penalty
    kinds constant(value) / proportional(factor) / table(values) /
    infinite-proxy(optional value). Scalars are rational strings. constant and
    proportional penalties apply before maturity only (at maturity cancelling
    and exercising are the same event, so X(N) = Y(N)); table penalties are
    explicit at every level.

    The whole spec is validated before any state space is built. Without an
    explicit tree the contract lives on the recombining lattice when every
    leg depends on the node only through its up-count (call, put, constant,
    proportional and proxy legs always do, tables when their rows are
    constant on every up-count class), and on the full tree otherwise.
    """
    if not isinstance(spec, dict):
        raise ContractError("contract spec must be a JSON object")
    if tree is None:
        if "model" not in spec:
            raise ContractError("contract spec needs a 'model' section")
        params = MarketParams.from_dict(spec["model"])
        legs = _parse_claims(spec.get("claims"), params.N)
        markov = all(_is_markov(leg) for claim in legs for leg in claim)
        tree = build_tree(params, recombining=markov)
    else:
        legs = _parse_claims(spec.get("claims"), tree.N)

    exercise_procs = [_exercise_process(ex, tree) for ex, _ in legs]

    # Proxy penalties need the whole contract's payoff scale, so resolve the
    # finite penalty caps first.
    finite_caps = []
    for Y, (_, (kind, arg)) in zip(exercise_procs, legs):
        if kind == "constant":
            finite_caps.append(abs(arg))
        elif kind == "proportional":
            finite_caps.append(abs(arg) * Y.max_value())
        elif kind == "table":
            top, top_den = 0, 1
            for row in arg:
                for n, d in row:
                    if abs(n) * top_den > top * d:
                        top, top_den = abs(n), d
            finite_caps.append(Fraction(top, top_den))
    proxy_default = _proxy_constant(exercise_procs, finite_caps)

    claims = []
    for idx, (Y, (_, pen)) in enumerate(zip(exercise_procs, legs), start=1):
        delta_nums, delta_dens = _penalty_rows(pen, Y, tree, proxy_default)
        x_nums, x_dens = [], []
        for y_row, dy, d_row, dd in zip(Y.nums, Y.dens, delta_nums, delta_dens):
            den = lcm(dy, dd)
            fy, fd = den // dy, den // dd
            row, den = normalized([y * fy + d * fd for y, d in zip(y_row, d_row)], den)
            x_nums.append(row)
            x_dens.append(den)
        X = AdaptedProcess._of(tree, x_nums, x_dens)
        # states in level order: the first failing state names its smallest
        # node; X < Y exactly where the penalty is negative
        for k in range(tree.N + 1):
            if min(Y.nums[k]) >= 0 and min(delta_nums[k]) >= 0:
                continue
            for s, (y, d) in enumerate(zip(Y.nums[k], delta_nums[k])):
                if y < 0:
                    raise ContractError(
                        f"claim {idx}: negative exercise payoff {format_rational(Y.row(k)[s])} "
                        f"at {_node_name(k, next(tree.nodes_of(k, s)))}"
                    )
                if d < 0:
                    raise ContractError(
                        f"claim {idx}: cancellation payoff {format_rational(X.row(k)[s])} below "
                        f"exercise payoff {format_rational(Y.row(k)[s])} at "
                        f"{_node_name(k, next(tree.nodes_of(k, s)))}"
                    )
        claims.append(ClaimPayoffs(exercise=Y, cancel=X))

    return SwingContract(tree=tree, claims=tuple(claims))


def load_contract(path: str) -> SwingContract:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc
    # malformed JSON, bad encoding, an oversized integer, or nesting deeper
    # than the parser's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ContractError(f"{path} is not valid JSON: {exc}") from exc
    return build_contract(spec)
