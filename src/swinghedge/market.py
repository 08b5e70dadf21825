"""Binomial market model with exact rational arithmetic.

The market has one stock and one bond over N periods. Each period the stock
return is b (up) or a (down) with -1 < a < 0 < b; the bond rate is zero, so
money is its own discounting. The market measure gives probability p to the
up move. The unique martingale probability is ptilde = a / (a - b), the one
value that makes the expected one-step return vanish.

A node is a pair (level k, index m) with 0 <= m < 2^k, where the bits of m
spell the path, most significant bit first, 1 meaning up. Node indices are the
public coordinates everywhere. The recursions instead run over the states of
a ScenarioTree: the nodes themselves on the full binary tree, or the k + 1
up-counts of level k on the recombining (Cox-Ross-Rubinstein) lattice, and
ScenarioTree.state is the one rule that maps a node to its state. The
lattice is exact whenever every payoff depends on the node only through its
up-count; path-dependent payoffs need the full tree.

Every scalar is exact. Model parameters are fractions.Fraction. An
AdaptedProcess, the stock price process among them, holds integers: per
level, a list of numerators over one positive denominator, so sums,
expectations and comparisons within a level are integer operations. Its
one Fraction cache is per level: `row(k)` builds level k's Fractions on
first read and keeps them, and `values` reads through it; `at` builds only
the one Fraction it returns. The recursions downstream contain exact
equality tests (optimal stopping ties, piecewise-linear breakpoints), so
floating point is never used.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import DEFAULT_ENUMERATION_CAP, ContractError, EnumerationCapError, check_cap, echo

MARKET = "market"
MARTINGALE = "martingale"

# A decimal exponent multiplies by a power of ten, so "1e1000000000" would
# build a billion-digit integer. Strings whose expansion could pass CPython's
# default limit on int <-> str conversion are refused before Fraction runs.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def to_rational(value) -> Fraction:
    """Parse a scalar into an exact Fraction.

    Accepts Fractions, ints, and strings like "-1/2" or "3". Floats are
    rejected: they carry binary rounding that would poison exact ties. So are
    booleans, although Python counts them as ints.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ContractError(f"not a rational: {echo(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exp = _EXPONENT.search(value)
        if exp:
            digits = sum(ch.isdigit() for ch in value[: exp.start()])
            power = exp.group(1).replace("_", "")
            if len(power) > len(str(MAX_DIGITS)) or int(power) + digits > MAX_DIGITS:
                raise ContractError(f"not a rational: {echo(value)} expands past {MAX_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ContractError(f"not a rational: {echo(value)}") from exc
    if isinstance(value, float):
        raise ContractError(f"not a rational: {echo(value)} (floats are not accepted)")
    raise ContractError(f"not a rational: {echo(value)}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "num/den", or just "num" for integers.

    A result may outgrow inputs that were within MAX_DIGITS (S0 * (1 + b)
    has one digit more than S0); such a value is refused as a ContractError
    rather than escaping as the interpreter's ValueError.
    """
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ContractError(f"a result has more than {limit} digits to print") from exc


def martingale_prob(a, b) -> Fraction:
    """The unique martingale up-probability ptilde = a / (a - b).

    Requires -1 < a < 0 < b; then ptilde * b + (1 - ptilde) * a = 0 and
    0 < ptilde < 1.
    """
    a, b = to_rational(a), to_rational(b)
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    if not (-ad < an < 0 < bn):
        raise ContractError(f"need -1 < a < 0 < b, got a={echo(a, str)}, b={echo(b, str)}")
    # (an/ad) / (an/ad - bn/bd), over the common denominator ad*bd
    return Fraction(an * bd, an * bd - bn * ad)


@dataclass(frozen=True)
class MarketParams:
    """Market primitives: initial price, returns, market probability, horizon."""

    S0: Fraction
    a: Fraction
    b: Fraction
    p: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "S0", to_rational(self.S0))
        object.__setattr__(self, "a", to_rational(self.a))
        object.__setattr__(self, "b", to_rational(self.b))
        object.__setattr__(self, "p", to_rational(self.p))
        if self.S0 <= 0:
            raise ContractError(f"S0 must be positive, got {echo(self.S0, str)}")
        if not (Fraction(-1) < self.a < 0 < self.b):
            raise ContractError(f"need -1 < a < 0 < b, got a={echo(self.a, str)}, "
                                f"b={echo(self.b, str)}")
        if not (0 < self.p < 1):
            raise ContractError(f"need 0 < p < 1, got p={echo(self.p, str)}")
        if not (isinstance(self.N, int) and not isinstance(self.N, bool) and self.N >= 1):
            raise ContractError(f"horizon N must be an integer >= 1, got {echo(self.N)}")
        # past the cap on either state space (each holds more than N states):
        # refused before a count or a message of N's size is built
        if self.N > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(None, DEFAULT_ENUMERATION_CAP)

    @classmethod
    def from_dict(cls, d: dict) -> "MarketParams":
        try:
            raw_n = d["N"]
        except (KeyError, TypeError) as exc:
            raise ContractError("model needs keys S0, a, b, p, N") from exc
        if isinstance(raw_n, str):
            negative = raw_n.startswith("-")
            digits = raw_n[1:] if negative else raw_n
            if not digits.isdecimal():
                raise ContractError(f"N must be an integer, got {echo(raw_n)}")
            # refused before int() meets thousands of digits: an N with more
            # digits than the cap is negative or past the cap
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(DEFAULT_ENUMERATION_CAP)):
                if negative:
                    raise ContractError("horizon N must be an integer >= 1, got a negative one")
                raise EnumerationCapError(None, DEFAULT_ENUMERATION_CAP)
            raw_n = -int(digits) if negative else int(digits)
        if not isinstance(raw_n, int) or isinstance(raw_n, bool):
            raise ContractError(f"N must be an integer, got {echo(raw_n)}")
        missing = [k for k in ("S0", "a", "b", "p") if k not in d]
        if missing:
            raise ContractError(f"model is missing keys: {', '.join(missing)}")
        return cls(S0=d["S0"], a=d["a"], b=d["b"], p=d["p"], N=raw_n)

    def to_dict(self) -> dict:
        return {
            "S0": format_rational(self.S0),
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "p": format_rational(self.p),
            "N": self.N,
        }


class ScenarioTree:
    """The state space of the market over N periods.

    On the full tree (the default) the states of level k are its 2^k nodes.
    With recombining=True they are the k + 1 up-counts of the Cox-Ross-
    Rubinstein lattice; state s then stands for every node with s up moves.

    stock is the stock price process, as integers; stock.row(k)[s] reads the
    price in state s of level k as a Fraction, and stock.at(k, m) the price
    at full-tree node m, on either space, through state(k, m). Immutable
    after build; share freely.
    """

    def __init__(self, params: MarketParams, recombining: bool = False):
        self.params = params
        self.N = params.N
        self.ptilde = martingale_prob(params.a, params.b)
        self.recombining = recombining
        # refuse an oversized space before anything of its size exists
        check_cap(self.node_count, DEFAULT_ENUMERATION_CAP)
        up, down = 1 + params.b, 1 + params.a
        to_up = up.numerator * down.denominator
        to_down = down.numerator * up.denominator
        step = up.denominator * down.denominator
        rows, dens = [[params.S0.numerator]], [params.S0.denominator]
        for _ in range(self.N):
            prev = rows[-1]
            row, den = normalized([s * to_down for s in prev] + [prev[-1] * to_up],
                                  dens[-1] * step)
            rows.append(row)
            dens.append(den)
        if not recombining:
            rows = [[row[m.bit_count()] for m in range(2 ** k)] for k, row in enumerate(rows)]
        self.stock = AdaptedProcess._of(self, rows, dens)

    def width(self, k: int) -> int:
        """Number of states at level k."""
        return k + 1 if self.recombining else 2 ** k

    @property
    def node_count(self) -> int:
        """Number of states held, over all levels."""
        N = self.N
        return (N + 1) * (N + 2) // 2 if self.recombining else 2 ** (N + 1) - 1

    def children(self, k: int, s: int):
        """(up child, down child) at level k+1 of state s at level k."""
        return (s + 1, s) if self.recombining else (2 * s + 1, 2 * s)

    def child_rows(self, row):
        """(up children, down children) of every state of one level, given
        the row of values of the level below, aligned with the level's states."""
        if self.recombining:
            return row[1:], row[:-1]
        return row[1::2], row[0::2]

    def state(self, k: int, m: int) -> int:
        """The state holding full-tree node m of level k."""
        return m.bit_count() if self.recombining else m

    def nodes_of(self, k: int, s: int):
        """The full-tree nodes of level k held by state s, in ascending order."""
        if not self.recombining:
            yield s
            return
        m = (1 << s) - 1
        while m < 1 << k:
            yield m
            if m == 0:
                return
            # next larger integer with the same number of set bits
            low = m & -m
            ripple = m + low
            m = ripple | (((m ^ ripple) >> 2) // low)

    def node_multiplicity(self, k: int, s: int) -> int:
        """Number of full-tree nodes of level k held by state s."""
        return comb(k, s) if self.recombining else 1

    def node_on_path(self, path: int, k: int) -> int:
        """Index at level k of the node the N-bit path passes through."""
        return path >> (self.N - k)

    def paths(self):
        return range(2 ** self.N)

    def check_path(self, path) -> None:
        """ContractError unless path is an int, not a bool, naming one of the
        2^N paths."""
        if isinstance(path, bool) or not isinstance(path, int) or not 0 <= path < 1 << self.N:
            raise ContractError(f"path must be an integer in [0, 2^{self.N}), got {echo(path)}")

    def path_prob(self, path: int, q: Fraction) -> Fraction:
        """Probability of an N-step path when each up move has probability q."""
        self.check_path(path)
        ups, N = path.bit_count(), self.N
        u, d = q.numerator, q.denominator
        return Fraction(u ** ups * (d - u) ** (N - ups), d ** N)

    def path_bits(self, path: int) -> str:
        """The path as a string of u/d moves, first move first."""
        self.check_path(path)
        return format(path, f"0{self.N}b").replace("1", "u").replace("0", "d")


def build_tree(params: MarketParams, recombining: bool = False) -> ScenarioTree:
    return ScenarioTree(params, recombining)


def measure_prob(tree: ScenarioTree, measure: str) -> Fraction:
    """Up-move probability of the named measure: "market" or "martingale"."""
    if measure == MARKET:
        return tree.params.p
    if measure == MARTINGALE:
        return tree.ptilde
    raise ContractError(f"unknown measure {measure!r}")


class AdaptedProcess:
    """One rational per state, held as integers over one denominator per level.

    Level k is nums[k], a list of int numerators aligned with the states of
    level k, over dens[k], a positive int: the value of state s is
    nums[k][s] / dens[k]. The denominator need not be the smallest one, so
    processes that are compared or added level by level can share it.
    row(k)[s] reads a Fraction from the one cache, built per level on first
    read and then kept; values[k] is row(k). at(k, m) builds only the
    Fraction of full-tree node m, nums[k][tree.state(k, m)] over dens[k].
    """

    def __init__(self, tree: ScenarioTree, values):
        if len(values) != tree.N + 1:
            raise ContractError("process does not cover every level")
        rows = []
        for k, level in enumerate(values):
            if len(level) != tree.width(k):
                raise ContractError(
                    f"level {k} has {len(level)} values, wants {tree.width(k)}"
                )
            rows.append([to_rational(v).as_integer_ratio() for v in level])
        self._set(tree, *lift_pairs(rows))

    @classmethod
    def _of(cls, tree: ScenarioTree, nums: list, dens: list) -> "AdaptedProcess":
        """The process with numerator rows nums over level denominators dens,
        taken as they are: no copy, no check."""
        proc = cls.__new__(cls)
        proc._set(tree, nums, dens)
        return proc

    def _set(self, tree, nums, dens):
        self.tree = tree
        self.nums = nums
        self.dens = dens
        # kept rows: the N=120 lattice price test re-reads each level, 1.1 s; 53.6 s unkept
        self._rows = [None] * len(nums)

    @classmethod
    def from_function(cls, tree: ScenarioTree, fn) -> "AdaptedProcess":
        """Build from fn(level, state, price) -> rational."""
        return cls(tree, [
            [fn(k, s, price) for s, price in enumerate(row)]
            for k, row in enumerate(tree.stock.values)
        ])

    @classmethod
    def constant(cls, tree: ScenarioTree, c) -> "AdaptedProcess":
        c = to_rational(c)
        return cls._of(
            tree,
            [[c.numerator] * tree.width(k) for k in range(tree.N + 1)],
            [c.denominator] * (tree.N + 1),
        )

    def row(self, k: int) -> list:
        """The Fractions of level k, one per state."""
        row = self._rows[k]
        if row is None:
            den = self.dens[k]
            row = self._rows[k] = [Fraction(n, den) for n in self.nums[k]]
        return row

    @property
    def values(self) -> list:
        """The Fractions of every level: values[k][s]."""
        return [self.row(k) for k in range(len(self.nums))]

    def at(self, k: int, m: int) -> Fraction:
        """The Fraction at full-tree node m of level k."""
        return Fraction(self.nums[k][self.tree.state(k, m)], self.dens[k])

    def max_value(self) -> Fraction:
        """The largest value over all states."""
        best, best_den = max(self.nums[0]), self.dens[0]
        for row, den in zip(self.nums, self.dens):
            top = max(row)
            if top * best_den > best * den:
                best, best_den = top, den
        return Fraction(best, best_den)


def lift_pairs(rows):
    """(numerator rows, level denominators) of rows of reduced
    (numerator, denominator) pairs: each level over the lcm of its
    denominators."""
    nums, dens = [], []
    for row in rows:
        den = lcm(*(d for _, d in row))
        nums.append([n * (den // d) for n, d in row])
        dens.append(den)
    return nums, dens


def normalized(nums: list, den: int):
    """(nums, den) divided by their common factor: den is then the smallest
    denominator of the row."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [n // g for n in nums], den // g


def level_scales(tree: ScenarioTree, v: int, *den_rows) -> list:
    """Per-level common denominators for a backward recursion with up
    probability u/v.

    C_N is the lcm of the given level-N denominators, and C_k the lcm of the
    level-k ones and v * C_{k+1}. Each den_rows entry lists one process's
    level denominators. Every given process then lifts to C_k by an integer
    factor, and so does the expectation of a C_{k+1} row, whose numerators
    u*up + (v-u)*down are over v * C_{k+1}.
    """
    N = tree.N
    scales = [0] * (N + 1)
    scales[N] = lcm(*(dens[N] for dens in den_rows))
    for k in range(N - 1, -1, -1):
        scales[k] = lcm(v * scales[k + 1], *(dens[k] for dens in den_rows))
    return scales


def expectation_row(tree: ScenarioTree, row: list, q: Fraction, factor: int = 1) -> list:
    """Numerators of the one-step expectation from each state of a level.

    row holds the numerators of the level below over one denominator d. For
    q = u / v the result is factor * (u * up + (v - u) * down) over
    factor * v * d, one entry per state of the level above.
    """
    up_rows, down_rows = tree.child_rows(row)
    fu = factor * q.numerator
    fw = factor * (q.denominator - q.numerator)
    return [fu * up + fw * down for up, down in zip(up_rows, down_rows)]


def one_step_expectation(proc: AdaptedProcess, level: int, measure: str) -> list:
    """Conditional expectation of the level+1 values, seen from each level state.

    Returns the list of expectations, as Fractions, indexed like the space's
    `level` row. measure is "market" (probability p) or "martingale" (ptilde).
    """
    tree = proc.tree
    if not (0 <= level < tree.N):
        raise ContractError(f"level {level} out of range for horizon {tree.N}")
    q = measure_prob(tree, measure)
    den = q.denominator * proc.dens[level + 1]
    return [Fraction(n, den) for n in expectation_row(tree, proc.nums[level + 1], q)]
