import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_contract
from swinghedge import pwl
from swinghedge.contract import build_contract
from swinghedge.errors import ContractError, InvariantError
from swinghedge.market import martingale_prob
from swinghedge.oracle import (
    grid_infusion_value,
    grid_portfolio_value,
    infusion_at,
    portfolio_at,
)
from swinghedge.pwl import (
    PwlFn,
    infusion_transform,
    leftmost_minimizer,
    pointwise_max,
    pointwise_min,
    portfolio_transform,
)
from swinghedge.shortfall import StackInfusion, build_risk_stack, infusion_minimizer

F = Fraction

# (max breakpoints, max denominator) of random_pwl: the class-sized default,
# and long lists with large cross-products of numerators and denominators
SIZES = ((5, 4), (30, 97))


def random_pwl(rng, max_pts=5, den=4):
    """Breakpoints 0 = x0 < x1 < ... with values stepping down to 0.

    den = 1 puts every breakpoint and value on the integers.
    """
    n = rng.randint(1, max_pts)
    drops = [F(rng.randint(0, 6), rng.randint(1, den)) for _ in range(n)]
    xs, x = [F(0)], F(0)
    for _ in range(n):
        x += F(rng.randint(1, 6), rng.randint(1, den))
        xs.append(x)
    vals = []
    for j in range(n + 1):
        vals.append(sum(drops[j:], F(0)))
    return PwlFn(list(zip(xs, vals)))


def probes(*fns, extra=()):
    xs = sorted({x for fn in fns for x, _ in fn.points} | set(extra))
    out = list(xs)
    for lo, hi in zip(xs, xs[1:]):
        out.append((lo + hi) / 2)
    if xs:
        out.append(xs[-1] + 1)
    return out


# ---- class shape ----------------------------------------------------------

def test_canonical_merges_collinear_and_trims_tail():
    fn = PwlFn([(0, F(2)), (1, F(1)), (2, F(0)), (3, F(0))])
    assert fn.points == ((F(0), F(2)), (F(2), F(0)))


def test_zero_and_hockey_stick():
    assert PwlFn.zero().points == ((F(0), F(0)),)
    h = PwlFn.hockey_stick(F(3))
    assert h.eval(1) == 2
    assert h.eval(3) == 0
    assert h.eval(100) == 0
    assert PwlFn.hockey_stick(F(-1)) == PwlFn.zero()
    assert PwlFn.hockey_stick(F(0)) == PwlFn.zero()


def test_eval_interpolates_and_guards():
    fn = PwlFn([(0, F(4)), (2, F(1)), (3, F(0))])
    assert fn.eval(1) == F(5, 2)
    assert fn.eval(F(5, 2)) == F(1, 2)
    assert fn.eval(10) == 0
    assert fn.support_end == 3
    with pytest.raises(ValueError):
        fn.eval(F(-1, 2))


@pytest.mark.parametrize("y", [0.1, 1.0, True, False])
def test_eval_refuses_floats_and_bools(y):
    fn = PwlFn.hockey_stick(1)
    for obj in (fn, leftmost_minimizer(fn)):
        with pytest.raises(ContractError, match="not a rational"):
            obj.eval(y)
        with pytest.raises(ValueError, match="defined on"):
            obj.eval(F(-1, 2))


def test_invalid_shapes_rejected():
    with pytest.raises(InvariantError):
        PwlFn([(1, F(1)), (2, F(0))])  # does not start at 0
    with pytest.raises(InvariantError):
        PwlFn([(0, F(1)), (1, F(2)), (2, F(0))])  # rises
    with pytest.raises(InvariantError):
        PwlFn([(0, F(1)), (1, F(-1))])  # negative
    with pytest.raises(InvariantError):
        PwlFn([(0, F(1)), (0, F(2)), (1, F(0))])  # conflicting duplicate
    # agreeing duplicates are deduped, not an error
    assert PwlFn([(0, F(1)), (0, F(1)), (1, F(0))]).support_end == 1


# One case per shape fault, then inputs with two faults, where the message
# names the first one the checks meet. Recorded before _canonical became a
# two-pass loop.
SHAPE_FAULTS = {
    "no breakpoint": ([], "a function needs at least one breakpoint"),
    "two values at one knot": (
        [(0, F(1)), (F(1, 2), F(1, 3)), (F(1, 2), F(2, 3)), (1, F(0))],
        "two values at breakpoint 1/2: 1/3, 2/3"),
    "first knot not at 0": ([(F(1, 3), F(1)), (2, F(0))], "first breakpoint must sit at 0, got 1/3"),
    "never vanishes": ([(0, F(2)), (1, F(1, 5))], "function must vanish, ends at value 1/5"),
    "a negative value": ([(0, F(1)), (1, F(-1, 2)), (2, F(0))], "negative value -1/2 at breakpoint 1"),
    "a rising value": ([(0, F(1)), (1, F(7, 4)), (2, F(0))], "value rises to 7/4 at breakpoint 1"),
    "a rise and no vanishing": ([(0, F(1)), (1, F(2))], "function must vanish, ends at value 2"),
    "a rise just after a collinear run": (
        [(0, F(3)), (1, F(2)), (2, F(1)), (3, F(2)), (4, F(0))], "value rises to 2 at breakpoint 3"),
    "a rise inside a collinear run": (
        [(0, F(1)), (1, F(2)), (2, F(3)), (3, F(0))], "value rises to 3 at breakpoint 2"),
    "a negative value inside a collinear run": (
        [(0, F(1)), (1, F(-1)), (2, F(-3)), (3, F(0))], "negative value -3 at breakpoint 2"),
    "a rise, then a negative value": (
        [(0, F(1)), (1, F(2)), (2, F(-1)), (3, F(0))], "value rises to 2 at breakpoint 1"),
    "a negative value, then a rise": (
        [(0, F(1)), (1, F(-3)), (2, F(-1)), (3, F(0))], "negative value -3 at breakpoint 1"),
    "a rise, then two values past the first zero": (
        [(0, F(1)), (1, F(2)), (2, F(0)), (3, F(1)), (3, F(2))], "two values at breakpoint 3: 1, 2"),
    "two values and a first knot not at 0": (
        [(1, F(1)), (1, F(2)), (2, F(0))], "two values at breakpoint 1: 1, 2"),
    "no vanishing and a first knot not at 0": ([(1, F(1)), (2, F(1))], "first breakpoint must sit at 0, got 1"),
}


@pytest.mark.parametrize("case", SHAPE_FAULTS)
def test_shape_faults_name_the_first_fault(case):
    points, message = SHAPE_FAULTS[case]
    with pytest.raises(InvariantError) as info:
        PwlFn(points)
    assert str(info.value) == message
    pairs = [((x.numerator, x.denominator), (v.numerator, v.denominator))
             for x, v in ((F(x), F(v)) for x, v in points)]
    with pytest.raises(InvariantError) as info:
        PwlFn._of([x for x, _ in pairs], [v for _, v in pairs])
    assert str(info.value) == message


def test_whatever_follows_the_first_zero_is_cut():
    # past the first zero value nothing is checked but the duplicates
    fn = PwlFn([(0, F(1)), (1, F(0)), (2, F(5)), (3, F(-1))])
    assert fn.points == ((F(0), F(1)), (F(1), F(0)))


def test_wire_round_trip():
    fn = PwlFn([(0, F(7, 3)), (F(1, 2), F(1)), (4, F(0))])
    assert PwlFn.from_wire(fn.to_wire()) == fn
    with pytest.raises(ContractError):
        PwlFn.from_wire([["0", "oops"]])
    with pytest.raises(ContractError):
        PwlFn.from_wire([["1", "1"], ["2", "0"]])


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(SIZES))
def test_min_max_agree_pointwise(seed, size):
    rng = random.Random(seed)
    f, g = random_pwl(rng, *size), random_pwl(rng, *size)
    lo, hi = pointwise_min(f, g), pointwise_max(f, g)
    for y in probes(f, g, lo, hi):
        assert lo.eval(y) == min(f.eval(y), g.eval(y))
        assert hi.eval(y) == max(f.eval(y), g.eval(y))


# ---- portfolio transform --------------------------------------------------

def random_market_bits(rng):
    den = rng.randint(2, 5)
    a = F(-rng.randint(1, den - 1), den)
    b = F(rng.randint(1, 6), rng.randint(1, 3))
    pden = rng.randint(2, 6)
    p = F(rng.randint(1, pden - 1), pden)
    return p, a, b


def test_portfolio_transform_known_case():
    # one-period call risk: best split of capital y between the two children
    fn, ctrl = portfolio_transform(PwlFn.hockey_stick(F(1)), PwlFn.zero(),
                                   F(1, 2), F(-1, 2), F(1))
    assert fn.points == ((F(0), F(1, 2)), (F(1, 3), F(0)))
    # the control moves all capital toward the up state
    alpha = ctrl.eval(F(1, 6))
    w1, w2 = F(1, 6) + alpha, F(1, 6) - alpha / 2
    assert w1 >= 0 and w2 >= 0
    assert F(1, 2) * PwlFn.hockey_stick(F(1)).eval(w1) == fn.eval(F(1, 6))


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(SIZES))
def test_portfolio_transform_matches_direct_minimum(seed, size):
    rng = random.Random(seed)
    psi1, psi2 = random_pwl(rng, *size), random_pwl(rng, *size)
    p, a, b = random_market_bits(rng)
    fn, ctrl = portfolio_transform(psi1, psi2, p, a, b)
    for y in probes(psi1, psi2, fn, extra=ctrl.xs):
        want, smallest = portfolio_at(psi1, psi2, p, a, b, y)
        assert fn.eval(y) == want
        alpha = ctrl.eval(y)
        w1, w2 = y + alpha * b, y + alpha * a
        assert w1 >= 0 and w2 >= 0
        assert p * psi1.eval(w1) + (1 - p) * psi2.eval(w2) == want
        assert alpha == smallest


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_portfolio_grid_oracle_upper_bounds(seed):
    rng = random.Random(seed)
    psi1, psi2 = random_pwl(rng), random_pwl(rng)
    p, a, b = random_market_bits(rng)
    fn, _ = portfolio_transform(psi1, psi2, p, a, b)
    y = F(rng.randint(0, 12), rng.randint(1, 3))
    coarse = grid_portfolio_value(psi1, psi2, p, a, b, y, resolution=4)
    fine = grid_portfolio_value(psi1, psi2, p, a, b, y, resolution=8)
    assert fn.eval(y) <= fine <= coarse


def test_portfolio_transform_rejects_bad_probability():
    with pytest.raises(ContractError):
        portfolio_transform(PwlFn.zero(), PwlFn.zero(), F(1), F(-1, 2), F(1))


# ---- infusion transform ---------------------------------------------------

def injection_knots(psi, A):
    """The wealths y = A + c where the injection rule for obligation A has a
    knot, c a knot of leftmost_minimizer(psi)."""
    return [A + c for c in leftmost_minimizer(psi).xs]


def test_infusion_transform_known_cases():
    # no future cost: inject exactly the missing part of the obligation
    A = F(1, 10)
    fn = infusion_transform(PwlFn.zero(), A)
    assert fn == PwlFn.hockey_stick(A)
    # the injection at wealth y reads the rule at y - A
    assert infusion_minimizer(PwlFn.zero(), 0 - A)[0] == A
    assert infusion_minimizer(PwlFn.zero(), F(1, 5) - A)[0] == 0
    # zero obligation, but topping up can still pay off when the future
    # cost falls faster than money: psi drops 3 per unit of wealth
    steep = PwlFn([(0, F(3)), (1, F(0))])
    fn = infusion_transform(steep, F(0))
    assert fn.eval(0) == 1  # inject the whole unit, then nothing left to pay
    assert infusion_minimizer(steep, F(0))[0] == 1
    assert fn.eval(F(1, 2)) == F(1, 2)
    assert fn.eval(2) == 0
    assert infusion_minimizer(steep, F(2))[0] == 0


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(SIZES))
def test_infusion_transform_matches_direct_minimum(seed, size):
    rng = random.Random(seed)
    psi = random_pwl(rng, *size)
    A = F(rng.randint(0, 8), rng.randint(1, 4))
    fn = infusion_transform(psi, A)
    for y in probes(psi, fn, extra=injection_knots(psi, A) + [A]):
        want, smallest = infusion_at(psi, A, y)
        assert fn.eval(y) == want
        z, w = infusion_minimizer(psi, y - A)
        assert z >= 0 and w >= 0
        assert z + psi.eval(w) == want
        assert z == smallest


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_infusion_grid_oracle_upper_bounds(seed):
    rng = random.Random(seed)
    psi = random_pwl(rng)
    A = F(rng.randint(0, 8), rng.randint(1, 4))
    fn = infusion_transform(psi, A)
    y = F(rng.randint(0, 12), rng.randint(1, 3))
    coarse = grid_infusion_value(psi, A, y, resolution=4)
    fine = grid_infusion_value(psi, A, y, resolution=8)
    assert fn.eval(y) <= fine <= coarse


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(SIZES))
def test_infusion_minimizer_matches_the_oracle(seed, size):
    # after an unpaid obligation the wealth y is negative: the debt -y is
    # the obligation A, due at wealth 0
    rng = random.Random(seed)
    psi = random_pwl(rng, *size)
    ys = [-y for y in probes(psi)] + probes(psi)
    for y in ys:
        A = max(-y, F(0))
        amount, target = infusion_minimizer(psi, y)
        assert amount == infusion_at(psi, A, y + A)[1]
        assert target == y + amount


def test_infusion_rejects_negative_obligation():
    with pytest.raises(ContractError):
        infusion_transform(PwlFn.zero(), F(-1))


# each refusal of a value, with a short value and with a 700-digit one
ECHO_CASES = {
    "p": (lambda q: portfolio_transform(PwlFn.zero(), PwlFn.zero(), -q, F(-1, 2), F(1)),
          ContractError, "need 0 < p < 1, got "),
    "obligation": (lambda q: infusion_transform(PwlFn.zero(), -q), ContractError,
                   "obligation must be nonnegative, got "),
    "function wealth": (lambda q: PwlFn.hockey_stick(1).eval(-q), ValueError,
                        "function is defined on [0, inf), got "),
    "control wealth": (lambda q: leftmost_minimizer(PwlFn.hockey_stick(1)).eval(-q), ValueError,
                       "control is defined on [0, inf), got "),
}


@pytest.mark.parametrize("case", ECHO_CASES)
def test_refused_values_are_echoed_on_one_line(case):
    call, error, head = ECHO_CASES[case]
    with pytest.raises(error) as info:
        call(F(3, 2))
    assert str(info.value) == head + "-3/2"
    with pytest.raises(error) as info:
        call(F(10 ** 699, 7))
    assert str(info.value) == head + "-1" + "0" * 58 + "... (703 characters)"


# ---- ties: the smallest minimizer -----------------------------------------

TIE_KINDS = ("p == ptilde", "psi1 == psi2", "integer grid", "zero or hockey stick")


def tie_heavy(rng, kind):
    """Transform inputs on which many candidates share the minimum."""
    p, a, b = random_market_bits(rng)
    if kind == "p == ptilde":
        psi1, psi2 = random_pwl(rng), random_pwl(rng)
        p = martingale_prob(a, b)
    elif kind == "psi1 == psi2":
        psi1 = psi2 = random_pwl(rng)
    elif kind == "integer grid":
        psi1, psi2 = random_pwl(rng, den=1), random_pwl(rng, den=1)
        a, b = F(-1, 2), F(1)
        p = rng.choice([F(1, 3), F(1, 2)])  # 1/3 is ptilde here
    else:
        psi1, psi2 = (
            rng.choice([PwlFn.zero(), PwlFn.hockey_stick(F(rng.randint(1, 6), rng.randint(1, 2)))])
            for _ in range(2)
        )
    return psi1, psi2, p, a, b


@pytest.mark.parametrize("kind", TIE_KINDS)
def test_controls_are_the_smallest_minimizers_on_ties(kind):
    rng = random.Random(kind)
    for _ in range(40):
        psi1, psi2, p, a, b = tie_heavy(rng, kind)
        fn, ctrl = portfolio_transform(psi1, psi2, p, a, b)
        for y in probes(psi1, psi2, fn, extra=ctrl.xs):
            assert (fn.eval(y), ctrl.eval(y)) == portfolio_at(psi1, psi2, p, a, b, y)
        A = F(rng.randint(0, 6), rng.choice([1, 2]))
        for psi in (psi1, fn):
            gn = infusion_transform(psi, A)
            for y in probes(psi, gn, extra=injection_knots(psi, A) + [A]):
                assert (gn.eval(y), infusion_minimizer(psi, y - A)[0]) == infusion_at(psi, A, y)


# ---- the portfolio envelope: which copies, values first, control on read ---

ENVELOPE_KINDS = ("random",) + TIE_KINDS


def envelope_inputs(rng, kind):
    """Transform inputs: random_pwl shapes (flat pieces among them), or the
    tie-heavy ones, where kinks of psi1 and psi2 coincide."""
    if kind == "random":
        size = rng.choice(SIZES)
        return random_pwl(rng, *size), random_pwl(rng, *size), *random_market_bits(rng)
    return tie_heavy(rng, kind)


def slopes(psi):
    """The slope of each piece of psi, then 0 past its last breakpoint."""
    pts = psi.points
    return [(v1 - v0) / (x1 - x0) for (x0, v0), (x1, v1) in zip(pts, pts[1:])] + [F(0)]


def convex_kinks(psi):
    """0 and every breakpoint at which psi's slope rises, the last one too."""
    s = slopes(psi)
    return [F(0)] + [x for t, (x, _) in enumerate(psi.points) if t and s[t] > s[t - 1]]


def convex_runs(psi):
    """How many maximal convex runs psi has: one more than the breakpoints
    at which its slope falls."""
    s = slopes(psi)
    return 1 + sum(s[t] < s[t - 1] for t in range(1, len(s)))


def folds_run_pairs(psi1, psi2):
    """Whether the value fold takes the run pairs: when there are no more
    of them than there are copies."""
    return convex_runs(psi1) * convex_runs(psi2) <= len(convex_kinks(psi1)) + len(convex_kinks(psi2))


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(ENVELOPE_KINDS))
def test_value_envelope_matches_the_control_fold(seed, kind):
    rng = random.Random(seed)
    psi1, psi2, p, a, b = envelope_inputs(rng, kind)
    copies, labelled, envs = [], [], []
    make, ties = pwl._copies, pwl._ties

    def label(env, copy):
        labelled.append(copy)
        envs.append(ties(env, copy))
        return envs[-1]

    with pytest.MonkeyPatch.context() as mp:
        # the copies come one at a time: keep them, and hand on a fresh iterator
        mp.setattr(pwl, "_copies", lambda *args: copies.append(list(make(*args))) or iter(copies[-1]))
        mp.setattr(pwl, "_ties", label)
        fn, ctrl = portfolio_transform(psi1, psi2, p, a, b)
        # the values alone; no copies are built when the run pairs are folded
        folded = 0 if folds_run_pairs(psi1, psi2) else 1
        assert len(copies) == folded and labelled == []
        ctrl.xs
    # the read makes the copies, the same ones again if the values folded
    # them, and labels with each one once
    assert len(copies) == folded + 1 and copies[0] == copies[-1]
    assert len(labelled) == len(copies[-1])
    assert all(got is want for got, want in zip(labelled, copies[-1]))
    X, V, _, _, _ = envs[-1]
    assert pwl.PwlFn._of(X, V) == fn
    # folded: P_0, Q_0, then the convex kinks of psi1 and of psi2; a P copy
    # has a constant w1 line, a Q copy a rising one
    pt = martingale_prob(a, b)
    want = [("P", F(0)), ("Q", F(0))]
    want += [("P", pt * x) for x in convex_kinks(psi1)[1:]]
    want += [("Q", (1 - pt) * x) for x in convex_kinks(psi2)[1:]]
    assert [("Q" if w1[0] else "P", F(*xs[0])) for xs, _, w1 in copies[-1]] == want


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(ENVELOPE_KINDS))
def test_pruned_copies_give_what_every_copy_gives(seed, kind):
    # folding a copy per breakpoint of psi1 and of psi2 gives the same
    # function and the same smallest-minimizer control, field for field
    rng = random.Random(seed)
    args = envelope_inputs(rng, kind)
    fn, ctrl = portfolio_transform(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pwl, "_kinks", lambda lines: list(range(len(lines))))
        every_fn, every_ctrl = portfolio_transform(*args)
        every_ctrl.xs
    assert fn == every_fn
    assert ctrl.xs == every_ctrl.xs
    assert ctrl._knots == every_ctrl._knots


def convex_pwl(rng, max_pts=5, den=4):
    """A convex member of the class: each piece falls less steeply than the
    one before it."""
    n = rng.randint(1, max_pts)
    falls = sorted({F(rng.randint(1, 12), rng.randint(1, den)) for _ in range(n)}, reverse=True)
    xs = [F(0)]
    for _ in falls:
        xs.append(xs[-1] + F(rng.randint(1, 6), rng.randint(1, den)))
    vals = [F(0)]
    for t in range(len(falls) - 1, -1, -1):
        vals.append(vals[-1] + falls[t] * (xs[t + 1] - xs[t]))
    return PwlFn(list(zip(xs, reversed(vals))))


def zigzag_pwl(rng, pieces=None, den=4):
    """A member of the class that is not convex: steep and shallow pieces
    alternate, so the slope falls at every second knot from the second on."""
    n = pieces or rng.randint(3, 8)
    xs, vals = [F(0)], [F(0)]
    for t in range(n):
        xs.append(xs[-1] + F(rng.randint(1, 6), rng.randint(1, den)))
    for t in range(n - 1, -1, -1):
        fall = F(rng.randint(7, 12)) if t % 2 == 0 else F(rng.randint(1, 5), rng.randint(2, den + 1))
        vals.append(vals[-1] + fall * (xs[t + 1] - xs[t]))
    return PwlFn(list(zip(xs, reversed(vals))))


def fold_both_ways(psi1, psi2, p, a, b):
    """The value envelope folded from the run pairs and from the copies."""
    pt = martingale_prob(a, b)
    prep = pwl._prep(psi1, psi2, p, pt)
    out = []
    for pieces in (pwl._run_pairs(prep, pwl._runs(prep[4]), pwl._runs(prep[5])), pwl._copies(prep, pt)):
        env = pwl._first_copy(pieces)
        for piece in pieces:
            env = pwl._lower(env, piece)
        out.append(PwlFn._of(*env[:2]))
    return out


SHAPE_PAIRS = {
    "both convex": (convex_pwl, convex_pwl),
    "one convex": (convex_pwl, zigzag_pwl),
    "neither convex": (zigzag_pwl, zigzag_pwl),
    "one zero": (lambda rng: PwlFn.zero(), random_pwl),
}


@pytest.mark.parametrize("kind", ENVELOPE_KINDS + tuple(SHAPE_PAIRS))
def test_run_pairs_fold_what_the_copies_fold(kind):
    rng = random.Random(kind)
    for n in range(30):
        if kind in SHAPE_PAIRS:
            psi1, psi2 = (make(rng) for make in SHAPE_PAIRS[kind])
            if n % 2:
                psi1, psi2 = psi2, psi1
            p, a, b = random_market_bits(rng)
        else:
            psi1, psi2, p, a, b = envelope_inputs(rng, kind)
        pairs, copies = fold_both_ways(psi1, psi2, p, a, b)
        assert pairs._pairs == copies._pairs
        for x, v in pairs.points:
            assert portfolio_at(psi1, psi2, p, a, b, x)[0] == v


def test_the_value_fold_takes_the_run_pairs_only_when_they_are_fewer(monkeypatch):
    # two convex inputs are one piece, which is the envelope with no fold;
    # long zigzags have more run pairs than copies, and fold the copies
    calls = Counter()
    for name in ("_copies", "_run_pairs", "_lower"):
        monkeypatch.setattr(pwl, name, lambda *args, f=getattr(pwl, name), name=name: calls.update([name]) or f(*args))
    rng = random.Random(3201)
    p, a, b = F(3, 5), F(-1, 3), F(1, 2)
    for _ in range(10):
        psi1, psi2 = convex_pwl(rng), convex_pwl(rng)
        fn, _ = portfolio_transform(psi1, psi2, p, a, b)
        assert calls == Counter(_run_pairs=1)
        calls.clear()
        psi1, psi2 = zigzag_pwl(rng, 12), zigzag_pwl(rng, 12)
        assert not folds_run_pairs(psi1, psi2)
        fn, _ = portfolio_transform(psi1, psi2, p, a, b)
        assert calls["_copies"] == 1 and calls["_run_pairs"] == 0
        assert calls["_lower"] == len(convex_kinks(psi1)) + len(convex_kinks(psi2)) - 1
        assert fn == fold_both_ways(psi1, psi2, p, a, b)[0]
        calls.clear()


# _lower calls while building the N=14, L=3 baseline stack when every fold
# took the copies; with the run pairs taken where they are fewer it makes
# 1,693, and with the run pairs taken everywhere 3,536
COPY_FOLD_LOWER_CALLS = 2598


def test_the_baseline_stack_folds_no_more_pieces_than_the_copies_did(monkeypatch):
    calls = []
    lower = pwl._lower
    monkeypatch.setattr(pwl, "_lower", lambda env, piece: calls.append(1) or lower(env, piece))
    build_risk_stack(build_contract({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 14},
        "claims": [
            {"exercise": {"kind": kind, "strike": "1"},
             "penalty": {"kind": "constant", "value": "1/10"}}
            for kind in ("call", "put", "call")
        ],
    }))
    assert 0 < len(calls) <= COPY_FOLD_LOWER_CALLS


def test_portfolio_control_is_built_once_on_first_read(monkeypatch):
    built = []
    build = pwl._portfolio_control
    monkeypatch.setattr(pwl, "_portfolio_control", lambda *args: built.append(args) or build(*args))
    psi1, psi2 = PwlFn.hockey_stick(F(1)), PwlFn([(0, F(2)), (1, F(1, 2)), (3, F(0))])
    fn, ctrl = portfolio_transform(psi1, psi2, F(1, 2), F(-1, 2), F(1))
    assert built == []
    alpha = ctrl.eval(F(1, 6))
    assert F(*ctrl._at((1, 6))) == alpha
    ctrl.xs
    # the control keeps the martingale probability 1/3 of a = -1/2, b = 1
    assert built == [(psi1, psi2, F(1, 2), F(1, 3), F(1), fn)]
    assert ctrl._inputs is None


def test_the_value_fold_keeps_no_knot_inside_one_line(monkeypatch):
    # _lower drops a knot when the same value line runs on through it, so
    # the raw envelope, before _canonical merges collinear runs, keeps none:
    # on random and tie-heavy inputs, and inside a risk stack
    envs = []
    lower = pwl._lower
    monkeypatch.setattr(pwl, "_lower", lambda env, copy: envs.append(lower(env, copy)) or envs[-1])
    rng = random.Random(2801)
    for kind in ENVELOPE_KINDS:
        for _ in range(20):
            portfolio_transform(*envelope_inputs(rng, kind))
    folds = len(envs)
    build_risk_stack(build_contract({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 5},
        "claims": [
            {"exercise": {"kind": kind, "strike": "1"},
             "penalty": {"kind": "constant", "value": "1/10"}}
            for kind in ("call", "put", "call")
        ],
    }))
    assert folds > 0 and len(envs) > folds
    for X, _, L in envs:
        assert len(L) == len(X) - 1  # one line on each piece
        assert all(L[t - 1] != L[t] for t in range(1, len(L)))


# ---- the transforms inside the risk stack ----------------------------------

def test_stack_portfolio_functions_and_controls_match_the_oracle():
    # riskcurve-markov's market on an N=6 lattice with three rights: every
    # phi and its control against the oracle on the children's J, and every
    # exercise and cancel function and the injection rule against the
    # oracle on the phi one right later
    p, a, b = F(3, 5), F(-1, 3), F(1, 2)
    contract = build_contract({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 6},
        "claims": [
            {"exercise": {"kind": kind, "strike": "1"},
             "penalty": {"kind": "constant", "value": "1/10"}}
            for kind in ("call", "put", "call")
        ],
    })
    stack = build_risk_stack(contract)
    infusion = StackInfusion(stack)
    tree = contract.tree
    assert tree.recombining
    for (k, s, j), ctrl in stack.phi_ctrl.items():
        up, dn = tree.children(k, s)
        psi1, psi2 = stack.J[(k + 1, up, j)], stack.J[(k + 1, dn, j)]
        fn = stack.phi[(k, s, j)]
        for y in probes(fn, extra=ctrl.xs):
            assert (fn.eval(y), ctrl.eval(y)) == portfolio_at(psi1, psi2, p, a, b, y)
        i = contract.L - j + 1
        psi = stack.phi[(k, s, j - 1)]
        node = next(tree.nodes_of(k, s))
        for leg, branch in ((contract.Y(i), stack.exercise), (contract.X(i), stack.cancel)):
            A, gn = leg.values[k][s], branch[(k, s, j)]
            for y in probes(gn, extra=injection_knots(psi, A) + [A]):
                want, smallest = infusion_at(psi, A, y)
                assert gn.eval(y) == want
                assert infusion.amount(k, node, i, y - A) == smallest


def test_one_suffix_minimum_pass_per_function(monkeypatch):
    # the exercise and the cancel transform of a state, and the replay's
    # injection rule, all read one pass over the same phi
    passes = Counter()
    run = pwl._suffix_minimum
    monkeypatch.setattr(pwl, "_suffix_minimum", lambda psi: passes.update([id(psi)]) or run(psi))
    contract = build_contract({
        "model": {"S0": "1", "a": "-1/3", "b": "1/2", "p": "3/5", "N": 4},
        "claims": [
            {"exercise": {"kind": kind, "strike": "1"},
             "penalty": {"kind": "constant", "value": "1/10"}}
            for kind in ("call", "put", "call")
        ],
    })
    stack = build_risk_stack(contract)
    for key in stack.phi:
        stack.minimizer(key)
    assert set(passes) == {id(fn) for fn in stack.phi.values()}
    assert set(passes.values()) == {1}
    # every entry with no rights left is the stack's one zero function
    zeros = {id(fn) for table in (stack.J, stack.phi) for key, fn in table.items() if key[2] == 0}
    assert len(zeros) == 1


# ---- the pair evaluators against the Fraction formulas ---------------------

def reference_eval_fn(fn, y):
    """A function at y from its Fraction knots: interpolate, 0 at and past the end."""
    xs = [x for x, _ in fn.points]
    if y >= xs[-1]:
        return F(0)
    i = bisect_right(xs, y) - 1
    (x0, v0), (x1, v1) = fn.points[i], fn.points[i + 1]
    return v0 + (v1 - v0) * (y - x0) / (x1 - x0)


def reference_eval_ctrl(ctrl, y):
    """A control at y: its stored value at a knot, else coef*y + intercept."""
    xs = ctrl.xs
    i = bisect_right(xs, y) - 1
    _, v, (A, B, D) = ctrl._knots[i]
    if xs[i] == y:
        return F(*v)
    return F(A, D) * y + F(B, D)


def knot_probes(*knot_lists):
    """0, every knot, the midpoint and thirds between neighbours, and past the end."""
    xs = sorted({F(0)}.union(*knot_lists))
    out = list(xs)
    for lo, hi in zip(xs, xs[1:]):
        out += [(lo + hi) / 2, lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3]
    return out + [xs[-1] + 1]


def assert_evals_match_reference(fns, ctrls):
    """ctrls pairs each control with the function whose knots it is probed at too."""
    for fn in fns:
        for y in knot_probes([x for x, _ in fn.points]):
            assert fn.eval(y) == reference_eval_fn(fn, y)
    for ctrl, fn in ctrls:
        for y in knot_probes(ctrl.xs, [x for x, _ in fn.points]):
            assert ctrl.eval(y) == reference_eval_ctrl(ctrl, y)


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(SIZES))
def test_evals_match_the_fraction_formulas(seed, size):
    rng = random.Random(seed)
    psi1, psi2 = random_pwl(rng, *size), random_pwl(rng, *size)
    fn, ctrl = portfolio_transform(psi1, psi2, *random_market_bits(rng))
    gn = infusion_transform(psi1, F(rng.randint(0, 8), rng.randint(1, 4)))
    assert_evals_match_reference(
        [psi1, fn, gn], [(ctrl, fn), (leftmost_minimizer(fn), fn), (leftmost_minimizer(psi1), psi1)]
    )


def test_stack_evals_match_the_fraction_formulas():
    rng = random.Random(13)
    for _ in range(6):
        stack = build_risk_stack(random_contract(rng, max_n=3, max_l=2))
        fns = [fn for table in (stack.J, stack.phi, stack.exercise, stack.cancel)
               for fn in table.values()]
        ctrls = [(ctrl, stack.phi[key]) for key, ctrl in stack.phi_ctrl.items()]
        ctrls += [(stack.minimizer(key), fn) for key, fn in stack.phi.items()]
        assert_evals_match_reference(fns, ctrls)


# ---- transform outputs stay in the class ----------------------------------

@given(st.integers(min_value=0, max_value=10 ** 6))
def test_transforms_preserve_class_shape(seed):
    rng = random.Random(seed)
    psi1, psi2 = random_pwl(rng), random_pwl(rng)
    p, a, b = random_market_bits(rng)
    fn, _ = portfolio_transform(psi1, psi2, p, a, b)
    values = [v for _, v in fn.points]
    assert values == sorted(values, reverse=True)
    assert fn.points[-1][1] == 0
    fn2 = infusion_transform(fn, F(rng.randint(0, 5), 2))
    assert fn2.points[0][0] == 0
    assert fn2.points[-1][1] == 0
    # round trip through the wire encoding preserves identity
    assert PwlFn.from_wire(fn2.to_wire()) == fn2
