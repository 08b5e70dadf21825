"""Exact algebra of decreasing piecewise-linear functions on [0, inf).

The class: continuous, non-increasing, piecewise linear, identically zero
from the last breakpoint on. Stored canonically as breakpoints
(0 = x_0 < x_1 < ... < x_m, v_0 >= ... >= v_m = 0) with no three collinear,
so equality of functions is equality of fields.

Two transforms drive the shortfall recursion. With psi_1, psi_2 the next
period's cost in the up and down states, market up-probability p and returns
b (up), a (down):

  portfolio transform
      psi(y) = min over alpha in K(y) = [-y/b, -y/a] of
               p * psi_1(y + b*alpha) + (1-p) * psi_2(y + a*alpha),
      the best cost after investing alpha units of money in stock.

  infusion transform
      psi_A(y) = min over z >= (A - y)^+ of z + psi(y + z - A),
      the best cost when an obligation A is due and z may be injected.

Both keep the function inside the class. Each control selects the SMALLEST
minimizer when several controls achieve the minimum, so downstream policy
extraction is deterministic: portfolio_transform returns its alpha control
with the function, and the injection control of every obligation A is
leftmost_minimizer of psi (below).

The portfolio minimization is computed in post-move wealth coordinates:
writing w1 = y + b*alpha, w2 = y + a*alpha, the constraint set becomes
{w1, w2 >= 0, ptilde*w1 + (1-ptilde)*w2 = y} with ptilde = a/(a-b). With
u1 = ptilde*w1 and u2 = (1-ptilde)*w2 this is the infimal convolution of
f1(u) = p*psi_1(u/ptilde) and f2(u) = (1-p)*psi_2(u/(1-ptilde)) (Rockafellar,
Convex Analysis, sec. 5). For fixed y the objective F(u1) = f1(u1) +
f2(y - u1) on [0, y] is piecewise linear with kinks where w1 hits a psi_1
breakpoint P_i or w2 hits a psi_2 breakpoint Q_j. Pinning w1 = P_i leaves a
copy of f2 shifted right by ptilde*P_i and raised by f1(ptilde*P_i), with
w1 constant; pinning w2 = Q_j leaves the mirror copy of f1, with w1 affine
in y. The transform is the lower envelope of such copies, each labelled
with its w1.

Not every copy is needed. The smallest minimizer u1* is 0 (copy P_0), y
(copy Q_0), or an interior point where F falls strictly on the left and
does not fall on the right, so the slope of F rises there. That rise is
the rise of f1's slope at u1* plus the rise of f2's slope at y - u1*, so
at least one of them rises: u1* is a convex kink of f1, a P_i where the
slope of psi_1 rises, or y - u1* is a convex kink of f2, where copy Q_j
gives the same w1. A kink where the slope falls (concave) never holds the
smallest minimizer unless the other function has a convex kink at the
same point, and then that copy covers it. So the envelope folds only P_0,
Q_0 and the convex kinks of psi_1 and psi_2 (_kinks); the last breakpoint
always qualifies, since the function falls into it and is flat after it.
The envelope keeps both the minimum and the smallest minimizer.

The values need fewer pieces when the inputs are convex in runs. Cut f1
and f2 at every knot where the slope falls: each splits into maximal convex
runs, consecutive runs sharing the cut knot (_runs; _kinks and _runs read
one slope rule, _rises). The infimal convolution of two convex functions is
the merge of their slopes, so a pair of runs, one of each, gives one piece:
the slope merge started at the sum of the runs' first knots, equal slopes
taken together, flat from its last knot to end (_run_pairs). Each piece is
a min over a subset of the splits, flat where it is only an upper bound,
so it lies on or above fn; every minimizer lies in some pair, and the pair
of the first runs starts at 0. So the lower envelope of the pieces is fn,
and with two convex inputs there is one piece, which is fn with no fold.
Both families are read off one prep of the inputs (_prep) and built by one
slope merge (_merge): a copy is the merge of one knot of one input with the
whole other input. The value fold takes the run pairs when there are no
more of them than copies; when both inputs have many concave kinks their
pairs grow as the product, and folding the run pairs on every fold took
the L=2 baseline stack at N=17 from 1.02 s to 4.10 s.

Either family is streamed: _run_pairs and _copies yield one piece at a
time (P_0 and Q_0 first, or the first runs' pair, so the envelope covers
every y from the start), and each is folded in as it comes by a two-pointer
merge of knot lists that inserts the crossings, so a transform holds the
envelope and one piece, never all of them at once. portfolio_transform
folds values only (_lower, in _portfolio_fold, which the risk stack calls
with its tree's checked p and ptilde) and returns the function at once. Its
control holds only its inputs and that function until it is first read;
that read labels the function's knots and pieces with the copies, each
passed once (_ties, from _portfolio_control), and folds no value again,
whichever family built the values. At each y the control's w1 is the
smallest among the copies whose value meets the envelope there. A copy
never lies below the envelope, so it meets it along a piece only on the
envelope's line and at a single point only at a knot: ties keep the smaller
w1, at a knot by value, along a piece by the lower of the two affine w1
lines (two lines cross only at a knot of both copies).

The infusion minimization goes through h(w) = w + psi(w): the value is
(A - y) + min over w >= (y - A)^+ of h(w), and the smallest injection comes
from the LEFTMOST minimizer of h on that ray. One right-to-left pass over
psi's breakpoints gives the suffix minimum of h and its leftmost minimizer
for every left end at once: infusion_transform reads the minimum off it,
leftmost_minimizer the minimizer, which serves every obligation A (the left
end is (y - A)^+).

pointwise_min and pointwise_max use the same two-pointer merge.

Representation: int pairs inside, Fractions at the boundary. Every rational
the algebra keeps (a knot, a value, a w1) is a pair (numerator, denominator)
in lowest terms with a positive denominator, and every affine function of y
it keeps (a value piece, a w1 line, a control line) is a triple (A, B, D),
meaning (A*y + B)/D, with D > 0 and gcd(A, B, D) = 1. Each has exactly one
representation, so tuple equality is rational equality: duplicate knots,
repeated lines and the dropped-knot rules compare tuples. Order is decided
by cross-multiplication (a/b < c/d iff a*d < c*b, for b, d > 0), which is
exact, so the tie rules (smaller w1 at a knot, lower w1 line along a piece)
see the same ties as rational arithmetic would. A piece evaluated at a knot
of the other list stays an unnormalized pair, since it is only compared.
Normalization happens where a rational is emitted, by one math.gcd: the
merges (_lower, _ties, _combine) are flat loops over integers that reduce
each value and w1 they emit in place, _copies and _run_pairs reduce each
piece's knots and lines in the loop that builds the piece, and _cross and
_q reduce a crossing and its value. _combine keeps no lines of its inputs: it builds the
chord of a piece, unnormalized, only when a knot of the other function or a
sign flip falls inside that piece. The one division whose divisor can be
negative is the crossing of two lines (_cross), which flips both signs
first. The transforms hand pairs from one to the next, and one evaluator per
class reads them too: _at takes a wealth pair, picks the piece by one binary
search by cross-multiplication (_find) and answers a pair, which is what the
shortfall layer's policies ask. The public evals wrap it and make one
Fraction, the answer. Only those, PwlFn.points and the control's xs
(both built on each read) turn the pairs into Fractions. A function's
suffix-minimum rows are kept (_minimum_rows), so the exercise and cancel
transforms of one function and its injection rule share one pass."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ContractError, InvariantError, echo
from .market import format_rational, martingale_prob, to_rational


def _q(n, d):
    """n/d as a normalized pair, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _line(A, B, D):
    """The normalized triple of y -> (A*y + B)/D, for D > 0."""
    g = gcd(A, B, D)
    return A // g, B // g, D // g


def _ev(line, x):
    """A line at x, as an unnormalized pair."""
    A, B, D = line
    return A * x[0] + B * x[1], D * x[1]


def _lt(a, b):
    return a[0] * b[1] < b[0] * a[1]


def _eq(a, b):
    return a[0] * b[1] == b[0] * a[1]


def _cross(l1, l2):
    """The y where two lines of different slopes meet."""
    A1, B1, D1 = l1
    A2, B2, D2 = l2
    n, d = B2 * D1 - B1 * D2, A1 * D2 - A2 * D1
    return _q(-n, -d) if d < 0 else _q(n, d)


def _find(rows, n, d):
    """The last i with knot rows[i][0] <= n/d, for knots increasing from 0."""
    lo, hi = 1, len(rows)
    while lo < hi:
        mid = (lo + hi) // 2
        xn, xd = rows[mid][0]
        if n * xd < xn * d:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


def _first_at(xs, x):
    """The first i with knot xs[i] >= x, for knots increasing."""
    (n, d), lo, hi = x, 0, len(xs)
    while lo < hi:
        mid = (lo + hi) // 2
        if xs[mid][0] * d < n * xs[mid][1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _show(q) -> str:
    return str(Fraction(*q))


def _canonical(points):
    """Drop duplicates, enforce class shape, merge collinear runs.

    points: (x, v) pairs in increasing x. One pass drops duplicate knots over
    the whole list and finds the first zero value; a second merges collinear
    runs up to that knot and checks each knot it keeps as soon as the next
    point shows it stays, so every fault is named in the order of the knots.
    """
    cleaned, cut, last = [], -1, None
    for knot in points:
        x, v = knot
        if last is not None and x == last[0]:
            if v != last[1]:
                raise InvariantError(f"two values at breakpoint {_show(x)}: {_show(last[1])}, {_show(v)}")
            continue
        if cut < 0 and v[0] == 0:
            cut = len(cleaned)
        cleaned.append(knot)
        last = knot
    if not cleaned:
        raise InvariantError("a function needs at least one breakpoint")
    if cleaned[0][0][0] != 0:
        raise InvariantError(f"first breakpoint must sit at 0, got {_show(cleaned[0][0])}")
    # the function must reach 0; everything after its first zero is cut
    if cut < 0:
        raise InvariantError(f"function must vanish, ends at value {_show(cleaned[-1][1])}")
    out = [cleaned[0]]
    (x0n, x0d), (v0n, v0d) = cleaned[0]
    kept = None  # the value of the last knot checked
    sn0 = sd0 = None  # the slope into the last kept knot
    for t in range(1, cut + 1):
        knot = cleaned[t]
        (xn, xd), (vn, vd) = knot
        # the slope from the last kept knot, sn/sd with sd > 0
        sn = (vn * v0d - v0n * vd) * x0d * xd
        sd = (xn * x0d - x0n * xd) * v0d * vd
        if sd0 is not None and sn * sd0 == sn0 * sd:
            out[-1] = knot  # the merged piece keeps the slope
        else:
            # out[-1] stays: check it against the knot kept before it
            if v0n < 0:
                raise InvariantError(f"negative value {_show(out[-1][1])} at breakpoint {_show(out[-1][0])}")
            if kept is not None and kept[0] * v0d < v0n * kept[1]:
                raise InvariantError(f"value rises to {_show(out[-1][1])} at breakpoint {_show(out[-1][0])}")
            kept = out[-1][1]
            out.append(knot)
            sn0, sd0 = sn, sd
        x0n, x0d, v0n, v0d = xn, xd, vn, vd
    # the last knot holds 0, below or at every checked value
    return tuple(out)


class PwlFn:
    """Canonical decreasing piecewise-linear function vanishing at infinity."""

    __slots__ = ("_pairs", "_rows")

    def __init__(self, points):
        pts = sorted((to_rational(x), to_rational(v)) for x, v in points)
        self._pairs = _canonical(
            ((x.numerator, x.denominator), (v.numerator, v.denominator)) for x, v in pts
        )
        self._rows = None

    @classmethod
    def _of(cls, xs, vs) -> "PwlFn":
        """From knot and value pairs in increasing x (the transforms' output)."""
        fn = cls.__new__(cls)
        fn._pairs = _canonical(zip(xs, vs))
        fn._rows = None
        return fn

    @classmethod
    def zero(cls) -> "PwlFn":
        return cls._of([(0, 1)], [(0, 1)])

    @classmethod
    def hockey_stick(cls, c) -> "PwlFn":
        """(c - y)^+ as a class member; the zero function when c <= 0."""
        c = to_rational(c)
        if c <= 0:
            return cls.zero()
        return cls(((0, c), (c, 0)))

    @property
    def points(self) -> tuple:
        """The breakpoints as (Fraction, Fraction)."""
        return tuple((Fraction(*x), Fraction(*v)) for x, v in self._pairs)

    @property
    def _minimum_rows(self) -> list:
        """_suffix_minimum of this function, built on first read and kept."""
        # 233 hits to 101 misses per riskcurve-markov cycle
        if self._rows is None:
            self._rows = _suffix_minimum(self)
        return self._rows

    @property
    def support_end(self) -> Fraction:
        return Fraction(*self._pairs[-1][0])

    def eval(self, y) -> Fraction:
        y = to_rational(y)
        if y < 0:
            raise ValueError(f"function is defined on [0, inf), got {echo(y, str)}")
        return Fraction(*self._at((y.numerator, y.denominator)))

    def _at(self, y):
        """The value at a reduced pair y >= 0, as a pair with a positive
        denominator, not reduced."""
        n, d = y
        pairs = self._pairs
        i = _find(pairs, n, d)
        if i == len(pairs) - 1:
            return 0, 1
        A, B, D = _chord(*pairs[i], *pairs[i + 1])
        return A * n + B * d, D * d

    def __eq__(self, other):
        return isinstance(other, PwlFn) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        inner = ", ".join(f"({format_rational(x)}, {format_rational(v)})" for x, v in self.points)
        return f"PwlFn[{inner}]"

    def to_wire(self):
        return [[format_rational(x), format_rational(v)] for x, v in self.points]

    @classmethod
    def from_wire(cls, data) -> "PwlFn":
        try:
            pts = [(to_rational(x), to_rational(v)) for x, v in data]
        except (TypeError, ValueError) as exc:
            raise ContractError(f"bad breakpoint list: {exc}") from exc
        try:
            return cls(pts)
        except InvariantError as exc:
            raise ContractError(f"breakpoints do not describe a valid curve: {exc}") from exc


def _chord(x0, v0, x1, v1):
    """The line through knots (x0, v0) and (x1, v1), x0 < x1, as an
    unnormalized triple with a positive denominator."""
    (x0n, x0d), (v0n, v0d), (x1n, x1d), (v1n, v1d) = x0, v0, x1, v1
    sn = (v1n * v0d - v0n * v1d) * x0d * x1d  # slope sn/sd, sd > 0
    sd = (x1n * x0d - x0n * x1d) * v0d * v1d
    # v0 + (sn/sd)*(y - x0) over the denominator v0d*sd*x0d
    return sn * v0d * x0d, v0n * sd * x0d - sn * x0n * v0d, v0d * sd * x0d


def _lines(xs, vs):
    """The line of each piece between knots, then the zero line of the tail."""
    out = [_line(*_chord(*knots)) for knots in zip(xs, vs, xs[1:], vs[1:])]
    out.append((0, 0, 1))
    return out


def _combine(f: PwlFn, g: PwlFn, lower: bool) -> PwlFn:
    """pointwise_min (lower) or pointwise_max of f and g: one two-pointer
    merge of their knots. A function is read off its own knot where it has
    one, else off the chord of its piece, built when another knot or a sign
    flip first falls inside that piece; past its last knot it is 0."""
    F, G = f._pairs, g._pairs
    nf, ng = len(F), len(G)
    i = j = 0  # the next knot of each list
    fp = gp = -1  # the pieces whose chords fl and gl are
    fl = gl = None
    xs, vs = [], []
    pd = 0  # the sign of f - g at the last knot; 0 before the first
    while i < nf or j < ng:
        if j < ng and (i == nf or G[j][0][0] * F[i][0][1] < F[i][0][0] * G[j][0][1]):
            x, c = G[j]  # a knot of g only
            j += 1
            xn, xd = x
            if i == nf:
                a = 0, 1
            else:
                if fp != i - 1:
                    fp, fl = i - 1, _chord(*F[i - 1], *F[i])
                A, B, D = fl
                a = A * xn + B * xd, D * xd
        else:
            x, a = F[i]
            i += 1
            xn, xd = x
            if j < ng and G[j][0] == x:
                c = G[j][1]
                j += 1
            elif j == ng:
                c = 0, 1
            else:
                if gp != j - 1:
                    gp, gl = j - 1, _chord(*G[j - 1], *G[j])
                A, B, D = gl
                c = A * xn + B * xd, D * xd
        left, right = a[0] * c[1], c[0] * a[1]
        d = (left > right) - (left < right)  # the sign of f - g
        if pd * d < 0:  # the order flips strictly inside the last piece
            lf = _piece_line(F, pi)
            xc = _cross(lf, _piece_line(G, pj))
            xs.append(xc)
            vs.append(_q(*_ev(lf, xc)))
        xs.append(x)
        n, m = a if (d <= 0 if lower else d >= 0) else c
        k = gcd(n, m)
        vs.append((n // k, m // k))
        pd, pi, pj = d, i - 1, j - 1
    return PwlFn._of(xs, vs)


def _piece_line(pairs, t):
    """The chord from knot t to knot t + 1, or the zero line past the last."""
    return _chord(*pairs[t], *pairs[t + 1]) if t + 1 < len(pairs) else (0, 0, 1)


def pointwise_min(f: PwlFn, g: PwlFn) -> PwlFn:
    return _combine(f, g, True)


def pointwise_max(f: PwlFn, g: PwlFn) -> PwlFn:
    return _combine(f, g, False)


class PwlControl:
    """The optimal control of a transform, as a function of wealth y >= 0.

    Knots 0 = x_0 < x_1 < ...; the control has a value at each x_t and a
    line on the OPEN interval (x_t, x_{t+1}), the last line on
    (x_last, inf). The control can jump at a knot, and its value there can
    differ from both neighbouring lines (a candidate can touch the envelope
    at a single point with a smaller control), so knot values are stored. A
    knot is dropped when the same line runs through it and gives its value,
    so equal controls have equal fields.

    Held as one list of (knot, value at knot, line after it), in pairs and
    triples (see the module docstring). _at reads them on a wealth pair and
    eval wraps it with one Fraction, the answer; xs builds the knots'
    Fractions on each read.

    A portfolio control starts unbuilt: _knots is None and _inputs holds
    only its transform's inputs and value, (psi1, psi2, p, pt, b, fn). The
    first read (_at, eval or xs) builds the knots with _portfolio_control,
    which labels fn's envelope with the smallest w1 of the copies meeting
    it, keeps them and drops the inputs; after that a read costs one truth
    test more than a plain slot read.
    """

    __slots__ = ("_knots", "_inputs")

    def __init__(self, xs, at, lines):
        self._knots = knots = []
        for knot in zip(xs, at, lines):
            x, v, line = knot
            if knots and line == knots[-1][2] and _eq(v, _ev(line, x)):
                continue
            knots.append(knot)

    # risk-curve reads no control; built eagerly, riskcurve seeds 1-3 took 141 ms, not 82
    @classmethod
    def _unbuilt(cls, inputs) -> "PwlControl":
        ctrl = cls.__new__(cls)
        ctrl._knots, ctrl._inputs = None, inputs
        return ctrl

    def _build(self) -> list:
        self._knots = _portfolio_control(*self._inputs)._knots
        self._inputs = None
        return self._knots

    xs = property(lambda self: [Fraction(*x) for x, _, _ in self._knots or self._build()])

    def eval(self, y) -> Fraction:
        y = to_rational(y)
        if y < 0:
            raise ValueError(f"control is defined on [0, inf), got {echo(y, str)}")
        return Fraction(*self._at((y.numerator, y.denominator)))

    def _at(self, y):
        """The control at a reduced pair y >= 0, as a pair with a positive
        denominator, not reduced. y must be reduced: a knot is found by
        tuple equality."""
        n, d = y
        knots = self._knots or self._build()
        x, v, (A, B, D) = knots[_find(knots, n, d)]
        if x == y:
            return v
        return A * n + B * d, D * d


def _rises(lines, t):
    """Whether the slope rises at knot t, for lines as _lines gives them."""
    return lines[t][0] * lines[t - 1][2] > lines[t - 1][0] * lines[t][2]


def _kinks(lines):
    """0 and every knot at which the slope rises, for lines as _lines gives
    them: the knots a smallest minimizer can sit at (module docstring)."""
    return [0] + [t for t in range(1, len(lines)) if _rises(lines, t)]


def _runs(lines):
    """The maximal convex runs, as (first knot, last knot), for lines as
    _lines gives them: cut at every knot where the slope falls, so
    consecutive runs share the cut knot. The last knot is never a cut."""
    cuts = [0] + [t for t in range(1, len(lines)) if not _rises(lines, t)]
    return list(zip(cuts, cuts[1:] + [len(lines) - 1]))


def _prep(psi1, psi2, p, pt):
    """Both inputs in u-coordinates, f1 on knots uP with values fP and f2 on
    uQ with fQ, each with its lines (_lines), and end, where both
    families of the fold stop; then psi1's own knots P."""
    tn, td, pn, pd = pt.numerator, pt.denominator, p.numerator, p.denominator
    P = [x for x, _ in psi1._pairs]
    uP = [_q(tn * n, td * d) for n, d in P]
    uQ = [_q((td - tn) * n, td * d) for (n, d), _ in psi2._pairs]
    fP = [_q(pn * n, pd * d) for _, (n, d) in psi1._pairs]
    fQ = [_q((pd - pn) * n, pd * d) for _, (n, d) in psi2._pairs]
    end = _q(uP[-1][0] * uQ[-1][1] + uQ[-1][0] * uP[-1][1], uP[-1][1] * uQ[-1][1])
    return uP, uQ, fP, fQ, _lines(uP, fP), _lines(uQ, fQ), end, P


def _merge(prep, a0, a1, b0, b1):
    """The slope merge of f1's knots a0..a1 with f2's knots b0..b1, from the
    sum of their first knots, equal slopes taken together, flat from its
    last knot to end: (knots, value line from each knot on), in
    u-coordinates. Both ranges are convex runs, or one is a single knot and
    the merge is the other range, whatever its slopes, shifted by it."""
    uP, uQ, fP, fQ, lP, lQ, end, _ = prep
    i, j, xs, ls = a0, b0, [], []
    while True:
        (n, d), (m, e) = uP[i], uQ[j]
        n, d = n * e + m * d, d * e
        g = gcd(n, d)
        xs.append((n // g, d // g))
        if i < a1 and (j == b1 or lP[i][0] * lQ[j][2] <= lQ[j][0] * lP[i][2]):
            # f1's piece has the lower slope: f1's line, shifted by f2's
            # knot; on a tie f2's piece is the same line
            (sn, sd), (bn, bd), (A, B, D) = uQ[j], fQ[j], lP[i]
            if j < b1 and lP[i][0] * lQ[j][2] == lQ[j][0] * lP[i][2]:
                j += 1
            i += 1
        elif j < b1:
            (sn, sd), (bn, bd), (A, B, D) = uP[i], fP[i], lQ[j]
            j += 1
        else:  # flat at the last knot's value
            (n, d), (m, e) = fP[i], fQ[j]
            ls.append(_line(0, n * e + m * d, d * e))
            break
        sdbd = sd * bd
        A, B, D = A * sdbd, B * sdbd - A * sn * bd + D * bn * sd, D * sdbd
        g = gcd(A, B, D)
        ls.append((A // g, B // g, D // g))
    if xs[-1] != end:
        xs.append(end)
        ls.append(ls[-1])
    return xs, ls


def _copies(prep, pt):
    """The copies the portfolio envelope folds, one at a time: P_0, Q_0,
    then the convex kinks of psi1 and of psi2. A copy is one knot of one
    input merged with the whole other input (_merge), with its w1 line:
    (knots, value line from each knot on, w1 line), on [start, end] in
    u-coordinates."""
    uP, uQ, _, _, lP, lQ, _, P = prep
    tn, td = pt.numerator, pt.denominator
    lastP, lastQ = len(uP) - 1, len(uQ) - 1

    # copy i pins w1 = P_i; copy j pins w2 = Q_j, so w1 = (y - uQ_j) / pt
    def q_copy(j):
        n, d = uQ[j]
        return (*_merge(prep, 0, lastP, j, j), _line(td * d, -td * n, tn * d))

    # folding every copy took an N=14, L=3 stack 0.97 -> 1.40 s to build
    kP, kQ = _kinks(lP), _kinks(lQ)
    yield (*_merge(prep, 0, 0, 0, lastQ), (0, *P[0]))
    yield q_copy(0)
    for i in kP[1:]:
        yield (*_merge(prep, i, i, 0, lastQ), (0, *P[i]))
    for j in kQ[1:]:
        yield q_copy(j)


def _run_pairs(prep, runsP, runsQ):
    """The pieces the portfolio envelope folds instead of the copies, one
    per pair of a convex run of f1 and one of f2, the first runs' pair first
    (it starts at 0): (*_merge of the two runs, None)."""
    for a0, a1 in runsP:
        for b0, b1 in runsQ:
            yield (*_merge(prep, a0, a1, b0, b1), None)


def _lower(env, copy):
    """Lower envelope of env and one copy, values only.

    env = (knots, values at the knots, value line on each piece) covers
    [0, end]; copy = (knots, value line from each knot on, a label not
    read), a copy or a run-pair piece, covers [start, end]. Where the two cross inside a piece the
    crossing goes in, and a knot through which the same value line runs is
    dropped.
    """
    X, V, L = env
    cx, cl, _ = copy
    i = _first_at(X, cx[0])
    nX, nV, nL = X[:i], V[:i], L[:i]
    nx, j, pd = len(X), 0, None
    while i < nx:  # the last knot of both lists is end
        x, (yn, yd) = X[i], cx[j]
        xn, xd = x
        left, right = xn * yd, yn * xd
        if left <= right:  # a knot of env
            on_env = True
            en, ed = V[i]
            i += 1
            if left == right:
                j += 1
        else:
            on_env = False
            x, xn, xd = cx[j], yn, yd
            j += 1
            A, B, D = L[i - 1]
            en, ed = A * xn + B * xd, D * xd
        A, B, D = cl[j - 1]
        cn, cd = A * xn + B * xd, D * xd
        left, right = en * cd, cn * ed
        d = (left > right) - (left < right)  # the sign of env - copy
        if pd is not None:
            el, kl = L[pi], cl[pj]
            flip = pd * d < 0  # the order flips strictly inside
            if flip:
                first, second = (el, kl) if pd < 0 else (kl, el)
            else:  # the lower line, or the one line both ends tie on
                first = el if pd <= 0 and d <= 0 else kl
            # the knot between the last piece and this one goes when the
            # same line runs on through it; unkept, an N=14, L=3 stack took
            # 4.4-5.2 s to build instead of 0.9 s
            if nL and nL[-1] == first:
                nX.pop()
                nV.pop()
            else:
                nL.append(first)
            if flip:
                xc = _cross(el, kl)
                nX.append(xc)
                nV.append(_q(*_ev(el, xc)))
                nL.append(second)
        nX.append(x)
        if d > 0:
            g = gcd(cn, cd)
            nV.append((cn // g, cd // g))
        elif on_env:
            nV.append((en, ed))
        else:
            g = gcd(en, ed)
            nV.append((en // g, ed // g))
        pd, pi, pj = d, i - 1, j - 1
    return nX, nV, nL


def _first_copy(pieces):
    """The first copy or run-pair piece as an env: its knots, its values
    there, its lines."""
    xs, ls, _ = next(pieces)
    vs = []
    for (xn, xd), (A, B, D) in zip(xs, ls):
        n, d = A * xn + B * xd, D * xd
        g = gcd(n, d)
        vs.append((n // g, d // g))
    return xs, vs, ls


def portfolio_transform(psi1: PwlFn, psi2: PwlFn, p, a, b):
    """The exact portfolio minimization; returns (PwlFn, PwlControl).

    The control is alpha, money invested in stock, with alpha(y) in
    K(y) = [-y/b, -y/a]; the smallest optimal alpha is selected. Only the
    function is computed here; the control is built when first read.
    """
    p = to_rational(p)
    a, b = to_rational(a), to_rational(b)
    if not (0 < p.numerator < p.denominator):
        raise ContractError(f"need 0 < p < 1, got {echo(p, str)}")
    return _portfolio_fold(psi1, psi2, p, martingale_prob(a, b), b)


def _portfolio_fold(psi1, psi2, p, pt, b):
    """portfolio_transform on checked Fractions: p in (0, 1), pt the
    martingale probability of the market whose up return is b."""
    prep = _prep(psi1, psi2, p, pt)
    lP, lQ = prep[4], prep[5]
    runsP, runsQ = _runs(lP), _runs(lQ)
    # run pairs on every fold took the L=2 baseline stack at N=17 1.02 -> 4.10 s
    if len(runsP) * len(runsQ) <= len(_kinks(lP)) + len(_kinks(lQ)):
        pieces = _run_pairs(prep, runsP, runsQ)
    else:
        pieces = _copies(prep, pt)
    env = _first_copy(pieces)
    for piece in pieces:
        env = _lower(env, piece)
    fn = PwlFn._of(*env[:2])
    return fn, PwlControl._unbuilt((psi1, psi2, p, pt, b, fn))


def _ties(env, copy):
    """Label env with one copy: the smaller w1 wherever the copy meets it.

    env = (knots, values at the knots, value line after each knot, w1 at
    each knot, w1 line after each knot; a label is None until a copy gives
    it) covers [0, end]; copy = (knots, value line from each knot on, w1
    line) covers [start, end]. env's values are the lower envelope of the
    copies, so a copy meets them along a piece only where it runs on env's
    line, and at a single point only at a knot of env or of the copy. Every
    env knot is kept, and a copy knot goes in where the copy's value is
    env's. At a knot where the values are equal the smaller w1 labels it;
    on a piece where the copy runs on env's line, the lower w1 line,
    decided at the piece's left end by value and on a tie by slope. Two
    such lines cross only at a knot of both copies (_copies), which the
    copy labelled first put in, so no piece holds a crossing.
    """
    X, V, L, K, C = env
    cx, cl, line = copy
    wA, wB, wD = line
    i = _first_at(X, cx[0])
    nX, nV, nL, nK, nC = X[:i], V[:i], L[:i], K[:i], C[:i]
    nx, j = len(X), 0
    while i < nx:  # the last knot of both lists is end
        x, (yn, yd) = X[i], cx[j]
        xn, xd = x
        left, right = xn * yd, yn * xd
        if left <= right:  # a knot of env
            v, k = V[i], K[i]
            en, ed = v
            i += 1
            if left == right:
                j += 1
        else:  # a knot of the copy inside env's piece
            x, xn, xd = cx[j], yn, yd
            j += 1
            A, B, D = L[i - 1]
            en, ed = A * xn + B * xd, D * xd
            v = None  # kept only if the copy meets env here
        el, cc, cline = L[i - 1], C[i - 1], cl[j - 1]  # the lines after x
        A, B, D = cline
        if en * D * xd != (A * xn + B * xd) * ed:  # the copy does not meet env
            if v is None:
                continue
        else:
            if v is None:
                v = _q(en, ed)
                k = None if cc is None else _q(*_ev(cc, x))
            wn, wd = wA * xn + wB * xd, wD * xd
            if k is None or wn * k[1] < k[0] * wd:
                k = _q(wn, wd)
            if cline == el:  # the copy runs on env's line after x
                if cc is None:
                    cc = line
                else:
                    A, B, D = cc
                    c = (A * xn + B * xd) * wD
                    if wn * D < c or (wn * D == c and wA * D < A * wD):
                        cc = line
        nX.append(x)
        nV.append(v)
        nL.append(el)
        nK.append(k)
        nC.append(cc)
    return nX, nV, nL, nK, nC


def _portfolio_control(psi1, psi2, p, pt, b, fn):
    """The alpha control of fn = _portfolio_fold(psi1, psi2, p, pt, b)[0]:
    fn's knots labelled with the same copies, each passed once (_ties)."""
    X, V = [x for x, _ in fn._pairs], [v for _, v in fn._pairs]
    # fn first reaches 0 at the copies' end, so env ends there, as _ties needs
    env = X, V, _lines(X, V), [None] * len(X), [None] * len(X)
    for cp in _copies(_prep(psi1, psi2, p, pt), pt):
        env = _ties(env, cp)
    X, _, _, K, C = env
    # from the last event point on everything optimal costs 0, and the
    # smallest optimal w1 is the last psi1 breakpoint; alpha = (w1 - y) / b
    (en, ed), bn, bd = psi1._pairs[-1][0], b.numerator, b.denominator
    lines = [_line((A - D) * bd, B * bd, D * bn) for A, B, D in C[: len(X) - 1]]
    lines.append(_line(-ed * bd, en * bd, ed * bn))
    at = [_q((wn * yd - yn * wd) * bd, wd * yd * bn) for (yn, yd), (wn, wd) in zip(X, K)]
    return PwlControl(X, at, lines)


def _suffix_minimum(psi: PwlFn):
    """One right-to-left pass over h(w) = w + psi(w).

    Returns rows (c, m, w, line) in increasing c: on [c, inf) h has minimum
    m and leftmost minimizer w, and on the open interval up to the next row
    the leftmost minimizer is line(c), either c itself (SELF) or a fixed
    point to the right. The minimum is linear between rows.
    """
    xs = [x for x, _ in psi._pairs]
    hs = [_q(xn * vd + vn * xd, xd * vd) for (xn, xd), (vn, vd) in psi._pairs]
    SELF = (1, 0, 1)
    # past the last breakpoint h(w) = w rises: every c is its own minimizer
    best, arg = hs[-1], xs[-1]
    rows = [(xs[-1], best, arg, SELF)]
    for t in range(len(xs) - 2, -1, -1):
        x0, x1, h0, h1 = xs[t], xs[t + 1], hs[t], hs[t + 1]
        if _lt(h0, best) and _lt(best, h1):  # h rises through the suffix minimum inside
            # xc = x0 + (best - h0) * (x1 - x0) / (h1 - h0)
            num = (best[0] * h0[1] - h0[0] * best[1]) * (x1[0] * x0[1] - x0[0] * x1[1]) * h1[1]
            den = best[1] * x0[1] * x1[1] * (h1[0] * h0[1] - h0[0] * h1[1])
            xc = _q(x0[0] * den + num * x0[1], x0[1] * den)
            rows.append((xc, best, xc, (0, *arg)))
            right = SELF
        elif h1 == best and not _lt(best, h0):  # h stays at or below it inside
            right = SELF
        else:
            right = (0, *arg)
        if not _lt(best, h0):
            best, arg = h0, x0
        rows.append((x0, best, arg, right))
    rows.reverse()
    return rows


def leftmost_minimizer(psi: PwlFn) -> PwlControl:
    """c -> the leftmost minimizer of w + psi(w) over w >= c."""
    rows = psi._minimum_rows
    return PwlControl([r[0] for r in rows], [r[2] for r in rows], [r[3] for r in rows])


def infusion_transform(psi: PwlFn, A) -> PwlFn:
    """The exact infusion minimization, psi_A(y), as a function of wealth y.

    Computed through h(w) = w + psi(w): the value is
    (A - y) + min over w >= (y - A)^+ of h(w). The smallest optimal
    injection is not built here; leftmost_minimizer of psi gives it.
    """
    A = to_rational(A)
    an, ad = A.numerator, A.denominator
    if an < 0:
        raise ContractError(f"obligation must be nonnegative, got {echo(A, str)}")
    rows = psi._minimum_rows
    # y = A + c for the row at c, where the value is m - c
    xs = [_q(c[0] * ad + an * c[1], c[1] * ad) for c, _, _, _ in rows]
    vs = [_q(m[0] * c[1] - c[0] * m[1], m[1] * c[1]) for c, m, _, _ in rows]
    if an > 0:  # below A the ray starts at 0: the value is m(0) + A - y
        m0 = rows[0][1]
        xs.insert(0, (0, 1))
        vs.insert(0, _q(m0[0] * ad + an * m0[1], m0[1] * ad))
    return PwlFn._of(xs, vs)
