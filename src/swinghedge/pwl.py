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

Both keep the function inside the class. Each also yields the optimal
control, selecting the SMALLEST minimizer when several controls achieve the
minimum, so downstream policy extraction is deterministic.

The portfolio minimization is computed in post-move wealth coordinates:
writing w1 = y + b*alpha, w2 = y + a*alpha, the constraint set becomes
{w1, w2 >= 0, ptilde*w1 + (1-ptilde)*w2 = y} with ptilde = a/(a-b). With
u1 = ptilde*w1 and u2 = (1-ptilde)*w2 this is the infimal convolution of
f1(u) = p*psi_1(u/ptilde) and f2(u) = (1-p)*psi_2(u/(1-ptilde)) (Rockafellar,
Convex Analysis, sec. 5). For fixed y the objective is piecewise linear in
w1 with kinks where w1 hits a psi_1 breakpoint P_i or w2 hits a psi_2
breakpoint Q_j, so the smallest minimizer pins one of the two. Pinning
w1 = P_i leaves a copy of f2 shifted right by ptilde*P_i and raised by
f1(ptilde*P_i), with w1 constant; pinning w2 = Q_j leaves the mirror copy
of f1, with w1 affine in y. The transform is the lower envelope of these
|P| + |Q| copies, each labelled with its w1: the copies are folded in one at
a time (P_0 and Q_0 first, so the envelope covers every y from the start),
each fold a two-pointer merge of knot lists that inserts the crossings.
Ties keep the smaller w1: at a knot by value, along a piece by the lower of
the two affine w1 lines (two lines cross only at a knot of both copies).

The infusion minimization goes through h(w) = w + psi(w): the value is
(A - y) + min over w >= (y - A)^+ of h(w), and the smallest injection comes
from the LEFTMOST minimizer of h on that ray. One right-to-left pass over
psi's breakpoints gives the suffix minimum of h and its leftmost minimizer
for every left end at once (leftmost_minimizer).

pointwise_min and pointwise_max use the same two-pointer merge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import ContractError, InvariantError
from .market import format_rational, martingale_prob, to_rational


def _canonical(points):
    """Sort out duplicates, enforce class shape, merge collinear runs."""
    pts = sorted((Fraction(x), Fraction(v)) for x, v in points)
    cleaned = []
    for x, v in pts:
        if cleaned and cleaned[-1][0] == x:
            if cleaned[-1][1] != v:
                raise InvariantError(f"two values at breakpoint {x}: {cleaned[-1][1]}, {v}")
            continue
        cleaned.append((x, v))
    if not cleaned:
        raise InvariantError("a function needs at least one breakpoint")
    if cleaned[0][0] != 0:
        raise InvariantError(f"first breakpoint must sit at 0, got {cleaned[0][0]}")
    # cut everything after the function first reaches 0 for good
    for idx, (x, v) in enumerate(cleaned):
        if v == 0:
            cleaned = cleaned[: idx + 1]
            break
    if cleaned[-1][1] != 0:
        raise InvariantError(f"function must vanish, ends at value {cleaned[-1][1]}")
    out = []
    for x, v in cleaned:
        while len(out) >= 2:
            (x0, v0), (x1, v1) = out[-2], out[-1]
            if (v1 - v0) * (x - x1) == (v - v1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append((x, v))
    last_v = None
    for x, v in out:
        if v < 0:
            raise InvariantError(f"negative value {v} at breakpoint {x}")
        if last_v is not None and v > last_v:
            raise InvariantError(f"value rises to {v} at breakpoint {x}")
        last_v = v
    return tuple(out)


class PwlFn:
    """Canonical decreasing piecewise-linear function vanishing at infinity."""

    __slots__ = ("points", "_xs")

    def __init__(self, points):
        self.points = _canonical(points)
        self._xs = [x for x, _ in self.points]

    @classmethod
    def zero(cls) -> "PwlFn":
        return cls(((0, 0),))

    @classmethod
    def hockey_stick(cls, c) -> "PwlFn":
        """(c - y)^+ as a class member; the zero function when c <= 0."""
        c = to_rational(c)
        if c <= 0:
            return cls.zero()
        return cls(((0, c), (c, 0)))

    @property
    def support_end(self) -> Fraction:
        return self.points[-1][0]

    def is_zero(self) -> bool:
        return len(self.points) == 1

    def eval(self, y) -> Fraction:
        y = Fraction(y)
        if y < 0:
            raise ValueError(f"function is defined on [0, inf), got {y}")
        if y >= self.support_end:
            return Fraction(0)
        i = bisect_right(self._xs, y) - 1
        (x0, v0), (x1, v1) = self.points[i], self.points[i + 1]
        return v0 + (v1 - v0) * (y - x0) / (x1 - x0)

    def __eq__(self, other):
        return isinstance(other, PwlFn) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

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


def _slopes(xs, vs):
    """Slope of each piece between knots, then 0 for the flat tail."""
    out = [(v1 - v0) / (x1 - x0) for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:])]
    out.append(Fraction(0))
    return out


def _union_walk(xa, xb, i, j):
    """Two-pointer merge of two sorted knot lists, from xa[i] and xb[j] on.

    Yields (x, ia, ib) for every x of the sorted union, with ia and ib the
    index of the last knot <= x in each list.
    """
    na, nb = len(xa), len(xb)
    while i < na or j < nb:
        if j == nb or (i < na and xa[i] < xb[j]):
            x = xa[i]
            i += 1
        elif i == na or xb[j] < xa[i]:
            x = xb[j]
            j += 1
        else:
            x = xa[i]
            i += 1
            j += 1
        yield x, i - 1, j - 1


def _combine(f: PwlFn, g: PwlFn, pick) -> PwlFn:
    fx, gx = f._xs, g._xs
    fv, gv = [v for _, v in f.points], [v for _, v in g.points]
    fs, gs = _slopes(fx, fv), _slopes(gx, gv)
    pts = []
    prev = None
    for x, i, j in _union_walk(fx, gx, 0, 0):
        a = fv[i] if fx[i] == x else fv[i] + fs[i] * (x - fx[i])
        c = gv[j] if gx[j] == x else gv[j] + gs[j] * (x - gx[j])
        d = a - c
        if prev is not None:
            px, pa, pd, pi = prev
            # insert the crossing if the order flips strictly inside
            if (pd > 0 > d) or (pd < 0 < d):
                xc = px + pd * (x - px) / (pd - d)
                pts.append((xc, pa + fs[pi] * (xc - px)))
        pts.append((x, pick(a, c)))
        prev = (x, a, d, i)
    return PwlFn(pts)


def pointwise_min(f: PwlFn, g: PwlFn) -> PwlFn:
    return _combine(f, g, min)


def pointwise_max(f: PwlFn, g: PwlFn) -> PwlFn:
    return _combine(f, g, max)


class PwlControl:
    """The optimal control of a transform, as a function of wealth y >= 0.

    xs: knots 0 = x_0 < x_1 < ...; at[t]: the control at x_t; lines[t] =
    (coef, intercept): the control coef*y + intercept on the OPEN interval
    (x_t, x_{t+1}), the last line on (x_last, inf). The control can jump at
    a knot, and its value there can differ from both neighbouring lines (a
    candidate can touch the envelope at a single point with a smaller
    control), so knot values are stored. A knot is dropped when the same
    line runs through it and gives its value, so equal controls have equal
    fields.
    """

    __slots__ = ("xs", "at", "lines")

    def __init__(self, xs, at, lines):
        self.xs, self.at, self.lines = [xs[0]], [at[0]], [lines[0]]
        for x, v, line in zip(xs[1:], at[1:], lines[1:]):
            coef, inter = line
            if line == self.lines[-1] and v == coef * x + inter:
                continue
            self.xs.append(x)
            self.at.append(v)
            self.lines.append(line)

    def eval(self, y) -> Fraction:
        y = Fraction(y)
        if y < 0:
            raise ValueError(f"control is defined on [0, inf), got {y}")
        i = bisect_right(self.xs, y) - 1
        if self.xs[i] == y:
            return self.at[i]
        coef, inter = self.lines[i]
        return coef * y + inter


def _fold(env, copy):
    """Lower envelope of env and one copy, ordered by (value, w1).

    env = (xs, values, slopes, w1 at each knot, w1 line on each piece) covers
    [0, end]; copy = (xs, values, slopes, w1 line) covers [start, end]. Before
    start env is kept as it is. A knot through which the same value slope
    and w1 line run, and whose w1 the line gives, is dropped.
    """
    X, V, S, K, C = env
    cx, cv, cs, line = copy
    lc, ld = line
    i0 = bisect_left(X, cx[0])
    nX, nV, nS, nK, nC = X[:i0], V[:i0], S[:i0], K[:i0], C[:i0]

    def piece(slope, ctl):
        t = len(nX) - 1
        if t and nS[t - 1] == slope and nC[t - 1] == ctl and nK[t] == ctl[0] * nX[t] + ctl[1]:
            del nX[t], nV[t], nK[t]
        else:
            nS.append(slope)
            nC.append(ctl)

    def env_w1(i, x):
        if X[i] == x:
            return K[i]
        coef, inter = C[i]
        return coef * x + inter

    prev = None
    for x, i, j in _union_walk(X, cx, i0, 0):
        e = V[i] if X[i] == x else V[i] + S[i] * (x - X[i])
        c = cv[j] if cx[j] == x else cv[j] + cs[j] * (x - cx[j])
        if prev is not None:
            px, pe, pc, pi, pj = prev
            pd, d = pe - pc, e - c
            if pd == 0 and d == 0:
                # the same value along the piece: the lower w1 line wins. A
                # constant line w1 = P_i meets a line w1 = (y - uQ_j)/pt at
                # y = uP_i + uQ_j, a knot of both copies, and lines of one
                # kind are parallel, so they never cross inside a piece
                mid = (px + x) / 2
                piece(S[pi], min(C[pi], line, key=lambda ctl: ctl[0] * mid + ctl[1]))
            elif (pd > 0 > d) or (pd < 0 < d):
                xc = px + pd * (x - px) / (pd - d)
                mine, theirs = (S[pi], C[pi]), (cs[pj], line)
                piece(*(mine if pd < 0 else theirs))
                nX.append(xc)
                nV.append(pe + S[pi] * (xc - px))
                nK.append(min(env_w1(pi, xc), lc * xc + ld))
                piece(*(theirs if pd < 0 else mine))
            elif pd < 0 or d < 0:
                piece(S[pi], C[pi])
            else:
                piece(cs[pj], line)
        nX.append(x)
        if e < c:
            nV.append(e)
            nK.append(env_w1(i, x))
        elif c < e:
            nV.append(c)
            nK.append(lc * x + ld)
        else:
            nV.append(e)
            nK.append(min(env_w1(i, x), lc * x + ld))
        prev = (x, e, c, i, j)
    return nX, nV, nS, nK, nC


def portfolio_transform(psi1: PwlFn, psi2: PwlFn, p, a, b):
    """The exact portfolio minimization; returns (PwlFn, PwlControl).

    The control is alpha, money invested in stock, with alpha(y) in
    K(y) = [-y/b, -y/a]; the smallest optimal alpha is selected.
    """
    p = to_rational(p)
    a, b = to_rational(a), to_rational(b)
    if not (0 < p < 1):
        raise ContractError(f"need 0 < p < 1, got {p}")
    pt = martingale_prob(a, b)
    P, Q = psi1._xs, psi2._xs
    # both inputs in u-coordinates: f1 on uP, f2 on uQ
    uP, uQ = [pt * x for x in P], [(1 - pt) * x for x in Q]
    fP = [p * v for _, v in psi1.points]
    fQ = [(1 - p) * v for _, v in psi2.points]
    sP, sQ = _slopes(uP, fP), _slopes(uQ, fQ)
    end = uP[-1] + uQ[-1]

    def copy(shift, us, base, fs, slopes, line):
        xs = [shift + u for u in us]
        vs = [base + f for f in fs]
        if xs[-1] < end:  # flat from the last knot on
            xs.append(end)
            vs.append(base)
        return xs, vs, slopes, line

    zero = Fraction(0)
    # copy i pins w1 = P_i; copy j pins w2 = Q_j, so w1 = (y - uQ_j) / pt
    copies = [copy(u, uQ, f, fQ, sQ, (zero, x)) for u, f, x in zip(uP, fP, P)]
    copies += [copy(u, uP, f, fP, sP, (1 / pt, -u / pt)) for u, f in zip(uQ, fQ)]
    copies.insert(1, copies.pop(len(P)))  # Q_0 right after P_0
    xs, vs, slopes, line = copies[0]
    env = (xs, vs, slopes, [line[1]] * len(xs), [line] * len(xs))
    for cp in copies[1:]:
        env = _fold(env, cp)
    X, V, _, K, C = env
    fn = PwlFn(zip(X, V))
    # from the last event point on everything optimal costs 0, and the
    # smallest optimal w1 is the last psi1 breakpoint; alpha = (w1 - y) / b
    lines = [((coef - 1) / b, inter / b) for coef, inter in C[: len(X) - 1]]
    lines.append((-1 / b, P[-1] / b))
    return fn, PwlControl(X, [(w - y) / b for y, w in zip(X, K)], lines)


def _suffix_minimum(psi: PwlFn):
    """One right-to-left pass over h(w) = w + psi(w).

    Returns rows (c, m, w, line) in increasing c: on [c, inf) h has minimum
    m and leftmost minimizer w, and on the open interval up to the next row
    the leftmost minimizer is coef*c + intercept for line = (coef,
    intercept): either c itself or a fixed point to the right. The minimum
    is linear between rows.
    """
    xs = psi._xs
    hs = [x + v for x, v in psi.points]
    one, zero = Fraction(1), Fraction(0)
    # past the last breakpoint h(w) = w rises: every c is its own minimizer
    best, arg = hs[-1], xs[-1]
    rows = [(xs[-1], best, arg, (one, zero))]
    for t in range(len(xs) - 2, -1, -1):
        x0, x1, h0, h1 = xs[t], xs[t + 1], hs[t], hs[t + 1]
        if h0 < best < h1:  # h rises through the suffix minimum inside
            xc = x0 + (best - h0) * (x1 - x0) / (h1 - h0)
            rows.append((xc, best, xc, (zero, arg)))
            right = (one, zero)
        elif h1 == best and h0 <= best:  # h stays at or below it inside
            right = (one, zero)
        else:
            right = (zero, arg)
        if h0 <= best:
            best, arg = h0, x0
        rows.append((x0, best, arg, right))
    rows.reverse()
    return rows


def leftmost_minimizer(psi: PwlFn) -> PwlControl:
    """c -> the leftmost minimizer of w + psi(w) over w >= c."""
    rows = _suffix_minimum(psi)
    return PwlControl([r[0] for r in rows], [r[2] for r in rows], [r[3] for r in rows])


def infusion_transform(psi: PwlFn, A):
    """The exact infusion minimization; returns (PwlFn, PwlControl).

    The control is the injected amount z(y) >= (A - y)^+, smallest optimal.
    Computed through h(w) = w + psi(w): the value is
    (A - y) + min over w >= (y - A)^+ of h(w), and the smallest optimal z
    comes from the LEFTMOST minimizer of h on that ray.
    """
    A = to_rational(A)
    if A < 0:
        raise ContractError(f"obligation must be nonnegative, got {A}")
    rows = _suffix_minimum(psi)
    # y = A + c for the row at c; z = w - (y - A) and a minimizer
    # coef*c + intercept becomes z = (coef - 1)*y + intercept + (1 - coef)*A
    xs = [A + c for c, _, _, _ in rows]
    pts = [(A + c, m - c) for c, m, _, _ in rows]
    at = [w - c for c, _, w, _ in rows]
    lines = [(coef - 1, inter + (1 - coef) * A) for _, _, _, (coef, inter) in rows]
    if A > 0:  # below A the ray starts at 0: z = w(0) + A - y
        _, m0, w0, _ = rows[0]
        xs.insert(0, Fraction(0))
        pts.insert(0, (Fraction(0), A + m0))
        at.insert(0, w0 + A)
        lines.insert(0, (Fraction(-1), w0 + A))
    return PwlFn(pts), PwlControl(xs, at, lines)
