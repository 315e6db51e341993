"""Interval shifts of a martingale through a monotone map, and the
polynomial-time approximation of the induced pullback strategy.

For a monotone f on [0, 1] and a word x, write D_x = f([0.x, 0.x + 2^-|x|]).
The depth-n shifts sample a martingale d over D_x:

    upper(x; n) = 2^(|x|-n) * sum of d(y) over depth-n cells meeting D_x
    lower(x; n) = 2^(|x|-n) * sum of d(y) over depth-n cells inside D_x

lower is nondecreasing in n, upper nonincreasing, lower <= upper, and for
conservative d the gap closes geometrically:

    upper(x; n) - lower(x; n) <= 2^(|x|+1) * (3/4)^n

so both converge to a common value, the pullback martingale d_f(x).  The
``pullback_approx`` routine computes d_f(x) within 2^-r from approximate
access to d and f alone: approximate D_x on a 2^-m grid with
m = 4(|x| + r + 2), tile the approximation with a prefix-minimal cover S,
and total the cover:  v = 2^|x| * sum over w in S of 2^-|w| dhat(w, m).

Covers, block sums and block maxima share one aligned-block decomposition
(``kernels.aligned_blocks``).  The cover is queried left to right, one
d-query per word, so an exact product-form strategy answers the whole
cover through its path cursor in about 3m factor steps; the bracket's
block sum at depth m + 8 walks the two paths to the ends of its range once,
O(m) steps.  ``inner_max`` reads the largest inside cell from the same walk
plus a max-product table, so the chain checks need no cell enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels
from .dyadic import (Dyadic, GridPoint, Word, clamp_unit, exact_ceil_lg,
                     lex_successor, minimal_cover, round_to_grid)
from .errors import PrecisionContractError
from .martingale import ApproxMartingale, Report, Violation


def grid_exponent(n, r):
    """The fixed approximation grid: m = 4(n + r + 2)."""
    return 4 * (n + r + 2)


def bracket_depth(n, r):
    """Shift depth used to certify a pullback value: m + 8."""
    return grid_exponent(n, r) + 8


def _delta_interval(f, x):
    """Exact endpoints of D_x = f(interval of x) for a monotone oracle."""
    if not f.monotone:
        raise ValueError(f"{f.name} is not flagged monotone")
    lo = Fraction(f.at(x.value()))
    if x.is_all_ones():
        hi = Fraction(f.at_one())
    else:
        hi = Fraction(f.at(lex_successor(x).value()))
    return lo, hi


def _cell_ranges(lo, hi, n):
    """Index ranges of depth-n cells inside [lo, hi] and touching it.

    A cell [k/2^n, (k+1)/2^n] is *inside* iff k >= lo*2^n and
    k+1 <= hi*2^n, and *touching* iff k <= hi*2^n and k+1 >= lo*2^n
    (closed intervals: single-point contact counts).
    """
    scale = 1 << n
    left = lo * scale
    right = hi * scale
    inner_a = max(0, math.ceil(left))
    inner_b = min(scale, math.floor(right - 1) + 1)
    touch_a = max(0, math.ceil(left - 1))
    touch_b = min(scale, math.floor(right) + 1)
    return inner_a, max(inner_a, inner_b), touch_a, touch_b


@dataclass(frozen=True)
class ShiftStats:
    lower: Fraction
    upper: Fraction


def shift_stats(d, f, x, n):
    """Exact (lower, upper) at depth n.

    The inside cells are summed by aligned-block collapse, which needs only
    the fair-bet identity and so works at any depth: product forms through
    ``kernels.subtree_sum``, other strategies through ``d.at`` per block.
    The at most two boundary cells are valued one by one.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    lo, hi = _delta_interval(f, x)
    inner_a, inner_b, touch_a, touch_b = _cell_ranges(lo, hi, n)
    scale = Fraction(1 << len(x), 1 << n)

    pf = d.product_form
    if pf is not None:
        desc = pf.descriptor()
        classes = pf.classes(n)
        s_num, s_dexp = kernels.subtree_sum(
            desc, classes, n, inner_a, inner_b)
        inner_sum = Fraction(s_num, 1 << s_dexp) * d.initial
        boundary = Fraction(0)
        for k in range(touch_a, inner_a):
            num, dexp = kernels.cell_value(desc, classes, n, k)
            boundary += Fraction(num, 1 << dexp) * d.initial
        for k in range(max(inner_b, touch_a), touch_b):
            num, dexp = kernels.cell_value(desc, classes, n, k)
            boundary += Fraction(num, 1 << dexp) * d.initial
    else:
        inner_sum = Fraction(0)
        for lev, idx in kernels.aligned_blocks(inner_a, inner_b):
            inner_sum += d.at(Word(idx, n - lev)) * (1 << lev)
        boundary = Fraction(0)
        for k in range(touch_a, inner_a):
            boundary += d.at(Word(k, n))
        for k in range(max(inner_b, touch_a), touch_b):
            boundary += d.at(Word(k, n))

    return ShiftStats(lower=inner_sum * scale,
                      upper=(inner_sum + boundary) * scale)


def inner_max(d, f, x, n):
    """Exact 2^(|x|-n) * max d(y) over the depth-n cells y inside D_x, or 0
    when there are none: the left side of the inner-cell bound
    2^(|x|-|y|) d(y) <= lower(x; |y|).

    Product-form strategies only (ValueError otherwise): the maximum comes
    from ``kernels.range_sum_max``, block values times a max-product table.
    Kept apart from ``shift_stats`` so the bracket does not build the table.
    """
    pf = d.product_form
    if pf is None:
        raise ValueError(f"{d.name} has no product form; inner_max needs "
                         "one")
    if n < 0:
        raise ValueError("depth must be nonnegative")
    lo, hi = _delta_interval(f, x)
    inner_a, inner_b, _, _ = _cell_ranges(lo, hi, n)
    _, _, m_num, m_dexp = kernels.range_sum_max(
        pf.descriptor(), pf.classes(n), n, inner_a, inner_b)
    return Fraction(m_num, 1 << m_dexp) * d.initial * \
        Fraction(1 << len(x), 1 << n)


def lower_shift(d, f, x, n):
    """Exact depth-n under-estimate of d over D_x."""
    return shift_stats(d, f, x, n).lower


def upper_shift(d, f, x, n):
    """Exact depth-n over-estimate of d over D_x."""
    return shift_stats(d, f, x, n).upper


def squeeze_bound(x_len, n):
    """The conservative-martingale gap bound 2^(|x|+1) (3/4)^n, exactly."""
    return Fraction(2 ** (x_len + 1) * 3 ** n, 4 ** n)


def pullback_approx(d_hat, f_hat, x, r):
    """Approximate the pullback value d_f(x) within 2^-r.

    Exactly the grid/cover procedure described in the module docstring;
    the only queries are two f-queries at precision m+2 and one d-query at
    precision m per cover word.  Raises PrecisionContractError when a
    reply is impossible for the declared contract (f values must lie
    within 2^-(m+2) of [0, 1], d values within 2^-m of [0, inf)).
    """
    if d_hat.conservative is None:
        raise ValueError(f"{d_hat.name} carries no conservative certificate; "
                         "the pullback gap bound needs one")
    n = len(x)
    m = grid_exponent(n, r)
    eps = Fraction(1, 1 << (m + 2))

    c0 = f_hat.query(x, m + 2)
    if not -eps <= c0 <= 1 + eps:
        raise PrecisionContractError(
            f"{f_hat.name}: query({x}, {m + 2}) = {c0} outside [0,1] margin")
    a = round_to_grid(c0, m)
    if x.is_all_ones():
        # right endpoint of the image: the separate approximator at 1 when
        # one is declared, else the f(1) = 1 normalization
        if getattr(f_hat, "has_one", False):
            c1 = f_hat.query_one(m + 2)
            if not -eps <= c1 <= 1 + eps:
                raise PrecisionContractError(
                    f"{f_hat.name}: value at 1 = {c1} outside [0,1] margin")
            b = round_to_grid(c1, m)
        else:
            b = GridPoint(Dyadic(1), m)
    else:
        c1 = f_hat.query(lex_successor(x), m + 2)
        if not -eps <= c1 <= 1 + eps:
            raise PrecisionContractError(
                f"{f_hat.name}: query({lex_successor(x)}, {m + 2}) = {c1} "
                "outside [0,1] margin")
        b = round_to_grid(c1, m)
    a, b = clamp_unit(a, b)
    # the total as one integer numerator over 2^exp, plus a Fraction
    # remainder for replies that are not dyadic
    num, exp = 0, 0
    rest = Fraction(0)
    for w in minimal_cover(a, b, m):
        q = d_hat.query(w, m)
        den = q.denominator
        if den & (den - 1):
            rest += q / (1 << len(w))
            continue
        e = den.bit_length() - 1 + len(w)
        if e > exp:
            num <<= e - exp
            exp = e
        num += q.numerator << (exp - e)
    return (Fraction(Dyadic(num, exp)) + rest) * (1 << n)


def pullback_martingale(d_hat, f_hat, name=None):
    """The pullback as an approximation-contract martingale."""
    name = name or f"pullback({d_hat.name};{f_hat.name})"
    return ApproxMartingale(
        name, lambda w, r: pullback_approx(d_hat, f_hat, w, r),
        conservative=None)


def certify_bracket(d, f, x, r, value):
    """Exact certificate [lower(x;M) - 2^-r, upper(x;M) + 2^-r] around an
    approximate pullback value, M = m + 8; returns (ok, lo, hi)."""
    stats = shift_stats(d, f, x, bracket_depth(len(x), r))
    slack = Fraction(1, 1 << r)
    lo = stats.lower - slack
    hi = stats.upper + slack
    return lo <= value <= hi, lo, hi


@dataclass(frozen=True)
class StrongVariationCert:
    """Certified anti-Lipschitz data: difference quotients through
    ``center`` stay >= C (increasing) on the neighborhood."""

    center: Fraction
    neighborhood: tuple
    C: Fraction
    direction: str = "increasing"
    ell: int = field(init=False)

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError("direction must be increasing or decreasing")
        object.__setattr__(
            self, "ell", max(0, exact_ceil_lg(Fraction(1) / Fraction(self.C))))


def transfer_witness(d, f, cert, x, y, sample_exp=7):
    """Finite witness of the capital-transfer step behind the pullback.

    Hypothesis checks (reported with kind "hypothesis"):
      - the certified center lies strictly inside the interval of x01;
      - its image lies in the (closed) interval of y;
      - sampled difference quotients through the center meet the constant C.
    Conclusion checks (kind "conclusion"):
      - interval of y is contained in D_x;
      - lower(x; |y|) >= 2^-(ell+2) * d(y).

    The underlying statement constrains a point with no finite expansion;
    a dyadic stand-in center is checked at one scale only, so hypothesis
    records here certify the sampled grid, not the full neighborhood.
    """
    if d.conservative is None:
        raise ValueError("transfer witness requires a conservative strategy")
    if cert.direction != "increasing":
        raise ValueError("witness covers the increasing case; flip the "
                         "function for the decreasing one")
    ell = cert.ell
    if len(y) != len(x) + ell + 2:
        raise ValueError(f"need |y| = |x| + {ell + 2}, got {len(y)}")
    violations = []
    checked = 0

    center = Fraction(cert.center)
    x01 = x.append(0).append(1)
    g_lo = Fraction(x01.value())
    g_hi = g_lo + Fraction(1, 1 << len(x01))
    checked += 1
    if not g_lo < center < g_hi:
        violations.append(Violation(
            str(center), "hypothesis",
            f"center not interior to the interval of {x01}"))

    image = Fraction(f.at(center))
    y_lo = Fraction(y.value())
    y_hi = y_lo + Fraction(1, 1 << len(y))
    checked += 1
    if not y_lo <= image <= y_hi:
        violations.append(Violation(
            str(y), "hypothesis",
            f"image {image} of the center misses the interval of y"))

    n_lo, n_hi = (Fraction(q) for q in cert.neighborhood)
    C = Fraction(cert.C)
    step = Fraction(1, 1 << sample_exp)
    z = max(n_lo, Fraction(0))
    top = min(n_hi, Fraction(1))
    while z <= top:
        if z != center:
            checked += 1
            quot = (Fraction(f.at(z)) - image) / (z - center)
            if quot < C:
                violations.append(Violation(
                    str(z), "hypothesis",
                    f"difference quotient {quot} below C = {C}"))
        z += step

    d_lo, d_hi = _delta_interval(f, x)
    checked += 1
    if not (d_lo <= y_lo and y_hi <= d_hi):
        violations.append(Violation(
            str(y), "conclusion",
            f"interval of y not inside D_x = [{d_lo}, {d_hi}]"))

    checked += 1
    low = lower_shift(d, f, x, len(y))
    need = Fraction(1, 1 << (ell + 2)) * d.at(y)
    if low < need:
        violations.append(Violation(
            str(y), "conclusion",
            f"capital transfer fails: lower(x;{len(y)}) = {low} < {need}"))

    return Report(f"transfer witness x={x} y={y}", checked, violations)
