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

A range of grid cells is tiled by its maximal aligned blocks in one of two
ways.  Generically it is a ``dyadic.Cover``, which makes the blocks' words
one at a time, left to right: the pullback's cover S is one, queried one
d-query per word, so an exact strategy answers it through its prefix fold
(``martingale.PrefixFold``) in O(m) steps, and ``shift_stats`` totals
``d.exact`` over one for a strategy without a product form.  A product
form's range is tiled by the block walk (``kernels.block_values``) down
the two end paths of the range, which finds the blocks from the paths'
own bits and values them all in at most 2n factor steps with one running
product per path; the full range is the one block λ.  ``as_approx`` of a
product form asks the pullback cover's words in the walk's order
(``cover_replies``), each value still the reply of that word's own
d-query; no cover list is built, and the total reads each ``Dyadic``
reply's numerator and exponent directly, as the replies stream in.
``shift_stats`` takes a product form's inside cells and both boundary
cells from one walk down the paths to the boundary cells: the bracket at
depth m + 8 costs exactly 2(m + 8) factor steps.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import kernels
from .dyadic import (Cover, Dyadic, _PairSum, clamp_unit, exact_ceil_lg,
                     gamma, lex_successor, minimal_cover, round_to_grid)
from .errors import PrecisionContractError
from .funcs import word_image
from .martingale import ApproxMartingale
from .report import Report, Violation


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
    return word_image(f, x)


def _cell_ranges(lo, hi, n):
    """Index ranges of depth-n cells inside [lo, hi] and touching it.

    A cell [k/2^n, (k+1)/2^n] is *inside* iff k >= lo*2^n and
    k+1 <= hi*2^n, and *touching* iff k <= hi*2^n and k+1 >= lo*2^n
    (closed intervals: single-point contact counts).  So the inside cells
    run from ceil(lo*2^n) to floor(hi*2^n) and the touching ones one cell
    further each way, clipped to the grid: integer floor and ceiling
    divisions of the ends' numerators by their denominators.
    """
    scale = 1 << n
    left = -((-lo.numerator << n) // lo.denominator)
    right = (hi.numerator << n) // hi.denominator
    inner_a = max(0, left)
    inner_b = min(scale, right)
    return (inner_a, max(inner_a, inner_b), max(0, left - 1),
            min(scale, right + 1))


def exact_total(terms):
    """The exact sum of q * 2^s over the (q, s) pairs, as a Fraction.

    The dyadic q (a ``Dyadic``, read off its num and exp; an int, a
    ``Fraction`` with a power-of-two denominator) are totalled as one
    integer numerator over 2^exp, with no gcd.  The others go to a
    ``_PairSum`` as integer pairs as they come, and so does that total at
    the end: k of them keep O(log k) partial sums.
    """
    num, exp = 0, 0
    rest = None
    for q, s in terms:
        if isinstance(q, Dyadic):
            q_num, e = q.num, q.exp - s
        else:
            den = q.denominator
            if den & (den - 1):
                if rest is None:
                    rest = _PairSum()
                if s >= 0:
                    rest.add(q.numerator << s, den)
                else:
                    rest.add(q.numerator, den << -s)
                continue
            q_num, e = q.numerator, den.bit_length() - 1 - s
        if e > exp:
            num <<= e - exp
            exp = e
        num += q_num << (exp - e)
    if rest is not None:
        rest.add(num, 1 << exp)
        return rest.total()
    return Fraction(Dyadic(num, exp))


ShiftStats = namedtuple("ShiftStats", "lower upper")


def shift_stats(d, f, x, n):
    """Exact (lower, upper) at depth n.

    Every sum is one aligned-block collapse, which needs only the fair-bet
    identity and so works at any depth: lower sums the inside cells
    [inner_a, inner_b), and upper adds the at most two boundary cells
    [touch_a, inner_a) and [inner_b, touch_b), which are the cells
    inner_a - 1 and inner_b.  Product forms take all three from one
    ``kernels.subtree_sum``: its two end-path walks find and value the
    inside blocks and end at those two cells, at most 2n factor steps.
    Other strategies total ``d.exact`` over the words of each range's
    ``Cover`` through ``exact_total`` (a one-cell range is one word): one
    integer numerator over 2^e for the dyadic values (a savings wrapper of
    a product form has only those), a ``Fraction`` for the rest.

    D_x is derived here, two f-values; ``_shift_stats`` takes it from the
    caller, so a check over many depths derives it once per word.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    return _shift_stats(d, _delta_interval(f, x), len(x), n)


def _shift_stats(d, ends, x_len, n):
    """``shift_stats`` of the word of length ``x_len`` whose D_x has the
    exact ends ``ends``."""
    inner_a, inner_b, touch_a, touch_b = _cell_ranges(*ends, n)

    pf = d.product_form
    if pf is not None:
        s_num, s_dexp, left, right = kernels.subtree_sum(
            pf, pf.classes(n), n, inner_a, inner_b)
        inner = upper = Dyadic(s_num, s_dexp)
        if touch_a < inner_a:
            upper += Dyadic(*left)
        if inner_b < touch_b:
            upper += Dyadic(*right)
        # times 2^(|x|-n), exactly: a shift of the exponent
        shift = n - x_len
        return ShiftStats(lower=Fraction(Dyadic(inner, shift)),
                          upper=Fraction(Dyadic(upper, shift)))

    exact = d.exact

    def block_sum(a, b):
        return exact_total((exact(w), n - w.n) for w in Cover(a, b, n))

    inner = block_sum(inner_a, inner_b)
    upper = inner + block_sum(touch_a, inner_a) + block_sum(inner_b, touch_b)
    scale = Fraction(1 << x_len, 1 << n)
    return ShiftStats(lower=inner * scale, upper=upper * scale)


def squeeze_bound(x_len, n):
    """The conservative-martingale gap bound 2^(|x|+1) (3/4)^n, exactly."""
    return Fraction(2 ** (x_len + 1) * 3 ** n, 4 ** n)


def pullback_approx(d_hat, f_hat, x, r):
    """Approximate the pullback value d_f(x) within 2^-r.

    Exactly the grid/cover procedure described in the module docstring;
    the only queries are two f-queries at precision m+2 and one d-query at
    precision m per cover word, through ``d_hat.cover_replies(cover, m)``
    when the approximator has it, which asks them in its own order and
    gives every reply with its word's length, else word by word, left to
    right.  Raises PrecisionContractError when a
    reply is impossible for the declared contract (f values must lie
    within 2^-(m+2) of [0, 1], d values within 2^-m of [0, inf)).
    """
    if not d_hat.conservative:
        raise ValueError(f"{d_hat.name} carries no conservative certificate; "
                         "the pullback gap bound needs one")
    n = len(x)
    m = grid_exponent(n, r)
    eps = Fraction(1, 1 << (m + 2))

    def endpoint(w):
        """f's reply at w (at 1 when w is None) on the 2^-m grid, after
        checking that it lies within 2^-(m+2) of [0, 1]."""
        if w is None:
            c, what = f_hat.query_one(m + 2), "value at 1"
        else:
            c, what = f_hat.query(w, m + 2), f"query({w}, {m + 2})"
        if not -eps <= c <= 1 + eps:
            raise PrecisionContractError(
                f"{f_hat.name}: {what} = {c} outside [0,1] margin")
        return round_to_grid(c, m)

    a = endpoint(x)
    if not x.is_all_ones():
        b = endpoint(lex_successor(x))
    elif getattr(f_hat, "has_one", False):
        # right endpoint of the image: the separate approximator at 1 when
        # one is declared, else the f(1) = 1 normalization
        b = endpoint(None)
    else:
        b = Dyadic(1)
    a, b = clamp_unit(a, b)
    cover = minimal_cover(a, b, m)
    replies = getattr(d_hat, "cover_replies", None)
    if replies is None:
        return exact_total((d_hat.query(w, m), n - w.n) for w in cover)
    return exact_total((q, n - size) for q, size in replies(cover, m))


def pullback_martingale(d_hat, f_hat):
    """The pullback as an approximation-contract martingale."""
    return ApproxMartingale(
        f"pullback({d_hat.name};{f_hat.name})",
        lambda w, r: pullback_approx(d_hat, f_hat, w, r))


def certify_bracket(d, f, x, r, value):
    """Exact certificate [lower(x;M) - 2^-r, upper(x;M) + 2^-r] around an
    approximate pullback value, M = m + 8; returns (ok, lo, hi)."""
    stats = shift_stats(d, f, x, bracket_depth(len(x), r))
    slack = Fraction(1, 1 << r)
    lo = stats.lower - slack
    hi = stats.upper + slack
    return lo <= value <= hi, lo, hi


class StrongVariationCert(namedtuple("StrongVariationCert",
                                     "center neighborhood C ell")):
    """Certified anti-Lipschitz data for an increasing function: difference
    quotients through ``center`` stay >= C on the neighborhood; ``ell`` is
    derived from C."""

    __slots__ = ()

    def __new__(cls, center, neighborhood, C):
        if C <= 0:
            raise ValueError("C must be positive")
        ell = max(0, exact_ceil_lg(Fraction(1) / Fraction(C)))
        return super().__new__(cls, center, neighborhood, C, ell)


# the witness samples difference quotients on the 2^-SAMPLE_EXP grid
SAMPLE_EXP = 7


def transfer_witness(d, f, cert, x, y):
    """Finite witness of the capital-transfer step behind the pullback.

    Hypothesis checks (reported with kind "hypothesis"):
      - the certified center lies strictly inside the interval of x01;
      - its image lies in the (closed) interval of y;
      - difference quotients through the center, sampled on the
        2^-SAMPLE_EXP grid of the neighborhood, meet the constant C.
    Conclusion checks (kind "conclusion"):
      - interval of y is contained in D_x;
      - lower(x; |y|) >= 2^-(ell+2) * d(y).

    The underlying statement constrains a point with no finite expansion;
    a dyadic stand-in center is checked at one scale only, so hypothesis
    records here certify the sampled grid, not the full neighborhood.
    """
    if not d.conservative:
        raise ValueError("transfer witness requires a conservative strategy")
    ell = cert.ell
    if len(y) != len(x) + ell + 2:
        raise ValueError(f"need |y| = |x| + {ell + 2}, got {len(y)}")
    violations = []
    checked = 0

    center = Fraction(cert.center)
    x01 = x.append(0).append(1)
    g_lo, g_hi = gamma(x01)
    checked += 1
    if not g_lo < center < g_hi:
        violations.append(Violation(
            str(center), "hypothesis",
            f"center not interior to the interval of {x01}"))

    image = Fraction(f.at(center))
    y_lo, y_hi = gamma(y)
    checked += 1
    if not y_lo <= image <= y_hi:
        violations.append(Violation(
            str(y), "hypothesis",
            f"image {image} of the center misses the interval of y"))

    n_lo, n_hi = (Fraction(q) for q in cert.neighborhood)
    C = Fraction(cert.C)
    step = Fraction(1, 1 << SAMPLE_EXP)
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
    low = shift_stats(d, f, x, len(y)).lower
    need = Fraction(1, 1 << (ell + 2)) * d.at(y)
    if low < need:
        violations.append(Violation(
            str(y), "conclusion",
            f"capital transfer fails: lower(x;{len(y)}) = {low} < {need}"))

    return Report(f"transfer witness x={x} y={y}", checked, violations)
