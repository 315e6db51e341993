"""Power-series evaluation with certified error, and root finding.

A series spec carries approximators for its center and coefficients plus
three exact constants: a bound C >= 1 with |c_n| (r + eps)^n <= C, the
anchor radius r (how far evaluation points may sit from the center), and
the margin eps.  These give a computable tail bound

    |sum_{n >= m} c_n z^n| <= C (r/(r+eps))^m (r+eps)/eps <= 2^(k - m/l)

with k = ceil(lg(C (r+eps) / eps)) and l = ceil(1 / lg((r+eps)/r)), both
found by integer power comparisons on the constants' numerators and
denominators (``tail_constants``).  ``validate`` spot-checks the term
bound and the tail's decay on terms kept as integer pairs, up to a
polynomial's degree at most.  Evaluation at target precision
s then truncates at m_s = l (s + k + 1) terms -- killing the tail to
2^-(s+1) -- and queries each coefficient at precision
e(n, s) = s + b_s n + 2 m_s + 1, where 2^b_s dominates every factor
magnitude, and the center once, at e_max = e(m_s - 1, s); a telescoping
bound puts each term's error below (n+1) 2^(-s - 2 m_s - 1), so the grand
total stays within 2^-s.

Both series evaluators, ``eval_point`` and the fixed-point sign sum, read
these replies through a level table (``_LevelTable``): per level (s, b_s)
it queries the magnitude pass, the center at e_max and every coefficient
once, and reads each reply once into an integer pair, so setting up a
level builds no ``Fraction``.  An evaluation builds a fresh table;
``find_root`` keeps one for all its probes, so a root queries each
coefficient once per level it reaches, not once per probe.
``eval_point`` returns the exact rational
sum_n c_n z^n of the replies, summed as a balanced tree of integer pairs
and reduced once.

Root finding brackets a certified sign change and bisects, with
quarter-point probes when the midpoint sits too close to the root to call.
The bracket is a pair of integer numerators over one power of two; each
probe is a ``Dyadic`` handed to ``certified_sign``.  Signs come from their
own evaluator, not from ``eval_point``:

- a finitely supported spec (a ``poly:`` spec, an explicit coefficient
  list, and their shifts and derivatives) carries its exact coefficients
  c_0, ..., c_d.  Over their common denominator D > 0, the sign at the
  probe t = a/b (b > 0) is the sign of the integer
  sum_i (c_i D) a^i b^(d-i), summed by Horner's rule; an exact quotient
  evaluator answers exactly too.  That sign is the answer, and an exact 0
  is a root: no precision is escalated;
- every other series is summed on ``eval_point``'s schedule (same m_s,
  b_s and term precisions) by Horner's rule in W-bit fixed point, with
  W = s + g + k + a + HORNER_GUARD a few bits past the target: the level
  table converts each level's replies once into W-bit integers, and a
  probe reads its dyadic point in integers, with no ``Fraction`` built.
  The sum is one integer N over 2^(s+g), with g = bit_length(m_s) + 2
  guard bits.  |N / 2^(s+g)| > 2 * 2^-s certifies the sign; otherwise s
  doubles, from p + 2, DOUBLINGS times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from fractions import Fraction

from .dyadic import (EMPTY, Dyadic, Word, _PairSum, ceil_lg_ratio,
                     common_numerators, gamma, parse_rational)
from .errors import AnchorError, SignUndecidableError

ONE = Fraction(1)

# ``PowerSeriesSpec.validate`` checks the term bound explicitly for
# n <= EXPLICIT_TO and the two-step tail decay on WINDOW terms
EXPLICIT_TO = 64
WINDOW = 64

# ``certified_sign`` doubles the precision of an approximated series'
# fixed-point sum DOUBLINGS times
DOUBLINGS = 8

# fixed guard bits of the Horner width W (``_fixed_point_sum``)
HORNER_GUARD = 2


def _as_pair(t):
    """(a, d) with t = a/d and d > 0: a ``Dyadic``'s numerator and 2^exp,
    a ``Fraction``'s or an ``int``'s numerator and denominator, read
    without a copy; any other rational through ``Fraction``."""
    if isinstance(t, Dyadic):
        return t.num, 1 << t.exp
    if not isinstance(t, (Fraction, int)):
        t = Fraction(t)
    return t.numerator, t.denominator


def tail_constants(C, radius, margin):
    """(k, l) for the geometric tail bound, by integer power comparisons.

    With C = c/c', r = a/a' and eps = b/b', the sum r + eps is u/(a'b')
    with u = ab' + ba', so k = ceil(lg(c u / (c' a' b))) and l is the
    least l >= 1 with u^l >= 2 (ab')^l, that is ((r+eps)/r)^l >= 2.
    """
    (c, c_den), (a, a_den), (b, b_den) = map(_as_pair, (C, radius, margin))
    if c < c_den or a <= 0 or b <= 0:
        raise ValueError("need C >= 1, radius > 0, margin > 0")
    ab = a * b_den
    u = ab + b * a_den
    k = ceil_lg_ratio(c * u, c_den * a_den * b)
    ell, num, den = 1, u, ab            # ((r+eps)/r)^ell = num/den
    while num < den << 1:
        num *= u
        den *= ab
        ell += 1
    return k, ell


@dataclass(frozen=True)
class PowerSeriesSpec:
    """Center/coefficient approximators plus certified convergence data.

    ``coeff_approx(n, r)`` and ``center_approx(r)`` obey the usual 2^-r
    contracts.  ``anchor`` is the word whose interval holds every
    evaluation point.  Which fields each reader uses:

    - ``eval_point`` and the fixed-point sign sum: ``coeff_approx``,
      ``center_approx``, ``anchor`` and the tail constants from
      ``term_bound``, ``radius`` and ``margin``;
    - ``certified_sign`` on a spec with ``polynomial`` set: ``polynomial``
      (the exact coefficients (c_0, ..., c_d) of f(t) = sum c_i t^i) and
      ``anchor`` only.  Only the polynomial builders set it; ``shifted``
      and ``derivative_spec`` derive it;
    - ``validate``: ``exact_coeff``, ``exact_center`` and
      ``tail_monotone_from`` beside the constants.  These three feed only
      the startup validation; no evaluator reads them.
    """

    name: str
    coeff_approx: object
    center_approx: object
    term_bound: Fraction
    radius: Fraction
    margin: Fraction
    anchor: Word = EMPTY
    exact_coeff: object = None
    exact_center: Fraction = None
    tail_monotone_from: int = 0
    polynomial: tuple = None

    # computed once per instance; ``dataclasses.replace`` builds a new
    # instance, so a derived spec computes its own
    @cached_property
    def constants(self):
        return tail_constants(self.term_bound, self.radius, self.margin)

    @cached_property
    def anchor_interval(self):
        """The interval of ``anchor`` as a pair of Fractions."""
        return tuple(Fraction(q) for q in gamma(self.anchor))

    @cached_property
    def _integer_polynomial(self):
        """[c_0 D, ..., c_d D] for the common denominator D > 0 of
        ``polynomial`` (``common_numerators``): integers with the
        polynomial's signs."""
        return common_numerators(self.polynomial)[0]

    def validate(self):
        """Spot-check |c_n|(r+eps)^n <= C for n <= EXPLICIT_TO and the
        two-step decay of the term bounds on WINDOW terms past
        ``tail_monotone_from`` (the declared start of the monotone tail).

        The terms are integer pairs, compared by cross-multiplication; a
        ``Fraction`` is built only for an error message.  A polynomial's
        terms past its degree are 0, and the comparisons stop there too:
        once term 0 passes, C >= 0 and every 0 passes the term bound, and
        a 0 two steps on is never above an earlier term."""
        if self.exact_coeff is None:
            raise ValueError(f"{self.name}: no exact coefficients to check")
        base = self.radius + self.margin
        base_num, base_den = base.numerator, base.denominator
        bound, bound_den = _as_pair(self.term_bound)
        start = self.tail_monotone_from
        count = max(EXPLICIT_TO, start + WINDOW) + 3
        top = count if self.polynomial is None else \
            max(1, min(count, len(self.polynomial)))
        terms, num, den = [], 1, 1          # base^n = num/den
        for n in range(top):
            c, c_den = _as_pair(self.exact_coeff(n))
            terms.append((abs(c) * num, c_den * den))
            num *= base_num
            den *= base_den
        for n in range(min(top, EXPLICIT_TO + 1)):
            t, t_den = terms[n]
            if t * bound_den > bound * t_den:
                raise ValueError(f"{self.name}: term bound fails at n={n}: "
                                 f"{Fraction(t, t_den)} > {self.term_bound}")
        for n in range(start, min(start + WINDOW, top - 2)):
            (t, t_den), (t2, t2_den) = terms[n], terms[n + 2]
            if t2 * t_den > t * t2_den:
                raise ValueError(f"{self.name}: tail not two-step monotone "
                                 f"at n={n}")
        if self.exact_center is not None:
            lo, hi = self.anchor_interval
            reach = max(abs(lo - self.exact_center),
                        abs(hi - self.exact_center))
            if reach > self.radius:
                raise ValueError(f"{self.name}: anchor reaches {reach} "
                                 f"beyond radius {self.radius}")
        return True

    def shifted(self, q):
        """The spec for f - q (subtract q from the constant coefficient)."""
        q = Fraction(q)
        inner_c = self.coeff_approx
        inner_e = self.exact_coeff
        return replace(
            self,
            name=f"{self.name}-{q}",
            coeff_approx=lambda n, r: inner_c(n, r) - q if n == 0 else
            inner_c(n, r),
            term_bound=max(self.term_bound,
                           abs(Fraction(inner_e(0)) - q) if inner_e else
                           self.term_bound + abs(q)),
            exact_coeff=(lambda n: inner_e(n) - (q if n == 0 else 0))
            if inner_e else None,
            tail_monotone_from=max(self.tail_monotone_from, 2),
            polynomial=(self.polynomial[0] - q,) + self.polynomial[1:]
            if self.polynomial else None,
        )


def eval_schedule(spec, s):
    """(m_s, k, l) of the truncation schedule for target precision s."""
    k, ell = spec.constants
    return ell * (s + k + 1), k, ell


def _check_anchor(spec, a, d):
    """Raise ``AnchorError`` unless a/d lies in the anchor interval."""
    word = spec.anchor
    if not word.k * d <= a << word.n <= (word.k + 1) * d:
        lo, hi = spec.anchor_interval
        raise AnchorError(f"{Fraction(a, d)} outside anchor [{lo}, {hi}] "
                          f"of {spec.name}")


class _LevelTable:
    """One spec's approximator replies, queried once per precision level.

    A level is a target precision s with its factor bound b_s, which
    depends on the point t only through |t - center|.  Every reply is read
    once into an integer pair (``_as_pair``).  ``level`` queries a level's
    replies (``eval_point`` reads one level of a fresh table, once), and a
    sign sum keeps each level it reaches as a Horner table of W-bit
    integers; across levels the table keeps the center reply at precision 0
    and the running maxima of |coeff_approx(n, 0)|, the coefficient part
    of the magnitude pass, compared by cross-multiplication.  A point
    comes in as an integer pair (a, d) with t = a/d, so neither a probe
    nor a level builds a ``Fraction``.  An evaluation builds a fresh table;
    ``find_root`` keeps one for all the probes of one root.
    """

    def __init__(self, spec):
        self.spec = spec
        self.center0 = None     # center_approx(0) as (num, den)
        self.mags = []          # mags[n] = max |coeff_approx(j, 0)|, j <= n,
        #                         as (num, den)
        self.mag_bits = {}      # m_s -> ceil(lg(2 + mags[m_s - 1]))
        self.horner = {}        # (s, b_s) -> (W, s + g, cnum, cden, coeffs)

    def key(self, a, d, s):
        """The level (s, b_s) of the point t = a/d (d > 0) at target
        precision s, after the anchor check, in integers:
        b_s = ceil(lg(2 + max(|t - center0|, mags[m_s - 1])))."""
        spec = self.spec
        _check_anchor(spec, a, d)
        m_s = eval_schedule(spec, s)[0]
        if self.center0 is None:
            self.center0 = _as_pair(spec.center_approx(0))
        mag_bits = self.mag_bits.get(m_s)
        if mag_bits is None:
            mags = self.mags
            best = mags[-1] if mags else (0, 1)
            for n in range(len(mags), m_s):
                c, c_den = _as_pair(spec.coeff_approx(n, 0))
                if abs(c) * best[1] > best[0] * c_den:
                    best = abs(c), c_den
                mags.append(best)
            top, top_den = mags[m_s - 1]
            mag_bits = self.mag_bits[m_s] = \
                ceil_lg_ratio(2 * top_den + top, top_den)
        # |t - center0| = gap / den, so 2 + |t - center0| = (2 den + gap) / den
        p0, q0 = self.center0
        den = d * q0
        gap = abs(a * q0 - p0 * d)
        return s, max(mag_bits, ceil_lg_ratio(2 * den + gap, den))

    def level(self, key):
        """(m_s, center, terms) of the level key = (s, b_s).

        ``terms`` lists (n, num, den) for every n < m_s whose reply
        num/den = coeff_approx(n, e) is nonzero, queried at
        e = e(n, s) = s + b_s n + 2 m_s + 1; ``center`` is the pair
        (cnum, cden) of center_approx(e_max) with e_max = e(m_s - 1, s).
        """
        spec = self.spec
        coeff = spec.coeff_approx
        s, b_s = key
        m_s = eval_schedule(spec, s)[0]
        terms = []
        for n in range(m_s):
            num, den = _as_pair(coeff(n, s + b_s * n + 2 * m_s + 1))
            if num:
                terms.append((n, num, den))
        e_max = s + b_s * (m_s - 1) + 2 * m_s + 1
        return m_s, _as_pair(spec.center_approx(e_max)), terms

    def horner_table(self, key):
        """(W, s + g, cnum, cden, coeffs) of the level key = (s, b_s) for
        ``_fixed_point_sum``: the width W = s + g + k + a + HORNER_GUARD,
        the center reply cnum/cden, and coeffs[i] = c_n 2^W rounded toward
        0 for n = m_s - 1 - i, highest degree first, zeros included but for
        the leading ones, which Horner's rule would pass over with
        acc = 0: every |c_n| < 2^-W rounds to 0, so the table is no longer
        than the terms that reach the target precision."""
        found = self.horner.get(key)
        if found is None:
            spec = self.spec
            m_s, (cnum, cden), terms = self.level(key)
            sg = key[0] + m_s.bit_length() + 2
            # a = max(0, ceil(lg(1 / (r + eps)))); with r = r_num/r_den and
            # eps = e_num/e_den, 1/(r + eps) is
            # r_den e_den / (r_num e_den + e_num r_den)
            (r_num, r_den), (e_num, e_den) = map(_as_pair, (spec.radius,
                                                            spec.margin))
            reach = ceil_lg_ratio(r_den * e_den,
                                  r_num * e_den + e_num * r_den)
            width = sg + spec.constants[0] + max(0, reach) + HORNER_GUARD
            coeffs = [0] * m_s
            for n, num, den in terms:
                whole = (abs(num) << width) // den
                coeffs[m_s - 1 - n] = whole if num > 0 else -whole
            # Horner keeps acc = 0 through the leading zeros: drop them
            top = next((i for i, c in enumerate(coeffs) if c), m_s)
            found = self.horner[key] = (width, sg, cnum, cden, coeffs[top:])
        return found


def eval_point(spec, t, s):
    """Approximate the series at the rational point t within 2^-s.

    t must lie in the spec's anchor interval and s >= -k, so that
    m_s = l (s + k + 1) >= 1.  The value is the exact sum of c_n z^n over
    the replies c_n, with z = t - center: each term is an integer pair,
    added to a ``_PairSum`` as it is made, so no term list is held.
    """
    k = spec.constants[0]
    if s < -k:
        raise ValueError(f"{spec.name}: precision {s} is below -k = {-k}, "
                         "so the schedule has no term")
    a, d = _as_pair(t)
    table = _LevelTable(spec)
    _, (cnum, cden), terms = table.level(table.key(a, d, s))
    # z = t - center = z_num / z_den, in lowest terms
    z_num, z_den = a * cden - cnum * d, d * cden
    g = math.gcd(z_num, z_den)
    z_num, z_den = z_num // g, z_den // g
    acc = _PairSum()
    at, p_num, p_den = 0, 1, 1          # z^at = p_num / p_den
    for n, num, den in terms:
        while at < n:
            p_num *= z_num
            p_den *= z_den
            at += 1
        acc.add(num * p_num, den * p_den)
    return acc.total()


def _fixed_point_sum(spec, t, s, table):
    """(N, s + g): N / 2^(s+g) is within 2^-s of the series at the dyadic t.

    The replies c_n, their precisions e_n = e(n, s) and the center reply at
    e_max = e(m_s - 1, s) are ``eval_point``'s, read from ``table``, the
    spec's ``_LevelTable``, which keeps them per level as W-bit integers
    C_n, c_n 2^W rounded toward 0.  With z = t - center and
    z_W = floor(z 2^W), Horner's rule runs acc = floor(acc z_W / 2^W) + C_n
    from n = m_s - 1 down to 0, and N = floor(acc / 2^(W-s-g)).  Here
    g = bit_length(m_s) + 2 guard bits, so 2^g > 4 m_s, and
    W = s + g + k + a + HORNER_GUARD with k the tail constant and
    a = max(0, ceil(lg(1 / (r + eps)))).  The error budget:

    - tail past m_s terms: at most 2^-(s+1) (the schedule);
    - replies: (n+1) 2^(-s-2m_s-1) per term (the telescoping bound of
      ``eval_point``), below 2^-(s+3) summed over n < m_s;
    - Horner rounding: step n rounds C_n toward 0 and the product down,
      each by less than 2^-W, and Z = z_W / 2^W sits below z by less than
      2^-W, which costs |h_n| 2^-W with h_n = sum_{j>n} c_j z^(j-n-1).
      Each step's error is scaled by Z^n.  Given |z|, |Z| <= min(1, r),
      |Z|^n <= 1 and |Z^n h_n| <= sum_{j>=1} |c_j| r^(j-1) <= C / eps
      <= 2^(k+a), from |c_j| <= C / (r + eps)^j and
      2^k >= C (r + eps) / eps.  In all at most m_s (2^(k+a) + 2) 2^-W
      < 2^-(s+3), since k + a >= 1;
    - the final shift to s + g: below 2^-(s+g) <= 2^-(s+3);

    in all below 2^-s, with room for the replies' own errors in |c_j| and
    for a center reply off by 2^-e_max, which moves z by that much.

    |z| <= min(1, r) holds for every spec the CLI builds: the center is 0,
    the anchor lies in [0, 1], and ``validate`` checks that it reaches no
    farther than r.  A spec whose anchor reached rho > 1 from its center
    would need ceil(m_s lg rho) more bits, since the Z^n would grow.
    """
    a, d = _as_pair(t)
    width, sg, cnum, cden, coeffs = table.horner_table(table.key(a, d, s))
    z = ((a * cden - cnum * d) << width) // (d * cden)
    acc = 0
    for c in coeffs:
        acc = (acc * z >> width) + c
    return acc >> (width - sg), sg


def eval_approx(spec, a, s):
    """Evaluate at the dyadic point 0.(anchor a), within 2^-s."""
    return eval_point(spec, (spec.anchor + a).value(), s)


def _exact_sign(evaluator, t):
    """The sign of the exact value at the dyadic t (0 at a root), or None
    for a series that must be approximated: quotients by ``at``,
    polynomials by integer Horner over their common denominator."""
    if not isinstance(evaluator, PowerSeriesSpec):
        value = Fraction(evaluator.at(t))
        return (value > 0) - (value < 0)
    if evaluator.polynomial is None:
        return None
    a, b = _as_pair(t)
    _check_anchor(evaluator, a, b)
    # after c_i: acc = sum_{j >= i} (c_j D) a^(j-i) b^(d-j)
    acc, b_power = 0, 1                 # b_power = b^(d-i) before c_i
    for c in reversed(evaluator._integer_polynomial):
        acc = acc * a + c * b_power
        b_power *= b
    return (acc > 0) - (acc < 0)


def certified_sign(evaluator, t, p, *, _table=None):
    """The sign of f(t) (+1/-1), or 0 when it cannot be certified.

    An evaluator with an exact value at t (a polynomial spec or a quotient)
    is evaluated once; its sign is the answer, and an exact zero gives 0.
    Any other series is summed in fixed point at the levels
    s = (p+2) * 2^i for i = 0..DOUBLINGS until |value| > 2 * 2^-s; such a
    reply pins the sign of the true value since |f(t) - v| <= 2^-s.  Such
    a series needs p >= -2, since below it the levels fall.  Each call
    queries the coefficients afresh at every level it sums, except for
    ``find_root``'s probes, which share one level table (``_table``).
    """
    sign = _exact_sign(evaluator, t)
    if sign is not None:
        return sign
    if p < -2:
        raise ValueError(f"{evaluator.name}: a summed sign needs p >= -2, "
                         f"got p = {p}")
    table = _LevelTable(evaluator) if _table is None else _table
    for i in range(DOUBLINGS + 1):
        s = (p + 2) << i
        total, sg = _fixed_point_sum(evaluator, t, s, table)
        if abs(total) > 2 << (sg - s):      # |total / 2^sg| > 2 * 2^-s
            return 1 if total > 0 else -1
    return 0


def find_root(spec, interval, p):
    """Dyadic x* within 2^-p of the unique sign change in the interval.

    The caller certifies the instance: exactly one sign change, difference
    quotients bounded away from zero near it.  Midpoints that refuse to
    reveal a sign (the root may be exactly there) are bypassed with
    quarter-point probes; if no probe can be certified either, the
    instance is reported as sign-undecidable.  Each round halves the
    bracket, or moves at least one end in by a quarter of it, or raises,
    so the loop ends after at most ceil(log_{4/3}(width 2^(p-1))) rounds.

    The bracket is a pair of integer numerators lo/2^e and hi/2^e over one
    power of two, doubled (e grows by one) whenever a midpoint or a quarter
    would leave the grid, and the loop runs while hi - lo exceeds
    goal = 2^(e+1-p), the goal width 2^(1-p) on that grid.  Every probe is
    one call of the module-level ``certified_sign`` with a ``Dyadic``
    point and the same p, and all of them share one level table: a root
    queries each coefficient once per level (s, b_s) it reaches, not once
    per probe.
    """
    lo, hi = (q if isinstance(q, Dyadic) else Dyadic.parse(str(q))
              for q in interval)
    if not lo < hi:
        raise ValueError("empty interval")
    table = _LevelTable(spec)

    def sign(num, e):
        return certified_sign(spec, Dyadic(num, e), p, _table=table)

    s_lo = certified_sign(spec, lo, p, _table=table)
    s_hi = certified_sign(spec, hi, p, _table=table)
    if s_lo == 0 or s_hi == 0:
        raise SignUndecidableError(
            f"sign-undecidable at an endpoint of [{lo}, {hi}]")
    if s_lo == s_hi:
        raise ValueError(f"no certified sign change on [{lo}, {hi}]")

    # the common exponent starts at p - 1 or deeper, so that the goal is
    # an integer
    e = max(lo.exp, hi.exp, p - 1)
    lo, hi = lo.num << (e - lo.exp), hi.num << (e - hi.exp)
    goal = 1 << (e + 1 - p)
    while hi - lo > goal:
        if (hi - lo) & 1:
            lo, hi, goal, e = lo << 1, hi << 1, goal << 1, e + 1
        mid = (lo + hi) >> 1
        s_mid = sign(mid, e)
        if s_mid == s_lo:
            lo = mid
            continue
        if s_mid == s_hi:
            hi = mid
            continue
        if (hi - lo) & 2:
            lo, hi, goal, e = lo << 1, hi << 1, goal << 1, e + 1
        quarter = (hi - lo) >> 2
        q1 = lo + quarter
        q2 = hi - quarter
        s1 = sign(q1, e)
        s2 = sign(q2, e)
        if s1 == s_hi:
            hi = q1
        elif s2 == s_lo:
            lo = q2
        else:
            moved = False
            if s1 == s_lo:
                lo = q1
                moved = True
            if s2 == s_hi:
                hi = q2
                moved = True
            if not moved:
                raise SignUndecidableError(
                    f"sign-undecidable near [{Dyadic(lo, e)}, "
                    f"{Dyadic(hi, e)}] after the escalation budget")
    return Dyadic(lo + hi, e + 1)


def derivative_spec(spec):
    """Termwise derivative with margin eps/2 and a recomputed term bound.

    c'_n = (n+1) c_{n+1}; since |c_{n+1}| <= C/(r+eps)^(n+1), the new term
    bounds are dominated by C/(r+eps) * (n+1) rho^n with
    rho = (r+eps/2)/(r+eps) < 1, whose maximum is found by exact scan.
    """
    inner_c = spec.coeff_approx
    inner_e = spec.exact_coeff
    rho = (spec.radius + spec.margin / 2) / (spec.radius + spec.margin)
    env = Fraction(1)
    best = env
    n = 0
    while rho * (n + 2) > (n + 1):
        n += 1
        env = env * rho * Fraction(n + 1, n)
        best = max(best, env)
    peak_n = n
    new_bound = max(ONE, spec.term_bound / (spec.radius + spec.margin) * best)

    def coeff(m, r):
        extra = ceil_lg_ratio(m + 1, 1)
        return (m + 1) * Fraction(inner_c(m + 1, r + extra))

    return replace(
        spec,
        name=f"{spec.name}'",
        coeff_approx=coeff,
        term_bound=new_bound,
        margin=spec.margin / 2,
        exact_coeff=(lambda m: (m + 1) * Fraction(inner_e(m + 1)))
        if inner_e else None,
        tail_monotone_from=max(spec.tail_monotone_from, peak_n) + 2,
        polynomial=(tuple(n * c for n, c in enumerate(spec.polynomial))[1:]
                    or (Fraction(0),)) if spec.polynomial else None,
    )


def series(name, exact_coeff, C, radius, margin, anchor=EMPTY, tail_from=0,
           polynomial=None):
    """A series about 0 with exact coefficients ``exact_coeff``, or with
    those of ``polynomial`` (zero past its end) when that is None.  The
    one builder of the named specs, ``poly:`` and ``kind = series``
    files, and the one constructor call: shifts and derivatives replace
    only the fields they change."""
    if exact_coeff is None:
        exact_coeff = lambda n: (polynomial[n] if n < len(polynomial)
                                 else Fraction(0))
    return PowerSeriesSpec(
        name=name,
        coeff_approx=lambda n, r: exact_coeff(n),
        center_approx=lambda r: Fraction(0),
        term_bound=Fraction(C),
        radius=Fraction(radius),
        margin=Fraction(margin),
        anchor=anchor,
        exact_coeff=exact_coeff,
        exact_center=Fraction(0),
        tail_monotone_from=tail_from,
        polynomial=polynomial,
    )


def _factorial_series(signs):
    """The coefficients n -> signs[n % 4] / n!.  n! is stepped from the
    last query: one multiply when the next query is n + 1 (a zero
    coefficient steps it too), ``math.factorial`` otherwise."""
    last_n, factorial = 0, 1

    def coeff(n):
        nonlocal last_n, factorial
        if n == last_n + 1:
            factorial *= n
        elif n != last_n:
            factorial = math.factorial(n)
        last_n = n
        return Fraction(signs[n % 4], factorial)
    return coeff


_exp_coeff = _factorial_series((1, 1, 1, 1))
_sin_coeff = _factorial_series((0, 1, 0, -1))
_cos_coeff = _factorial_series((1, 0, -1, 0))


def _ln1p_coeff(n):
    if n == 0:
        return Fraction(0)
    return Fraction(1 if n % 2 == 1 else -1, n)


_NAMED = {
    "exp": lambda: series("exp", _exp_coeff, 4, 1, 1, tail_from=2),
    "sin": lambda: series("sin", _sin_coeff, 2, 1, 1, tail_from=1),
    "cos": lambda: series("cos", _cos_coeff, 2, 1, 1, tail_from=2),
    "ln1p": lambda: series("ln1p", _ln1p_coeff, 1, Fraction(1, 2),
                           Fraction(1, 4), anchor=Word(0, 1), tail_from=1),
    "geom": lambda: series("geom", lambda n: Fraction(1), 1, Fraction(1, 2),
                           Fraction(1, 4), anchor=Word(0, 1), tail_from=0),
}


@cache
def _named_spec(name):
    spec = _NAMED[name]()
    spec.validate()
    return spec


def builtin_spec(name):
    """Named series: exp | sin | cos | ln1p | geom | poly:<c0,c1,...>.

    exp/sin/cos anchor the whole unit interval about 0 with (r, eps) =
    (1, 1); geom (coefficients all 1) and ln1p only converge with margin
    on [0, 1/2], anchored on the left half with (r, eps) = (1/2, 1/4).
    All constants are validated on construction.  A named spec is built
    and validated once per process, on first use; a ``poly:`` spec on
    every call.
    """
    if name in _NAMED:
        return _named_spec(name)
    if not name.startswith("poly:"):
        raise ValueError(f"unknown series spec {name!r}")
    coeffs = [parse_rational(c) for c in name.split(":", 1)[1].split(",")]
    bound = max([ONE] + [abs(c) * (1 << i) for i, c in enumerate(coeffs)])
    spec = series(name, None, bound, 1, 1, tail_from=len(coeffs),
                  polynomial=tuple(coeffs))
    spec.validate()
    return spec
