"""Power-series evaluation with certified error, and root finding.

A series spec carries approximators for its center and coefficients plus
three exact constants: a bound C >= 1 with |c_n| (r + eps)^n <= C, the
anchor radius r (how far evaluation points may sit from the center), and
the margin eps.  These give a computable tail bound

    |sum_{n >= m} c_n z^n| <= C (r/(r+eps))^m (r+eps)/eps <= 2^(k - m/l)

with k = ceil(lg(C (r+eps) / eps)) and l = ceil(1 / lg((r+eps)/r)), both
found by exact integer power comparisons.  Evaluation at target precision
s then truncates at m_s = l (s + k + 1) terms -- killing the tail to
2^-(s+1) -- and queries each coefficient and the center at precision
e(n, s) = s + b_s n + 2 m_s + 1, where 2^b_s dominates every factor
magnitude; a telescoping bound puts each term's error below
(n+1) 2^(-s - 2 m_s - 1), so the grand total stays within 2^-s.

Root finding brackets a certified sign change and bisects; signs come from
evaluations at escalating precision (|value| > 2 * 2^-s certifies the
sign), with quarter-point probes when the midpoint sits too close to the
root to call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .dyadic import Dyadic, Word, exact_ceil_lg, word_value
from .errors import AnchorError, ParseError, SignUndecidableError
from .dyadic import parse_rational

ONE = Fraction(1)

# ``PowerSeriesSpec.validate`` checks the term bound explicitly for
# n <= EXPLICIT_TO and the two-step tail decay on WINDOW terms
EXPLICIT_TO = 64
WINDOW = 64

# ``certified_sign`` escalates the evaluation precision DOUBLINGS times
DOUBLINGS = 8


def tail_constants(C, radius, margin):
    """(k, l) for the geometric tail bound, by exact power comparisons."""
    C, radius, margin = Fraction(C), Fraction(radius), Fraction(margin)
    if C < 1 or radius <= 0 or margin <= 0:
        raise ValueError("need C >= 1, radius > 0, margin > 0")
    k = exact_ceil_lg(C * (radius + margin) / margin)
    # l = smallest positive integer with ((radius+margin)/radius)^l >= 2
    ratio = (radius + margin) / radius
    ell = 1
    acc = ratio
    while acc < 2:
        acc *= ratio
        ell += 1
    return k, ell


@dataclass(frozen=True)
class PowerSeriesSpec:
    """Center/coefficient approximators plus certified convergence data.

    ``coeff_approx(n, r)`` and ``center_approx(r)`` obey the usual 2^-r
    contracts.  ``exact_coeff`` and ``exact_center``, when present, feed
    only the startup validation; evaluation never reads them.  ``anchor``
    is the word whose interval holds every evaluation point.
    """

    name: str
    coeff_approx: object
    center_approx: object
    term_bound: Fraction
    radius: Fraction
    margin: Fraction
    anchor: Word = field(default_factory=lambda: Word(0, 0))
    exact_coeff: object = None
    exact_center: Fraction = None
    tail_monotone_from: int = 0

    @property
    def constants(self):
        return tail_constants(self.term_bound, self.radius, self.margin)

    def anchor_interval(self):
        lo = Fraction(word_value(self.anchor))
        return lo, lo + Fraction(1, 1 << len(self.anchor))

    def validate(self):
        """Spot-check |c_n|(r+eps)^n <= C for n <= EXPLICIT_TO and the
        two-step decay of the term bounds on WINDOW terms past
        ``tail_monotone_from`` (the declared start of the monotone tail)."""
        if self.exact_coeff is None:
            raise ValueError(f"{self.name}: no exact coefficients to check")
        base = self.radius + self.margin
        t = [abs(Fraction(self.exact_coeff(n))) * base ** n
             for n in range(max(EXPLICIT_TO, self.tail_monotone_from
                                + WINDOW) + 3)]
        for n in range(EXPLICIT_TO + 1):
            if t[n] > self.term_bound:
                raise ValueError(f"{self.name}: term bound fails at n={n}: "
                                 f"{t[n]} > {self.term_bound}")
        for n in range(self.tail_monotone_from,
                       self.tail_monotone_from + WINDOW):
            if t[n + 2] > t[n]:
                raise ValueError(f"{self.name}: tail not two-step monotone "
                                 f"at n={n}")
        if self.exact_center is not None:
            lo, hi = self.anchor_interval()
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
        return PowerSeriesSpec(
            name=f"{self.name}-{q}",
            coeff_approx=lambda n, r: inner_c(n, r) - (q if n == 0 else 0),
            center_approx=self.center_approx,
            term_bound=max(self.term_bound,
                           abs(Fraction(inner_e(0)) - q) if inner_e else
                           self.term_bound + abs(q)),
            radius=self.radius,
            margin=self.margin,
            anchor=self.anchor,
            exact_coeff=(lambda n: inner_e(n) - (q if n == 0 else 0))
            if inner_e else None,
            exact_center=self.exact_center,
            tail_monotone_from=max(self.tail_monotone_from, 2),
        )


def eval_schedule(spec, s):
    """(m_s, k, l) of the truncation schedule for target precision s."""
    k, ell = spec.constants
    return ell * (s + k + 1), k, ell


def eval_point(spec, t, s):
    """Approximate the series at the rational point t within 2^-s.

    t must lie in the spec's anchor interval.
    """
    t = Fraction(t)
    lo, hi = spec.anchor_interval()
    if not lo <= t <= hi:
        raise AnchorError(f"{t} outside anchor [{lo}, {hi}] of {spec.name}")
    m_s, k, ell = eval_schedule(spec, s)

    mag = abs(t - Fraction(spec.center_approx(0)))
    for n in range(m_s):
        mag = max(mag, abs(Fraction(spec.coeff_approx(n, 0))))
    b_s = exact_ceil_lg(2 + mag)

    total = Fraction(0)
    for n in range(m_s):
        e = s + b_s * n + 2 * m_s + 1
        c = Fraction(spec.coeff_approx(n, e))
        if c == 0:
            continue
        z = t - Fraction(spec.center_approx(e))
        total += c * z ** n
    return total


def eval_approx(spec, a, s):
    """Evaluate at the dyadic point 0.(anchor a), within 2^-s."""
    return eval_point(spec, word_value(spec.anchor + a), s)


def _approx_value(evaluator, t, s):
    """Series specs go through the schedule; exact oracles answer directly."""
    if isinstance(evaluator, PowerSeriesSpec):
        return eval_point(evaluator, t, s)
    return Fraction(evaluator.at(t))


def certified_sign(evaluator, t, p):
    """+1/-1 once |value| > 2 * 2^-s at some escalation level, else 0.

    Levels are s = (p+2) * 2^i for i = 0..DOUBLINGS; a certified nonzero
    reply pins the sign of the true value since |f(t) - v| <= 2^-s.
    """
    for i in range(DOUBLINGS + 1):
        s = (p + 2) << i
        v = _approx_value(evaluator, t, s)
        if abs(v) > 2 * Fraction(1, 1 << s):
            return 1 if v > 0 else -1
    return 0


def find_root(spec, interval, p):
    """Dyadic x* within 2^-p of the unique sign change in the interval.

    The caller certifies the instance: exactly one sign change, difference
    quotients bounded away from zero near it.  Midpoints that refuse to
    reveal a sign (the root may be exactly there) are bypassed with
    quarter-point probes; if no probe can be certified either, the
    instance is reported as sign-undecidable.
    """
    lo, hi = (q if isinstance(q, Dyadic) else Dyadic.parse(str(q))
              for q in interval)
    if not lo < hi:
        raise ValueError("empty interval")
    s_lo = certified_sign(spec, lo, p)
    s_hi = certified_sign(spec, hi, p)
    if s_lo == 0 or s_hi == 0:
        raise SignUndecidableError(
            f"sign-undecidable at an endpoint of [{lo}, {hi}]")
    if s_lo == s_hi:
        raise ValueError(f"no certified sign change on [{lo}, {hi}]")

    width_goal = Dyadic(1, p - 1) if p >= 1 else Dyadic(2 << -p)
    rounds = 0
    while hi - lo > width_goal:
        rounds += 1
        if rounds > 8 * p + 64:
            raise SignUndecidableError("bisection failed to converge")
        mid = (lo + hi).half()
        s_mid = certified_sign(spec, mid, p)
        if s_mid == s_lo:
            lo = mid
            continue
        if s_mid == s_hi:
            hi = mid
            continue
        quarter = (hi - lo).half().half()
        q1 = lo + quarter
        q2 = hi - quarter
        s1 = certified_sign(spec, q1, p)
        s2 = certified_sign(spec, q2, p)
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
                    f"sign-undecidable near [{lo}, {hi}] after the "
                    "escalation budget")
    return (lo + hi).half()


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
        extra = exact_ceil_lg(m + 1)
        return (m + 1) * Fraction(inner_c(m + 1, r + extra))

    return PowerSeriesSpec(
        name=f"{spec.name}'",
        coeff_approx=coeff,
        center_approx=spec.center_approx,
        term_bound=new_bound,
        radius=spec.radius,
        margin=spec.margin / 2,
        anchor=spec.anchor,
        exact_coeff=(lambda m: (m + 1) * Fraction(inner_e(m + 1)))
        if inner_e else None,
        exact_center=spec.exact_center,
        tail_monotone_from=max(spec.tail_monotone_from, peak_n) + 2,
    )


def _series(name, exact_coeff, C, radius, margin, anchor="", tail_from=0):
    return PowerSeriesSpec(
        name=name,
        coeff_approx=lambda n, r: exact_coeff(n),
        center_approx=lambda r: Fraction(0),
        term_bound=Fraction(C),
        radius=Fraction(radius),
        margin=Fraction(margin),
        anchor=Word.parse(anchor),
        exact_coeff=exact_coeff,
        exact_center=Fraction(0),
        tail_monotone_from=tail_from,
    )


def _exp_coeff(n):
    return Fraction(1, math.factorial(n))


def _sin_coeff(n):
    if n % 2 == 0:
        return Fraction(0)
    sign = 1 if (n // 2) % 2 == 0 else -1
    return Fraction(sign, math.factorial(n))


def _cos_coeff(n):
    if n % 2 == 1:
        return Fraction(0)
    sign = 1 if (n // 2) % 2 == 0 else -1
    return Fraction(sign, math.factorial(n))


def _ln1p_coeff(n):
    if n == 0:
        return Fraction(0)
    return Fraction(1 if n % 2 == 1 else -1, n)


def builtin_spec(name):
    """Named series: exp | sin | cos | ln1p | geom | poly:<c0,c1,...>.

    exp/sin/cos anchor the whole unit interval about 0 with (r, eps) =
    (1, 1); geom (coefficients all 1) and ln1p only converge with margin
    on [0, 1/2], anchored on the left half with (r, eps) = (1/2, 1/4).
    All constants are validated on construction.
    """
    if name == "exp":
        spec = _series("exp", _exp_coeff, 4, 1, 1, tail_from=2)
    elif name == "sin":
        spec = _series("sin", _sin_coeff, 2, 1, 1, tail_from=1)
    elif name == "cos":
        spec = _series("cos", _cos_coeff, 2, 1, 1, tail_from=2)
    elif name == "ln1p":
        spec = _series("ln1p", _ln1p_coeff, 1, Fraction(1, 2),
                       Fraction(1, 4), anchor="0", tail_from=1)
    elif name == "geom":
        spec = _series("geom", lambda n: Fraction(1), 1, Fraction(1, 2),
                       Fraction(1, 4), anchor="0", tail_from=0)
    elif name.startswith("poly:"):
        coeffs = [parse_rational(c) for c in name.split(":", 1)[1].split(",")]
        if not coeffs:
            raise ParseError("empty coefficient list")
        bound = max([ONE] + [abs(c) * (1 << i)
                             for i, c in enumerate(coeffs)])
        exact = lambda n: coeffs[n] if n < len(coeffs) else Fraction(0)
        spec = _series(name, exact, bound, 1, 1, tail_from=len(coeffs))
    else:
        raise ValueError(f"unknown series spec {name!r}")
    spec.validate()
    return spec
