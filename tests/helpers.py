"""Shared test oracles and adversarial wrappers.

Everything here is deliberately independent of the implementation paths it
checks: covers are found by exhaustive enumeration, pullback values by
querying the cover word by word, shifts by literal cell loops (over
Fractions, or over integer cell products for product forms), derived
strategies by recomputing every prefix of the word, the monotone patch
one point at a time by its defining recursion, decimal expansions one
long-division digit at a time, measure round trips and the exhaustive
martingale and measure checks word by word with no shared values, the
census bounds of the insertion maps one point at a time in rationals,
reference constants come from plain partial sums with explicit remainder
bounds, polynomial values from Horner's rule over Fractions, series
validation from its defining term loop over Fractions, and the root
bisection from a loop over ``Dyadic`` brackets.
"""

import dataclasses
import math
from collections import namedtuple
from fractions import Fraction

from hypothesis import strategies as st

from dymart import analytic
from dymart.dyadic import Dyadic, Word, all_words, exact_ceil_lg, gamma
from dymart.errors import SignUndecidableError
from dymart.funcs import word_image
from dymart.martingale import (ApproxMartingale, ExactMartingale,
                               ProductForm, Report, Violation,
                               conservative_transform)
from dymart.measure import (CumulativeFn, DifferentialMeasure,
                            cumulative_point, differential)
from dymart.pullback import _cell_ranges, pullback_approx
from dymart.tightness import CensusSet, ZeroInsertionFn


def word_from_bits(bits):
    """The word with the given bits (any iterable of truthy/falsy)."""
    k = n = 0
    for b in bits:
        k, n = (k << 1) | (1 if b else 0), n + 1
    return Word(k, n)


def is_prefix(p, w):
    """Whether the word p is a prefix of the word w."""
    return w.n >= p.n and w.k >> (w.n - p.n) == p.k


def greedy_cover(a, b, m):
    """Greedy prefix-minimal cover of [a, b] on the 2^-m grid, by Dyadics.

    At each position takes the shortest word that starts there and stays
    inside [a, b]; O(m) exact Dyadic steps, so it reaches grids far beyond
    ``brute_force_cover``.
    """
    a, b = Dyadic(a), Dyadic(b)
    cover = []
    z = a
    while z < b:
        for length in range(z.exp, m + 1):
            step = Dyadic(1, length)
            if z + step <= b:
                cover.append(Word(z.num << (length - z.exp), length))
                z = z + step
                break
        else:
            raise AssertionError("greedy cover failed to advance")
    return cover


def aligned_blocks(a, b):
    """Maximal aligned blocks tiling the index range [a, b), left to right,
    as a list: block (lev, idx) covers [idx << lev, (idx + 1) << lev); no
    level holds more than two, and a full range [0, 2**n) is the one block
    (n, 0)."""
    left, right = [], []
    lev = 0
    while a < b:
        if a & 1:
            left.append((lev, a))
            a += 1
        if b & 1:
            b -= 1
            right.append((lev, b))
        a >>= 1
        b >>= 1
        lev += 1
    left.extend(reversed(right))
    return left


def brute_force_cover(a, b, m):
    """Prefix-minimal words of length <= m whose interval lies in [a, b]."""
    af, bf = Fraction(a), Fraction(b)
    inside = [w for w in all_words(m)
              if af <= Fraction(gamma(w)[0]) and Fraction(gamma(w)[1]) <= bf]
    minimal = [w for w in inside
               if not any(p is not w and is_prefix(p, w) for p in inside)]
    return sorted(minimal, key=lambda w: (Fraction(w.value()), len(w)))


def brute_force_shift(d, lo, hi, x_len, n, inner):
    """2^(x_len-n) * sum of d(y) over depth-n cells against [lo, hi].

    ``inner`` selects containment (lower shift) vs closed-interval
    intersection (upper shift).  Plain loop over all 2^n cells.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    total = Fraction(0)
    for k in range(1 << n):
        c_lo = Fraction(k, 1 << n)
        c_hi = Fraction(k + 1, 1 << n)
        if inner:
            take = lo <= c_lo and c_hi <= hi
        else:
            take = c_lo <= hi and c_hi >= lo
        if take:
            total += Fraction(d.at(Word(k, n)))
    return total * Fraction(2 ** x_len, 2 ** n) if n <= x_len else \
        total * Fraction(1, 2 ** (n - x_len))


def scan_sum_max(pf, classes, n, a, b):
    """Sum and maximum of a product form over cells [a, b) at depth n, by
    a literal in-order scan; same (sum_num, sum_dexp, max_num, max_dexp)
    convention as ``kernels.range_sum_max``.

    Each cell's path reuses the unchanged prefix of the previous one, so
    the scan costs O(b - a) factor steps.
    """
    if a >= b:
        return 0, 0, 0, 0
    edges = pf.edges
    states = [pf.start] * (n + 1)
    nums = [1] * (n + 1)
    dexps = [0] * (n + 1)

    def descend(frm, k):
        for i in range(frm, n):
            bit = (k >> (n - 1 - i)) & 1
            fnum, fdexp, nxt = edges[states[i]][classes[i]][bit]
            nums[i + 1] = nums[i] * fnum
            dexps[i + 1] = dexps[i] + fdexp
            states[i + 1] = nxt

    descend(0, a)
    s_num, s_dexp = 0, 0
    m_num, m_dexp = 0, 0
    k = a
    while True:
        p_num, p_dexp = nums[n], dexps[n]
        if p_num:
            if s_dexp < p_dexp:
                s_num <<= p_dexp - s_dexp
                s_dexp = p_dexp
            s_num += p_num << (s_dexp - p_dexp)
            if (p_num << m_dexp) > (m_num << p_dexp):
                m_num, m_dexp = p_num, p_dexp
        k += 1
        if k >= b:
            break
        descend(n - ((k ^ (k - 1)).bit_length()), k)
    return s_num, s_dexp, m_num, m_dexp


def inner_max_by_scan(d, f, x, n):
    """2^(|x|-n) * the largest d(y) over the depth-n cells y inside D_x, or
    0 when there are none: the left side of the inner-cell bound
    2^(|x|-|y|) d(y) <= lower(x; |y|), by the literal scan of the inside
    cells (``scan_sum_max``).  Product forms only."""
    inner_a, inner_b, _, _ = _cell_ranges(*word_image(f, x), n)
    pf = d.product_form
    _, _, m_num, m_dexp = scan_sum_max(pf, pf.classes(n), n, inner_a,
                                       inner_b)
    return Fraction(m_num << len(x), 1 << (m_dexp + n))


def savings_by_prefixes(mart, w):
    """The savings wrapper of ``mart`` at w, recomputed from all |w| + 1
    prefixes."""
    level = 0
    reserve = Fraction(0)
    mult = Fraction(1)
    v = mart.at(Word(0, 0))
    for i in range(len(w) + 1):
        if i > 0:
            v = mart.at(w.prefix(i))
        while v >= 1 << (level + 1):
            reserve += mult * v / 2
            mult /= 2
            level += 1
    return reserve + mult * v


def conservative_by_prefixes(mart, w):
    """The half-bet damping of ``mart`` at w, recomputed from all |w| + 1
    prefixes (product forms included: no factor-wise shortcut)."""
    v = mart.at(Word(0, 0))
    prev = v
    for i in range(1, len(w) + 1):
        cur = mart.at(w.prefix(i))
        rho = cur / prev if prev > 0 else Fraction(1)
        v *= (1 + rho) / 2
        prev = cur
    return v


def by_prefixes(wrappers, inner):
    """The oracle for ``wrappers`` (outermost first, each "savings" or
    "conservative") applied to ``inner``, every layer by prefix loops."""
    oracles = {"savings": savings_by_prefixes,
               "conservative": conservative_by_prefixes}
    mart = inner
    for kind in reversed(wrappers):
        mart = ExactMartingale(
            f"{kind}:{mart.name}",
            lambda w, fn=oracles[kind], below=mart: fn(below, w))
    return mart


def roundtrip_by_words(nu, depth):
    """``measure.roundtrip_check`` word by word: both ends of each word's
    interval telescoped afresh, every mass asked of ``nu`` again."""
    f = CumulativeFn(nu)
    violations = []
    checked = 0
    for n in range(depth + 1):
        for k in range(1 << n):
            w = Word(k, n)
            checked += 1
            back = differential(f, w)
            want = Fraction(nu.mass(w))
            if back != want:
                violations.append(Violation(str(w), "roundtrip",
                                            f"{back} != {want}"))
    return Report(f"measure round trip for {nu.name} (depth {depth})",
                  checked, violations)


def dual_roundtrip_by_points(fn, exp):
    """``measure.dual_roundtrip_check`` point by point, every increment
    mass computed again wherever the telescoping asks for it."""
    nu = DifferentialMeasure(fn)
    violations = []
    checked = 0
    for k in range((1 << exp) + 1):
        q = Dyadic(k, exp)
        checked += 1
        back = cumulative_point(nu, q)
        want = Fraction(fn.at_one() if q == Dyadic(1) else fn.at(q))
        if back != want:
            violations.append(Violation(str(q), "roundtrip",
                                        f"{back} != {want}"))
    return Report(f"function round trip for {fn.name} (grid 2^-{exp})",
                  checked, violations)


def verify_martingale_by_words(mart, depth):
    """``martingale.verify_martingale`` word by word: a word's value is
    asked of ``mart.at`` again as a child and as a parent."""
    violations = []
    checked = 0
    root = mart.at(Word(0, 0))
    if root > 1:
        violations.append(Violation("λ", "root",
                                    f"d(λ) = {root} exceeds 1"))
    for w in all_words(depth):
        v = mart.at(w)
        checked += 1
        if v < 0:
            violations.append(Violation(str(w), "nonneg", f"d = {v}"))
        pair = mart.at(w.append(0)) + mart.at(w.append(1))
        if 2 * v != pair:
            violations.append(Violation(
                str(w), "identity", f"d = {v}, children average {pair / 2}"))
    return Report(f"martingale identity for {mart.name} (depth {depth})",
                  checked, violations)


def verify_conservative_by_words(mart, depth):
    """``martingale.verify_conservative`` word by word."""
    violations = []
    checked = 0
    for w in all_words(depth):
        v = mart.at(w)
        checked += 1
        if v > Fraction(3, 2) ** len(w):
            violations.append(Violation(str(w), "cap",
                                        f"d = {v} > (3/2)^{len(w)}"))
        if len(w) < depth:
            for bit in (0, 1):
                child = mart.at(w.append(bit))
                if not v / 2 <= child <= v * Fraction(3, 2):
                    violations.append(Violation(
                        str(w.append(bit)), "ratio",
                        f"parent {v}, child {child}"))
    return Report(f"conservative bounds for {mart.name} (depth {depth})",
                  checked, violations)


def domination_by_words(base, depth):
    """``verify._domination`` word by word in Fractions: d(w)^2 against
    base(w) base(λ), each value asked of ``at`` again."""
    d = conservative_transform(base)
    violations = []
    checked = 0
    root = base.at(Word(0, 0))
    for w in all_words(min(depth, 8)):
        checked += 1
        if d.at(w) ** 2 < base.at(w) * root:
            violations.append(Violation(str(w), "domination", d.name))
    return Report("square-domination of the damped transform", checked,
                  violations)


def cell_ranges_by_fractions(lo, hi, n):
    """``pullback._cell_ranges`` in Fractions: the ends scaled by 2^n,
    then floor and ceil of the results."""
    scale = 1 << n
    left = Fraction(lo) * scale
    right = Fraction(hi) * scale
    inner_a = max(0, math.ceil(left))
    inner_b = min(scale, math.floor(right - 1) + 1)
    touch_a = max(0, math.ceil(left - 1))
    touch_b = min(scale, math.floor(right) + 1)
    return inner_a, max(inner_a, inner_b), touch_a, touch_b


def table_at_by_fractions(table, q):
    """``TableStepFn.at`` in Fractions: the value at floor(q 2^grid)."""
    qf = Fraction(q)
    if not 0 <= qf <= 1:
        raise ValueError(f"{q} outside [0, 1]")
    return table.values[math.floor(qf * (1 << table.grid))]


def exponent_pred_succ(q):
    """(exponent, predecessor, successor) of a dyadic in [0, 1].

    The endpoints have exponent 0 and no neighbors (None, None).  For
    q = 0.y1: pred = 0.y, and succ = 1 when y is all ones, else 0.z1 where
    y = z 0 1^k.
    """
    q = Dyadic(q)
    if not Dyadic(0) <= q <= Dyadic(1):
        raise ValueError(f"{q} outside [0, 1]")
    if q == Dyadic(0) or q == Dyadic(1):
        return 0, None, None
    e = q.exp
    y = Word(q.num >> 1, e - 1)  # q = 0.y1
    pred = y.value()
    if y.is_all_ones():
        succ = Dyadic(1)
    else:
        # strip trailing ones, then the final 0 becomes a 1
        k, n = y.k, y.n
        while k & 1:
            k >>= 1
            n -= 1
        succ = Dyadic((k | 1), n)
    return e, pred, succ


def patch_reference(f, q, _memo=None):
    """Exact monotone patch g(q) at one point, by the defining recursion
    g(q) = max(g(pred q), min(g(succ q), f(q))); f must be exactly
    evaluable on all dyadics of exponent <= e_q.

    Evaluates the recursion with an explicit stack, so the depth of Python
    calls does not grow with e_q.
    """
    q = Dyadic(q)
    memo = {} if _memo is None else _memo
    stack = [q]
    while stack:
        p = stack[-1]
        if p in memo:
            stack.pop()
            continue
        e, pred, succ = exponent_pred_succ(p)
        if e == 0:
            memo[p] = Fraction(f.at_one() if p == Dyadic(1) else f.at(p))
            stack.pop()
            continue
        pending = [t for t in (succ, pred) if t not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[p] = max(memo[pred], min(memo[succ], Fraction(f.at(p))))
        stack.pop()
    return memo[q]


def decimal_by_digits(q, digits):
    """``cli.decimal_str`` one long-division step per digit: the
    expansion of q truncated toward zero."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole = q.numerator // q.denominator
    rem = q.numerator - whole * q.denominator
    out = []
    for _ in range(digits):
        rem *= 10
        out.append(str(rem // q.denominator))
        rem -= (rem // q.denominator) * q.denominator
    return f"{sign}{whole}.{''.join(out)}"


def verify_measure_by_words(nu, depth):
    """``measure.verify_measure`` word by word: each word's children asked
    of ``nu.mass`` again."""
    root = nu.mass(Word(0, 0))
    violations = [] if Fraction(root) == 1 else [
        Violation("λ", "total", f"mass(λ) = {root}")]
    checked = 1
    for w in all_words(depth - 1):
        checked += 1
        lhs = Fraction(nu.mass(w))
        rhs = Fraction(nu.mass(w.append(0))) + Fraction(nu.mass(w.append(1)))
        if lhs != rhs:
            violations.append(Violation(str(w), "additivity",
                                        f"{lhs} != {rhs}"))
        if not 0 <= lhs <= 1:
            violations.append(Violation(str(w), "range", f"{lhs}"))
    return Report(f"measure axioms for {nu.name} (depth {depth})", checked,
                  violations)


class BoundCheck(namedtuple("BoundCheck", "ok lhs rhs label")):
    """Outcome of one exact inequality check, both sides included."""

    __slots__ = ()

    def line(self):
        rel = ">=" if self.ok else "<"
        return f"{self.label}: {self.lhs} {rel} {self.rhs}"


def verify_strong_ratio(zset, x, n):
    """Single-point check of the step bound
    fz(x + 2^-n) - fz(x) >= 2^(-c(n)-n) for dyadic x, in rationals."""
    if not isinstance(zset, CensusSet):
        zset = CensusSet.parse(zset)
    x = Dyadic(x)
    step = Dyadic(1, n)
    if not (Dyadic(0) <= x and x + step < Dyadic(1)):
        raise ValueError("need x and x + 2^-n inside [0, 1)")
    fn = ZeroInsertionFn(zset)
    lhs = fn.at(x + step) - fn.at(x)
    rhs = Fraction(1, 1 << (zset.census(n) + n))
    return BoundCheck(lhs >= rhs, lhs, rhs,
                      f"step bound z={zset.name} x={x} n={n}")


def ceil_neg_lg(t):
    """Smallest integer n with 2^-n <= t, for rational t in (0, 1]."""
    t = Fraction(t)
    if not 0 < t <= 1:
        raise ValueError("need 0 < t <= 1")
    return exact_ceil_lg(1 / t)


def verify_ratio(zset, x, y):
    """Single-point check of the slope bound for dyadic 0 <= x < y < 1:
    (fz(y) - fz(x)) / (y - x) > 2^(-c(n)-1) with n = ⌈-lg(y-x)⌉, in
    rationals."""
    if not isinstance(zset, CensusSet):
        zset = CensusSet.parse(zset)
    x = Dyadic(x)
    y = Dyadic(y)
    if not Dyadic(0) <= x < y < Dyadic(1):
        raise ValueError("need 0 <= x < y < 1")
    fn = ZeroInsertionFn(zset)
    gap = Fraction(y - x)
    n = ceil_neg_lg(gap)
    lhs = (fn.at(y) - fn.at(x)) / gap
    rhs = Fraction(1, 1 << (zset.census(n) + 1))
    return BoundCheck(lhs > rhs, lhs, rhs,
                      f"slope bound z={zset.name} x={x} y={y}")


def nondyadic_bettor(name="thirds"):
    """A function-backed fair strategy whose values leave the dyadics:
    factors (1/3, 5/3) at positions 0 mod 3, (3/2, 1/2) at 1 mod 3 and
    (0, 2) at 2 mod 3, so capital also hits zero."""
    factors = ((Fraction(1, 3), Fraction(5, 3)),
               (Fraction(3, 2), Fraction(1, 2)),
               (Fraction(0), Fraction(2)))

    def value(w):
        v = Fraction(1)
        for i, bit in enumerate(w):
            v *= factors[i % 3][bit]
        return v

    return ExactMartingale(name, value)


def fair_factor_pairs():
    """Dyadic (f0, f1) with f0 + f1 == 2, factors in [0, 2]."""
    def build(num, dexp):
        # f0 = num / 2^dexp <= 2, f1 = 2 - f0
        f0 = (num, dexp)
        f1 = ((2 << dexp) - num, dexp)
        return f0, f1
    return st.tuples(st.integers(0, 8), st.just(2)).map(
        lambda t: build(min(t[0], 8), t[1]))


@st.composite
def random_product_forms(draw):
    """Fair product forms: 1-3 states, 1-2 classes with a period of at
    most 4, factors k/4 in [0, 2] (zero factors included)."""
    n_states = draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 2))
    edges = []
    for _ in range(n_states):
        per_state = []
        for _ in range(n_classes):
            (n0, d0), (n1, d1) = draw(fair_factor_pairs())
            nxt0 = draw(st.integers(0, n_states - 1))
            nxt1 = draw(st.integers(0, n_states - 1))
            per_state.append(((n0, d0, nxt0), (n1, d1, nxt1)))
        edges.append(tuple(per_state))
    period = draw(st.integers(1, 4))
    cls_of = lambda i: (i % period) % n_classes
    return ProductForm(tuple(edges), 0, cls_of)


def pullback_by_words(d_hat, f_hat, x, r):
    """The pullback value with the cover asked of ``d_hat.query`` one word
    at a time, as for every approximator without ``cover_replies``: the
    oracle for the block walk's whole-cover replies."""
    by_words = ApproxMartingale(d_hat.name, d_hat.query,
                                conservative=d_hat.conservative)
    return pullback_approx(by_words, f_hat, x, r)


class NoisyWeakFn:
    """Adversarial weak approximator: exact value +/- exactly 2^-r.

    The sign is a deterministic function of the query so reruns agree.
    """

    has_one = True

    def __init__(self, oracle):
        self.oracle = oracle
        self.name = f"noisy({oracle.name})"

    def _sign(self, w, r):
        return 1 if (bin(w.k).count("1") + len(w) + r) % 2 == 0 else -1

    def query(self, w, r):
        exact = Fraction(self.oracle.at(w.value()))
        return exact + self._sign(w, r) * Fraction(1, 1 << r)

    def query_one(self, r):
        exact = Fraction(self.oracle.at_one())
        return exact + (1 if r % 2 == 0 else -1) * Fraction(1, 1 << r)


class NoisyApproxMartingale:
    """Adversarial martingale approximator: exact +/- exactly 2^-r."""

    def __init__(self, mart):
        self.mart = mart
        self.name = f"noisy({mart.name})"

    @property
    def conservative(self):
        return self.mart.conservative

    def query(self, w, r):
        exact = Fraction(self.mart.at(w))
        sign = 1 if (w.k + w.n + r) % 2 == 0 else -1
        return exact + sign * Fraction(1, 1 << r)


def _hashed_sign(*key):
    """A deterministic +1/-1 from a tuple of nonnegative ints."""
    h = 0x9E3779B97F4A7C15
    for part in key:
        h = ((h ^ part) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
        h ^= h >> 31
    return 1 if h & 1 else -1


def noisy_spec(spec):
    """The series spec with every coefficient and center reply at
    precision e off by exactly 2^-e, the sign hashed from the query: the
    extreme replies the 2^-e contracts allow."""
    coeff, center = spec.coeff_approx, spec.center_approx
    return dataclasses.replace(
        spec, name=f"noisy({spec.name})",
        coeff_approx=lambda n, e: Fraction(coeff(n, e)) +
        Fraction(_hashed_sign(1, n, e), 1 << e),
        center_approx=lambda e: Fraction(center(e)) +
        Fraction(_hashed_sign(2, e), 1 << e))


def exp_interval(t, terms=60):
    """[lo, hi] containing exp(t) for rational t in [0, 1], exact."""
    t = Fraction(t)
    s = Fraction(0)
    term = Fraction(1)
    for n in range(terms):
        s += term
        term = term * t / (n + 1)
    # remaining tail < term * sum (1/ (terms+1))^i <= term * 2 for t <= 1
    return s, s + 2 * term


def sin_interval(t, terms=40):
    """[lo, hi] containing sin(t); alternating series remainder bound."""
    t = Fraction(t)
    s = Fraction(0)
    term = t
    n = 1
    for _ in range(terms):
        s += term
        term = -term * t * t / ((n + 1) * (n + 2))
        n += 2
    lo, hi = sorted((s, s + term))
    return lo, hi


def cos_interval(t, terms=40):
    t = Fraction(t)
    s = Fraction(0)
    term = Fraction(1)
    n = 0
    for _ in range(terms):
        s += term
        term = -term * t * t / ((n + 1) * (n + 2))
        n += 2
    lo, hi = sorted((s, s + term))
    return lo, hi


def ln1p_interval(t, terms=80):
    """[lo, hi] containing ln(1+t) for rational 0 <= t <= 1/2."""
    t = Fraction(t)
    s = Fraction(0)
    term = t
    for n in range(1, terms + 1):
        s += term / n
        term = -term * t
    lo, hi = sorted((s, s + term / (terms + 1)))
    return lo, hi


def horner(coeffs, t):
    """sum c_i t^i, exactly: Horner's rule over Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def in_interval(v, lo, hi, slack):
    """Distance from v to [lo, hi] is at most slack."""
    return lo - slack <= v <= hi + slack


def dyadic_grid(exp):
    """All dyadics k/2^exp in [0, 1]."""
    return [Dyadic(k, exp) for k in range((1 << exp) + 1)]


def tail_constants_reference(C, radius, margin):
    """(k, l) of ``tail_constants`` over Fractions: k = ceil(lg(C (r+eps)
    / eps)) and l the least l >= 1 with ((r+eps)/r)^l >= 2, found by
    multiplying the ratio up."""
    C, radius, margin = Fraction(C), Fraction(radius), Fraction(margin)
    if C < 1 or radius <= 0 or margin <= 0:
        raise ValueError("need C >= 1, radius > 0, margin > 0")
    ratio = (radius + margin) / radius
    ell, acc = 1, ratio
    while acc < 2:
        acc *= ratio
        ell += 1
    return exact_ceil_lg(C * (radius + margin) / margin), ell

def validate_reference(spec):
    """``PowerSeriesSpec.validate`` by its defining loop: every term
    t_n = |c_n| (r + eps)^n up to the last one either check reads is a
    ``Fraction``, a polynomial's zeros past its degree included, and the
    checks compare them in order.  True, or the same ``ValueError``."""
    if spec.exact_coeff is None:
        raise ValueError(f"{spec.name}: no exact coefficients to check")
    base = spec.radius + spec.margin
    count = max(analytic.EXPLICIT_TO,
                spec.tail_monotone_from + analytic.WINDOW) + 3
    t = [abs(Fraction(spec.exact_coeff(n))) * base ** n
         for n in range(count)]
    for n in range(analytic.EXPLICIT_TO + 1):
        if t[n] > spec.term_bound:
            raise ValueError(f"{spec.name}: term bound fails at n={n}: "
                             f"{t[n]} > {spec.term_bound}")
    for n in range(spec.tail_monotone_from,
                   spec.tail_monotone_from + analytic.WINDOW):
        if t[n + 2] > t[n]:
            raise ValueError(f"{spec.name}: tail not two-step monotone "
                             f"at n={n}")
    if spec.exact_center is not None:
        lo, hi = (Fraction(q) for q in gamma(spec.anchor))
        reach = max(abs(lo - spec.exact_center), abs(hi - spec.exact_center))
        if reach > spec.radius:
            raise ValueError(f"{spec.name}: anchor reaches {reach} "
                             f"beyond radius {spec.radius}")
    return True


def find_root_reference(spec, interval, p):
    """``find_root`` as a bisection of ``Dyadic`` brackets: each probe is a
    call of ``analytic.certified_sign``, looked up at call time so that a
    recorder patched over it sees the probes, and all of them share one
    level table.  The same probes in the same order, the same root and the
    same error texts as ``find_root``."""
    lo, hi = (q if isinstance(q, Dyadic) else Dyadic.parse(str(q))
              for q in interval)
    if not lo < hi:
        raise ValueError("empty interval")
    table = analytic._LevelTable(spec)

    def sign(t):
        return analytic.certified_sign(spec, t, p, _table=table)

    s_lo = sign(lo)
    s_hi = sign(hi)
    if s_lo == 0 or s_hi == 0:
        raise SignUndecidableError(
            f"sign-undecidable at an endpoint of [{lo}, {hi}]")
    if s_lo == s_hi:
        raise ValueError(f"no certified sign change on [{lo}, {hi}]")

    width_goal = Dyadic(1, p - 1) if p >= 1 else Dyadic(2 << -p)
    while hi - lo > width_goal:
        mid = (lo + hi).half()
        s_mid = sign(mid)
        if s_mid == s_lo:
            lo = mid
            continue
        if s_mid == s_hi:
            hi = mid
            continue
        quarter = (hi - lo).half().half()
        q1 = lo + quarter
        q2 = hi - quarter
        s1 = sign(q1)
        s2 = sign(q2)
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
