"""Monotonization of a function on the dyadics by priority clamping.

Every dyadic q in (0, 1) has a unique shortest expansion q = 0.y1; its
*exponent* e_q = |y| + 1 measures how coarse the grid containing q is, and
its neighbors pred(q) < q < succ(q) are the closest dyadics of strictly
smaller exponent.  Giving coarser points priority, the monotone patch of f
is

    g(0) = f(0),  g(1) = f(1),
    g(q) = max(g(pred(q)), min(g(succ(q)), f(q)))

which keeps f's value wherever that respects the already-fixed coarser
values and clamps minimally otherwise.  The recursion is well founded
because both neighbors have smaller exponent.

``patch_table`` evaluates g exactly on a whole grid, sweeping it coarsest
exponent first; the tests keep the single-point recursion as its oracle.
``patch_approx`` is the one-pass approximation: it walks the bits of the
input, maintaining running approximations (lo, hi) of g at the bracketing
neighbors, and needs one f-query per bit at the target precision only --
max/min of values known within 2^-r stay within 2^-r.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import Dyadic, Word, fmt_rational
from .report import Report, Violation


def patch_table(f, exp):
    """g on the whole 2^-exp grid, as a list indexed by k.

    Sweeps the grid coarsest exponent first: the points of exponent e are
    the odd multiples k of step = 2^(exp-e), and their neighbors
    pred = k - step and succ = k + step have smaller exponent, so both are
    set before k.  One f-query per grid point.
    """
    g = [None] * ((1 << exp) + 1)
    g[0] = Fraction(f.at(Dyadic(0)))
    g[-1] = Fraction(f.at(Dyadic(1)))
    for e in range(1, exp + 1):
        step = 1 << (exp - e)
        for j in range(1, 1 << e, 2):
            k = j * step
            g[k] = max(g[k - step],
                       min(g[k + step], Fraction(f.at(Dyadic(j, e)))))
    return g


def patch_approx(f_weak, x, r):
    """Approximate g(0.x) within 2^-r using only approximate f-access.

    Walks the bits of x (trailing zeros first removed; they do not change
    the value) keeping ``lo ~ g(pred(0.s1))`` and ``hi ~ g(succ(0.s1))``
    within 2^-r for the current prefix s.  Each step folds in one f-query
    at an interior point, at precision r: max/min preserve the error bound,
    so no precision inflation is needed.  The invariant is this function's
    own accuracy on shorter words: ``lo`` is ``patch_approx`` of s, and
    ``hi`` is ``f_weak.query_one(r)`` when s is all ones, else
    ``patch_approx`` of z1 for s = z01^k.
    """
    x = x.strip_trailing_zeros()
    lo = f_weak.query(Word(0, 0), r)
    hi = f_weak.query_one(r)
    s = Word(0, 0)
    for i in range(len(x)):
        mid = max(lo, min(hi, f_weak.query(s.append(1), r)))
        if x[i] == 0:
            hi = mid
        else:
            lo = mid
        s = s.append(x[i])
    return lo


def strong_increase_check(f, g_at, x0, C, exp):
    """Exact two-sided check of (g(x) - f(x0)) / (x - x0) >= C on the whole
    2^-exp grid (x != x0); lists every violating grid point."""
    x0 = Dyadic(x0)
    C = Fraction(C)
    base = Fraction(f.at(x0))
    violations = []
    checked = 0
    for k in range((1 << exp) + 1):
        x = Dyadic(k, exp)
        if x == x0:
            continue
        checked += 1
        gap = Fraction(x) - Fraction(x0)
        lhs = g_at(x) - base
        # sign-aware cross-multiplication: lhs/gap >= C
        if gap > 0:
            ok = lhs >= C * gap
        else:
            ok = lhs <= C * gap
        if not ok:
            violations.append(Violation(fmt_rational(x), "slope",
                                        f"(g-f(x0))/(x-x0) = {lhs / gap} < {C}"))
    return Report(f"strong-increase check at x0={fmt_rational(x0)} "
                  f"grid 2^-{exp}", checked, violations)
