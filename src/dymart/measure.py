"""Probability measures on binary words and the cumulative-function bridge.

A measure assigns mass(w) in [0, 1] to every word with mass(λ) = 1 and
mass(w) = mass(w0) + mass(w1).  Its cumulative function at a dyadic point
q sums the mass strictly to the left of q at q's own resolution; by
additivity this telescopes along the path (one sibling-subtree per 1-bit),
which is how it is computed here.  Conversely, a monotone function f
with f(0) = 0 and f(1) = 1 induces the increment measure
mass_f(w) = f(0.w + 2^-|w|) - f(0.w).  The two constructions invert each
other exactly, word by word, which the round-trip checks verify.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import (EMPTY, Dyadic, Word, common_numerators, lcm_scales,
                     level_numerators)
from .funcs import FnOracle, word_image
from .report import Report, Violation


class ProbabilityMeasure:
    """mass: Word -> exact rational in [0, 1], additive, with total 1."""

    name = "measure"

    def mass(self, w):
        raise NotImplementedError


class UniformMeasure(ProbabilityMeasure):
    name = "uniform"

    def mass(self, w):
        return Fraction(1, 1 << len(w))


class ProductMeasure(ProbabilityMeasure):
    """Independent bits; p0 is the probability of a 0 bit."""

    def __init__(self, p0):
        self.p0 = Fraction(p0)
        if not 0 <= self.p0 <= 1:
            raise ValueError("bit probability outside [0, 1]")
        self.name = f"product:{self.p0}"

    def mass(self, w):
        ones = bin(w.k).count("1")
        zeros = len(w) - ones
        return self.p0 ** zeros * (1 - self.p0) ** ones


class DifferentialMeasure(ProbabilityMeasure):
    """Increment measure of a monotone function with f(0)=0, f(1)=1."""

    def __init__(self, fn):
        if not fn.monotone:
            raise ValueError(f"{fn.name} is not flagged monotone")
        if Fraction(fn.at(Dyadic(0))) != 0 or Fraction(fn.at(Dyadic(1))) != 1:
            raise ValueError(f"{fn.name} must have f(0) = 0 and f(1) = 1")
        self.fn = fn
        self.name = f"from_function:{fn.name}"

    def mass(self, w):
        return differential(self.fn, w)


def differential(fn, w):
    """Exact increment of fn across the interval of w; fn need not be
    monotone."""
    lo, hi = word_image(fn, w)
    return hi - lo


def cumulative(nu, x):
    """Mass strictly left of 0.x among words of length |x|, telescoped.

    Exactly sum(nu.mass(y) for |y| = |x|, 0.y < 0.x) when nu is additive;
    the telescoped form charges one left-sibling subtree per 1-bit of x.
    The masses are added as they come, and the total is one ``Fraction``.
    """
    total = 0
    for i in range(len(x)):
        if x[i]:
            total += nu.mass(x.prefix(i).append(0))
    return Fraction(total)


def cumulative_point(nu, q):
    """The cumulative function at a dyadic point of [0, 1]."""
    q = Dyadic(q)
    if q == Dyadic(1):
        return Fraction(nu.mass(Word(0, 0)))
    return cumulative(nu, Word.from_point(q))


class CumulativeFn(FnOracle):
    """The cumulative function of a measure, as an exact monotone oracle."""

    monotone = True

    def __init__(self, nu):
        self.nu = nu
        self.name = f"cumulative:{nu.name}"

    def at(self, q):
        return cumulative_point(self.nu, q)


def verify_measure(nu, depth):
    """Exact additivity and total-mass checks down to the given depth.

    Masses are swept level by level, one ``mass`` per word, as integer
    numerators over a common denominator (``level_numerators``): the
    children of entry k are entries 2k and 2k + 1 of the next level, and
    the checks are p up == (c0 + c1) down (``lcm_scales``) and
    0 <= p <= den.  A ``Fraction`` is built only for a violation's text.
    """
    violations = []
    checked = 1
    root = nu.mass(EMPTY)
    level, den = common_numerators([root])
    if level[0] != den:
        violations.append(Violation("λ", "total", f"mass(λ) = {root}"))
    for n in range(depth):
        below, den_below = level_numerators(nu.mass, n + 1)
        up, down = lcm_scales(den, den_below)
        checked += len(level)
        for k, p in enumerate(level):
            pair = below[2 * k] + below[2 * k + 1]
            if p * up != pair * down:
                violations.append(Violation(
                    str(Word(k, n)), "additivity",
                    f"{Fraction(p, den)} != {Fraction(pair, den_below)}"))
            if not 0 <= p <= den:
                violations.append(Violation(str(Word(k, n)), "range",
                                            f"{Fraction(p, den)}"))
        level, den = below, den_below
    return Report(f"measure axioms for {nu.name} (depth {depth})", checked,
                  violations)


class _MemoMeasure(ProbabilityMeasure):
    """A measure's masses, each computed once per word."""

    def __init__(self, nu):
        self.nu = nu
        self.name = nu.name
        self._mass = {}

    def mass(self, w):
        v = self._mass.get(w)
        if v is None:
            v = self._mass[w] = Fraction(self.nu.mass(w))
        return v


def roundtrip_check(nu, depth):
    """mass -> cumulative -> increments must reproduce mass exactly.

    Per level n the cumulative function is evaluated once at each of the
    2^n + 1 grid points, and every mass is computed once per word."""
    nu = _MemoMeasure(nu)
    f = CumulativeFn(nu)
    violations = []
    checked = 0
    for n in range(depth + 1):
        grid = [f.at(Dyadic(k, n)) for k in range((1 << n) + 1)]
        for k in range(1 << n):
            w = Word(k, n)
            checked += 1
            back = grid[k + 1] - grid[k]
            want = nu.mass(w)
            if back != want:
                violations.append(Violation(str(w), "roundtrip",
                                            f"{back} != {want}"))
    return Report(f"measure round trip for {nu.name} (depth {depth})",
                  checked, violations)


def dual_roundtrip_check(fn, exp):
    """f -> increments -> cumulative must reproduce f on the 2^-exp grid;
    every increment mass is computed once per word."""
    nu = _MemoMeasure(DifferentialMeasure(fn))
    violations = []
    checked = 0
    for k in range((1 << exp) + 1):
        q = Dyadic(k, exp)
        checked += 1
        back = cumulative_point(nu, q)
        want = Fraction(fn.at(q))
        if back != want:
            violations.append(Violation(str(q), "roundtrip",
                                        f"{back} != {want}"))
    return Report(f"function round trip for {fn.name} (grid 2^-{exp})",
                  checked, violations)
