"""Independent answer checks for the analytic-roots workload.

A root x* returned to precision p is accepted when the function changes
sign across [x* - 2^-p, x* + 2^-p].  Polynomials are evaluated exactly;
exp, sin, cos and ln(1+t) get rational interval enclosures from their
Taylor series with an explicit remainder bound.  Nothing here comes from
the package under test, so a wrong root cannot pass by sharing its bug.
"""

from fractions import Fraction
from math import factorial

MAX_TERMS = 1024


def poly_value(coeffs, t):
    """Exact value of sum c_i t^i."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def series_enclosure(name, t, terms):
    """(lo, hi) with lo <= f(t) <= hi, from `terms` Taylor terms about 0.

    Valid for t in [0, 1] (exp, sin, cos) and t in [0, 1/2] (ln1p).
    """
    t = Fraction(t)
    if name == "exp":
        # remainder t^N/N! * e^xi with e^xi < 3 on [0, 1]; all terms >= 0
        total = sum((t ** n / factorial(n) for n in range(terms)), Fraction(0))
        return total, total + 3 * t ** terms / factorial(terms)
    if name in ("sin", "cos"):
        first = 1 if name == "sin" else 0
        total = Fraction(0)
        for n in range(first, terms, 2):
            sign = -1 if (n // 2) % 2 else 1
            total += sign * t ** n / factorial(n)
        # every derivative is bounded by 1 in absolute value
        slack = t ** terms / factorial(terms)
        return total - slack, total + slack
    if name == "ln1p":
        total = sum((Fraction((-1) ** (n + 1), n) * t ** n
                     for n in range(1, terms)), Fraction(0))
        # alternating series with decreasing terms for 0 <= t <= 1
        slack = t ** terms / terms
        return total - slack, total + slack
    raise ValueError(f"no enclosure for {name!r}")


def sign_at(inst, t):
    """Certified sign (+1, -1, or 0 for an exact zero) of f(t) - offset.

    Returns None when MAX_TERMS series terms cannot decide it.
    """
    offset = Fraction(inst["offset"]) if inst["offset"] else Fraction(0)
    family = inst["family"]
    if family == "poly":
        v = poly_value([Fraction(c) for c in inst["coeffs"]], t) - offset
        return (v > 0) - (v < 0)
    terms = 16
    while terms <= MAX_TERMS:
        lo, hi = series_enclosure(family, t, terms)
        if lo - offset > 0:
            return 1
        if hi - offset < 0:
            return -1
        terms *= 2
    return None


def root_enclosed(inst, root):
    """True when f - offset changes sign across root +- 2^-p.

    For an exactly known dyadic root, also require |root - true| <= 2^-p.
    """
    root = Fraction(root)
    delta = Fraction(1, 1 << inst["p"])
    left = sign_at(inst, root - delta)
    right = sign_at(inst, root + delta)
    if left is None or right is None or left * right > 0:
        return False
    if left == right == 0:
        return False
    if inst["root"] is not None:
        return abs(root - Fraction(inst["root"])) <= delta
    return True
