"""Real-function contracts: exact-on-dyadics oracles and weak approximators.

Two roles appear throughout the package:

- :class:`FnOracle` -- exact evaluation at the dyadic points of [0, 1],
  1 included: f(1) is ``at(1)``, and an oracle with no exact value at 1
  raises there.  Used as the ground truth for interval shifts, patching
  and measure bridging.
- :class:`WeakFn` -- the approximation contract ``query(w, r)`` returning a
  rational within 2^-r of f(0.w).  No continuity is implied; the contract
  speaks only about dyadic points.  The value at 1 comes only from
  ``query_one(r)``, a separate contract: with no approximator at 1 it
  raises, and nothing assumes f(1) = 1 instead.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import Dyadic, Word, gamma, parse_rational
from .errors import ParseError


class FnOracle:
    """Exact function on the dyadics of [0, 1].

    ``at`` accepts a Dyadic (or dyadic Fraction) in [0, 1], 1 included,
    and returns an exact rational; an oracle with no exact value at 1
    raises there.  ``approx_at_one(r)`` is the value at 1 within 2^-r:
    ``at(1)`` unless the oracle has no exact one.
    """

    name = "fn"
    monotone = False

    def at(self, q):
        raise NotImplementedError

    def at_one(self):
        """``at(1)``, under the name callers outside the package use."""
        return self.at(Dyadic(1))

    def approx_at_one(self, r):
        return self.at(Dyadic(1))


def word_image(f, w):
    """Exact (f(0.w), f(0.w + 2^-|w|)) as Fractions: f at the ends of the
    interval of w.  No monotone check."""
    lo, hi = gamma(w)
    return Fraction(f.at(lo)), Fraction(f.at(hi))


class IdentityFn(FnOracle):
    name = "identity"
    monotone = True

    def at(self, q):
        return Fraction(q)


class AffineFn(FnOracle):
    """x -> 2**j * x + a, exactly; monotone ascending for every j."""

    monotone = True

    def __init__(self, j, a):
        self.j = j
        self.a = Dyadic(a)
        self.name = f"affine:{j},{self.a}"

    def at(self, q):
        return Fraction(q) * Fraction(2) ** self.j + Fraction(self.a)


class TableStepFn(FnOracle):
    """Left-continuous step interpolation of values on the 2^-grid grid.

    ``values`` lists f(k/2^grid) for k = 0 .. 2^grid; between grid points
    the value of the cell's left endpoint is used.  Exact at every dyadic,
    monotone iff the table is nondecreasing.
    """

    def __init__(self, grid, values, name="table"):
        if len(values) != (1 << grid) + 1:
            raise ValueError(f"need {(1 << grid) + 1} values for grid "
                             f"exponent {grid}")
        self.grid = grid
        self.values = [Fraction(v) for v in values]
        self.name = name
        self.monotone = all(a <= b for a, b in
                            zip(self.values, self.values[1:]))

    def at(self, q):
        """The value of the cell of the rational ``q``: floor(q 2^grid),
        an integer division of its numerator, indexes ``values``."""
        num, den = q.numerator, q.denominator
        if not 0 <= num <= den:
            raise ValueError(f"{q} outside [0, 1]")
        return self.values[(num << self.grid) // den]

    @staticmethod
    def load(path):
        """Text format: one "word p/q" pair per line, '#' comments; every
        word of one fixed length, the first word's, must be present; an
        optional "1 p/q" line sets the value at the right endpoint
        (defaults to the last cell).  On the 2^-1 grid, whose words are
        "0" and "1", the "1" line is word 1 and the value at 1 is the last
        cell's.  Values parse as ``parse_rational``: a bad one, a word of
        another length, or a word or "1" line given a second time, is a
        ParseError naming its line."""
        entries = {}
        one = None              # (line, value) of the "1" line
        seen = {}               # the line of each word given
        grid = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError("expected 'word p/q'", line=lineno)
                word_text, value_text = parts
                try:
                    value = parse_rational(value_text.replace("−", "-"))
                except ParseError as exc:
                    raise ParseError(str(exc), line=lineno) from None
                if word_text == "1":
                    if one is not None:
                        what = "word 1" if grid == 1 else "the value at 1"
                        raise ParseError(f"{what} is given again (first on "
                                         f"line {one[0]})", line=lineno)
                    one = lineno, value
                    continue
                try:
                    key = Word.parse(word_text)
                except ParseError as exc:
                    raise ParseError(str(exc), line=lineno) from None
                if key in seen:
                    raise ParseError(f"word {key} is given again (first on "
                                     f"line {seen[key]})", line=lineno)
                seen[key] = lineno
                if grid is None:
                    grid = len(key)
                elif len(key) != grid:
                    raise ParseError(f"word {key} has length {len(key)}, "
                                     f"not the table's {grid}", line=lineno)
                entries[key] = value
        if not entries:
            raise ParseError("empty table")
        at_one = None if one is None else one[1]
        if grid == 1 and one is not None:
            entries[Word(1, 1)], at_one = at_one, None
        values = []
        for k in range(1 << grid):
            w = Word(k, grid)
            if w not in entries:
                raise ParseError(f"table is missing word {w}")
            values.append(entries[w])
        values.append(values[-1] if at_one is None else at_one)
        return TableStepFn(grid, values, name=f"table[{path}]")


class QuotientFn(FnOracle):
    """Rational function P(x)/Q(x) with exact rational coefficients.

    The caller certifies |Q| >= den_floor > 0 on [0, 1]; evaluation is then
    exact at every dyadic, which is why these are exposed as quotient
    evaluators rather than power series.
    """

    def __init__(self, num_coeffs, den_coeffs, den_floor, name="quotient"):
        self.num_coeffs = [Fraction(c) for c in num_coeffs]
        self.den_coeffs = [Fraction(c) for c in den_coeffs]
        self.den_floor = Fraction(den_floor)
        if self.den_floor <= 0:
            raise ValueError("den_floor must be positive")
        self.name = name

    def _poly(self, coeffs, x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def at(self, q):
        x = Fraction(q)
        den = self._poly(self.den_coeffs, x)
        if abs(den) < self.den_floor:
            raise ValueError(f"denominator {den} below certified floor "
                             f"{self.den_floor} at {x}")
        return self._poly(self.num_coeffs, x) / den


class WeakFn:
    """Approximation contract |query(w, r) - f(0.w)| <= 2^-r.

    Replies are ``Fraction``s: one from the approximator is passed through
    as it is, and any other value is converted."""

    def __init__(self, name, query_fn, query_one_fn=None):
        self.name = name
        self._query = query_fn
        self._query_one = query_one_fn

    def query(self, w, r):
        v = self._query(w, r)
        return v if type(v) is Fraction else Fraction(v)

    def query_one(self, r):
        """Approximator for the value at 1 (separate contract)."""
        if self._query_one is None:
            raise ValueError(f"{self.name} has no approximator at 1")
        v = self._query_one(r)
        return v if type(v) is Fraction else Fraction(v)


def as_weak(oracle):
    """Exact-backed approximator: returns the true value at any precision,
    and at 1 the oracle's ``approx_at_one(r)``, within 2^-r."""
    return WeakFn(oracle.name, lambda w, r: oracle.at(w.value()),
                  query_one_fn=oracle.approx_at_one)
