"""Real-function contracts: exact-on-dyadics oracles and weak approximators.

Two roles appear throughout the package:

- :class:`FnOracle` -- exact evaluation at dyadic points of [0, 1] (plus,
  when available, an exact value at 1).  Used as the ground truth for
  interval shifts, patching and measure bridging.
- :class:`WeakFn` -- the approximation contract ``query(w, r)`` returning a
  rational within 2^-r of f(0.w).  No continuity is implied; the contract
  speaks only about dyadic points.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import Dyadic, Word, gamma, parse_rational
from .errors import ParseError


class FnOracle:
    """Exact function on the dyadics of [0, 1].

    ``at`` accepts a Dyadic (or dyadic Fraction) in [0, 1] and returns an
    exact rational.  ``at_one`` is split out because several families define
    the value at 1 separately (or not at all: ``has_one`` is False then).
    """

    name = "fn"
    monotone = False
    has_one = True

    def at(self, q):
        raise NotImplementedError

    def at_one(self):
        return self.at(Dyadic(1))

    def at_word(self, w):
        return self.at(w.value())


def word_image(f, w):
    """Exact (f(0.w), f(0.w + 2^-|w|)) as Fractions: f at the ends of the
    interval of w, through ``at_one()`` for w = 1^n.  No monotone check."""
    lo, hi = gamma(w)
    return (Fraction(f.at(lo)),
            Fraction(f.at_one() if w.is_all_ones() else f.at(hi)))


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
        word of one fixed length must be present; an optional "1 p/q" line
        sets the value at the right endpoint (defaults to the last cell).
        Values parse as ``parse_rational``: a bad one is a ParseError
        naming its line."""
        entries = {}
        at_one = None
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
                    at_one = value
                    continue
                try:
                    w = Word.parse(word_text)
                except ParseError as exc:
                    raise ParseError(str(exc), line=lineno) from None
                entries[w] = value
        if not entries:
            raise ParseError("empty table")
        grid = max(len(w) for w in entries)
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
    """Approximation contract |query(w, r) - f(0.w)| <= 2^-r."""

    def __init__(self, name, query_fn, query_one_fn=None):
        self.name = name
        self._query = query_fn
        self._query_one = query_one_fn

    def query(self, w, r):
        return Fraction(self._query(w, r))

    @property
    def has_one(self):
        return self._query_one is not None

    def query_one(self, r):
        """Approximator for the value at 1 (separate contract)."""
        if self._query_one is None:
            raise ValueError(f"{self.name} has no approximator at 1")
        return Fraction(self._query_one(r))


def as_weak(oracle):
    """Exact-backed approximator: returns the true value at any precision.

    At 1 it answers with the exact value when the oracle has one, else
    with the oracle's ``approx_at_one(r)`` (within 2^-r) when it declares
    one, else not at all (``has_one`` is False).
    """
    query_one = (lambda r: oracle.at_one()) if oracle.has_one else \
        getattr(oracle, "approx_at_one", None)
    return WeakFn(oracle.name, lambda w, r: oracle.at_word(w),
                  query_one_fn=query_one)
