"""Exact dyadic-rational arithmetic, binary words, and dyadic intervals.

Everything here is exact: a ``Dyadic`` is ``num / 2**exp`` with arbitrary
precision integers, a ``Word`` is a finite bit string ``w`` standing both for
the rational ``0.w`` and for the closed interval ``[0.w, 0.w + 2^-|w|]``, and
there is no floating point anywhere.  General (non power-of-two denominator)
rationals are handled by ``fractions.Fraction``; ``Dyadic`` interoperates
with it transparently.
A ``Cover`` is the package's one generic tiling of an index range into
its maximal aligned blocks, made one word at a time: the prefix-minimal
cover of a grid interval (``minimal_cover``).
``common_numerators`` puts exact rationals over one common denominator,
and ``level_numerators`` so reads one level of a function on words.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from fractions import Fraction

from .errors import ParseError

_WORD_RE = re.compile(r"[01]*\Z")
_RAT_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z")


def _decimal_int(digits):
    """int(digits) for a decimal digit string, as a ParseError when it is
    longer than Python's str->int digit limit.  The limit stays: the
    conversion is quadratic in the digit count."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits.lstrip('-'))} digits is "
                         f"above the limit of "
                         f"{sys.get_int_max_str_digits()} digits") from None


class Dyadic:
    """A rational of the form ``num / 2**exp``, kept in lowest terms.

    ``Dyadic(q, exp)`` is q / 2**exp for an int, a ``Dyadic`` or any other
    rational whose denominator is a power of two: the package's one way
    to turn a dyadic into a ``Dyadic``.  Any other rational raises
    ``ValueError``, and a non-rational (a float, a str) ``TypeError``.

    Canonical form: ``exp >= 0`` and ``gcd(num, 2**exp) == 1``, i.e. the
    numerator is odd whenever ``exp > 0``; zero is ``(0, 0)``.  Equality is
    therefore structural and hashing cheap.  Addition, subtraction,
    negation, halving, comparison and min/max are closed and exact.  The
    operand rule is the same in both orders: ``+`` and ``-`` take an
    ``int``, a ``Dyadic`` or a ``Fraction`` (a ``Dyadic`` with the first
    two, a ``Fraction`` with the last); ``*``, ``/``, ``//``, ``%``,
    ``divmod`` and ``**`` raise ``TypeError`` (except ``Fraction **
    Dyadic``, which ``Fraction`` answers itself for an integral exponent).
    A caller that needs a product or a quotient converts to ``Fraction``
    first.  The class defines no ``__float__``, ``__index__``,
    ``__round__`` or ``__floor__``, so ``float()``, ``round()`` and
    ``math.floor``/``ceil``/``trunc`` raise ``TypeError``: the core stays
    float-free.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num, exp=0):
        if type(num) is not int:
            if isinstance(num, Dyadic):
                num, exp = num.num, num.exp + exp
            elif isinstance(num, numbers.Rational):
                den = num.denominator
                if den & (den - 1):
                    raise ValueError(f"{num} is not a dyadic rational")
                num, exp = num.numerator, exp + den.bit_length() - 1
            else:
                raise TypeError(f"{num!r} is not a rational")
        if exp < 0:
            num <<= -exp
            exp = 0
        if not num:
            exp = 0
        elif exp and not num & 1:
            # strip common factors of two; an odd numerator (num & 1 reads
            # one digit) is already in lowest terms
            tz = (num & -num).bit_length() - 1
            if tz > exp:
                tz = exp
            num >>= tz
            exp -= tz
        _set_num(self, num)
        _set_exp(self, exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def parse(text):
        """Parse "p", "p/q" (q a power of two) or a binary "0.bits" form."""
        text = text.strip()
        if text.startswith("0.") and _WORD_RE.match(text[2:]):
            bits = text[2:]
            return Dyadic(int(bits, 2) if bits else 0, len(bits))
        m = _RAT_RE.match(text)
        if not m:
            raise ParseError(f"cannot parse rational {text!r}")
        p = _decimal_int(m.group(1))
        q = _decimal_int(m.group(2)) if m.group(2) else 1
        if q == 0 or q & (q - 1):
            raise ParseError(f"{text!r} is not a dyadic rational "
                             "(denominator must be a positive power of two)")
        return Dyadic(p, q.bit_length() - 1)

    # -- Rational protocol -------------------------------------------------

    @property
    def numerator(self):
        return self.num

    @property
    def denominator(self):
        return 1 << self.exp

    def as_fraction(self):
        return Fraction(self.num, 1 << self.exp)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Fraction):
                return self.as_fraction() + other
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Fraction):
                return self.as_fraction() - other
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Fraction):
                return other - self.as_fraction()
            return NotImplemented
        return o - self

    def _no_product(self, *other):
        raise TypeError("Dyadic has no product, quotient or power; "
                        "convert to Fraction first")

    # raising, not NotImplemented: Fraction's reflected operators would
    # answer for a registered Rational
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _no_product
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _no_product
    __divmod__ = __rdivmod__ = __pow__ = __rpow__ = _no_product

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def half(self):
        return Dyadic(self.num, self.exp + 1)

    # -- comparisons -------------------------------------------------------

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (Fraction, numbers.Rational)):
                lhs = self.num * other.denominator
                rhs = other.numerator << self.exp
                return (lhs > rhs) - (lhs < rhs)
            return None
        e = max(self.exp, o.exp)
        lhs = self.num << (e - self.exp)
        rhs = o.num << (e - o.exp)
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        # must agree with Fraction/int hashing since we compare equal to them
        return hash(self.as_fraction())

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self):
        return f"{self.num}/{1 << self.exp}"

    def binary(self):
        """Binary positional rendering, e.g. 5/8 -> "0.101"."""
        if self.num < 0:
            return "-" + (-self).binary()
        whole = self.num >> self.exp
        frac = self.num - (whole << self.exp)
        if self.exp == 0:
            return str(whole)
        return f"{whole}.{frac:0{self.exp}b}"


# the slot setters, past the __setattr__ guard (cheaper than
# object.__setattr__: values are built once per cover word and per block)
_set_num, _set_exp = Dyadic.num.__set__, Dyadic.exp.__set__

# Registration (not subclassing) keeps the class free of the ABC's float
# protocol while letting Fraction compare against Dyadic exactly.
numbers.Rational.register(Dyadic)

ZERO = Dyadic(0)
ONE = Dyadic(1)


def _add_pairs(p0, q0, p, q):
    """p0/q0 + p/q as an integer pair over the lcm of q0 and q, found by
    one gcd."""
    g = math.gcd(q0, q)
    q0 //= g
    return p0 * (q // g) + p * q0, q0 * q


class _PairSum:
    """A running sum of rationals p/q (q > 0), added as a balanced tree of
    integer pairs and read as one ``Fraction``.

    The partial sums form a binary counter: a new pair merges with the
    partial sum on top while that one holds as many pairs, so k pairs keep
    at most log2(k) + 1 partial sums at once, and ``total`` adds those up
    from the top.  Every addition is over the lcm of its denominators, so
    a denominator never outgrows the lcm of the pairs' denominators; the
    ``Fraction``, built once, reduces the total.
    """

    __slots__ = ("stack",)

    def __init__(self):
        self.stack = []     # (p, q, pairs in it), halving towards the top

    def add(self, p, q):
        stack, count = self.stack, 1
        while stack and stack[-1][2] == count:
            p0, q0, _ = stack.pop()
            p, q = _add_pairs(p0, q0, p, q)
            count <<= 1
        stack.append((p, q, count))

    def total(self):
        if not self.stack:
            return Fraction(0)
        p, q, _ = self.stack[-1]
        for p0, q0, _ in reversed(self.stack[:-1]):
            p, q = _add_pairs(p0, q0, p, q)
        return Fraction(p, q)


def parse_rational(text):
    """Parse "p" or "p/q" into an exact Fraction (any denominator)."""
    m = _RAT_RE.match(text.strip())
    if not m:
        raise ParseError(f"cannot parse rational {text!r}")
    q = _decimal_int(m.group(2)) if m.group(2) else 1
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(_decimal_int(m.group(1)), q)


def fmt_rational(q):
    """Render an exact rational (Fraction, Dyadic or int) as "p/q" in
    lowest terms (denominator always shown), at any size: Python's limit on
    integer-to-decimal conversion (4300 digits by default, on the Pythons
    with ``sys.set_int_max_str_digits``) is lifted while formatting."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return f"{q.numerator}/{q.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)


class Word:
    """A finite binary string; doubles as the interval ``[0.w, 0.w+2^-|w|]``.

    Stored as ``(bits-as-integer, length)`` so leading zeros are significant:
    "0" and "00" are distinct words with distinct intervals.
    """

    __slots__ = ("k", "n")

    def __init__(self, k, n):
        if n < 0 or k < 0 or k >> n:
            raise ValueError(f"invalid word ({k}, {n})")
        _set_k(self, k)
        _set_n(self, n)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @staticmethod
    def parse(text):
        text = text.strip()
        if text in ("λ", "lambda", "-", ""):
            return EMPTY
        if not _WORD_RE.match(text):
            raise ParseError(f"word must be over {{0,1}}: {text!r}")
        return Word(int(text, 2), len(text))

    @staticmethod
    def from_point(q):
        """The shortest word w with 0.w == q."""
        d = Dyadic(q)
        if not (ZERO <= d < ONE):
            raise ValueError(f"no word has value {d}")
        return Word(d.num, d.exp)

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.k >> (self.n - 1 - i)) & 1

    def __iter__(self):
        for i in range(self.n):
            yield (self.k >> (self.n - 1 - i)) & 1

    def __eq__(self, other):
        return (isinstance(other, Word) and self.k == other.k
                and self.n == other.n)

    def __hash__(self):
        return hash((self.k, self.n))

    def __repr__(self):
        return f"Word({str(self)!r})"

    def __str__(self):
        return format(self.k, f"0{self.n}b") if self.n else "λ"

    def __add__(self, other):
        if isinstance(other, Word):
            return Word((self.k << other.n) | other.k, self.n + other.n)
        return NotImplemented

    def append(self, bit):
        return Word((self.k << 1) | (1 if bit else 0), self.n + 1)

    def prefix(self, length):
        return Word(self.k >> (self.n - length), length)

    def prefixes(self):
        """All prefixes from λ up to the word itself, in order."""
        return [self.prefix(i) for i in range(self.n + 1)]

    def is_all_ones(self):
        return self.k == (1 << self.n) - 1

    def strip_trailing_zeros(self):
        k, n = self.k, self.n
        if k == 0:
            return EMPTY
        tz = (k & -k).bit_length() - 1
        return Word(k >> tz, n - tz)

    def value(self):
        """The dyadic rational 0.w."""
        return Dyadic(self.k, self.n)


_set_k, _set_n = Word.k.__set__, Word.n.__set__
EMPTY = Word(0, 0)


def all_words(max_len):
    """Every word with |w| <= max_len, in (length, value) order."""
    for n in range(max_len + 1):
        for k in range(1 << n):
            yield Word(k, n)


def common_numerators(values):
    """The exact rationals ``values`` (``Dyadic``, ``Fraction`` or ``int``)
    as integer numerators over the lcm of their denominators: (nums, den)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def level_numerators(value, n):
    """``value`` of every depth-n word, in index order, asked once each, as
    ``common_numerators``: (nums, den)."""
    return common_numerators([value(Word(k, n)) for k in range(1 << n)])


def lcm_scales(den, den_below):
    """(up, down) with den up == den_below down == their lcm, so that
    p/den == c/den_below exactly when p up == c down."""
    g = math.gcd(den, den_below)
    return den_below // g, den // g


def gamma(w):
    """The closed dyadic interval [0.w, 0.w + 2^-|w|] of the word w as a
    (lo, hi) pair of Dyadics: the package's one derivation of it (series
    anchors, ``funcs.word_image``, the transfer witness)."""
    return Dyadic(w.k, w.n), Dyadic(w.k + 1, w.n)


def lex_successor(w):
    """Same-length word x' with 0.x' = 0.x + 2^-|x|; None for 1^n."""
    if w.is_all_ones():
        return None
    return Word(w.k + 1, w.n)


def round_to_grid(q, m):
    """Nearest multiple of 2^-m to the exact rational q, ties toward +inf.

    The result is within 2^-(m+1) of q.
    """
    if m < 0:
        raise ValueError("grid exponent must be nonnegative")
    if isinstance(q, Dyadic):
        q = q.as_fraction()
    scaled = q * (1 << m) + Fraction(1, 2)
    k = scaled.numerator // scaled.denominator  # floor
    return Dyadic(k, m)


def clamp_unit(a, b):
    """Force Dyadics into 0 <= a <= b <= 1, first a then b.

    Order matters: b is clamped below by the already-clamped a.  Both
    stay on any grid they share, since 0 and 1 lie on every grid.
    """
    a = min(max(a, ZERO), ONE)
    return a, min(max(a, b), ONE)


def minimal_cover(a, b, m):
    """Prefix-minimal words w with interval(w) inside [a, b], left to right.

    a and b are Dyadics on the 2^-m grid with 0 <= a <= b <= 1.  The greedy
    prefix-minimal cover -- at each position the shortest word that starts
    there and stays inside [a, b] -- is exactly the maximal aligned-block
    decomposition of the grid-index range [a 2^m, b 2^m).  The result S
    satisfies: the intervals tile [a, b] exactly (empty when a == b), every
    length is <= m, no length occurs more than twice, |S| <= 2m+1, and
    sum(2^-|w|) == b - a.  S is a ``Cover``, which makes its words as they
    are iterated; a and b are checked on the call.
    """
    if not (ZERO <= a <= b <= ONE):
        raise ValueError(f"need 0 <= {a} <= {b} <= 1")
    if a.exp > m or b.exp > m:
        raise ValueError("endpoints must lie on the 2^-m grid")
    return Cover(a.num << (m - a.exp), b.num << (m - b.exp), m)


class Cover:
    """The maximal aligned blocks of the index range [lo, hi) at depth m,
    left to right, as the words of ``minimal_cover``, each made as the
    iteration reaches it.

    Block (lev, idx) covers the cells [idx << lev, (idx + 1) << lev) and
    is the word (idx, m - lev); no level holds more than two, and the full
    range [0, 2**m) is the one word λ.  Holds only the range, so a cover
    costs O(m) bits however long its words: the list of a cover at
    m = 32792 (a pullback at precision 8192) holds about m^2/2 bits of
    word indices.
    """

    __slots__ = ("lo", "hi", "m")

    def __init__(self, lo, hi, m):
        self.lo, self.hi, self.m = lo, hi, m

    def __iter__(self):
        # the left blocks come bottom-up, which is left to right; the
        # right block at a level where hi >> lev is odd is
        # (hi >> lev) - 1, made top-down after the loop
        a, b, m, lev = self.lo, self.hi, self.m, 0
        right = []
        while a < b:
            if a & 1:
                yield Word(a, m - lev)
                a += 1
            if b & 1:
                right.append(lev)
            a >>= 1
            b >>= 1
            lev += 1
        hi = self.hi
        for lev in reversed(right):
            yield Word((hi >> lev) - 1, m - lev)

    def __len__(self):
        # the blocks __iter__ makes, counted from the index bits alone, so
        # list(cover), which asks len first, makes each word once
        a, b, count = self.lo, self.hi, 0
        while a < b:
            count += (a & 1) + (b & 1)
            a = (a + 1) >> 1
            b >>= 1
        return count

    def __repr__(self):
        return f"Cover({self.lo}, {self.hi}, {self.m})"


def exact_ceil_lg(q):
    """Smallest integer t with 2**t >= q, for rational q > 0.

    Pure integer power comparisons; no logarithms anywhere.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("exact_ceil_lg needs a positive rational")
    return ceil_lg_ratio(q.numerator, q.denominator)


def ceil_lg_ratio(p, s):
    """Smallest integer t with 2**t >= p/s, for integers p, s > 0.

    With t = bitlen(p) - bitlen(s), 2**(t-1) < p/s < 2**(t+1), so one
    comparison decides between t and t + 1.
    """
    t = p.bit_length() - s.bit_length()
    return t if (p <= s << t if t >= 0 else p << -t <= s) else t + 1
