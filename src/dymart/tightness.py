"""Zero-insertion functions, their census bookkeeping, and the exact
inequalities that bound how far they sit from strong variation.

Fixing a set Z of positions with census function c(i) = |Z ∩ {0..i}|, the
point map here weighs input bit i by 2^-(i + c(i) + 1):

    fz(0.x) = sum over i < |x| of x[i] * 2^-(i + c(i) + 1)

It is monotone and exactly evaluable at dyadics, with difference quotients
controlled by the census:

    fz(x + 2^-n) - fz(x) >= 2^(-c(n)-n)                (step bound)
    (fz(y) - fz(x)) / (y - x) > 2^(-c(n)-1),  n = ⌈-lg(y-x)⌉   (slope bound)

Both are checked through ``GridImage`` (``verify``'s tightness suite and
``tightness bounds``): one ``fz`` per grid point, kept as integer
numerators over a common power of two, so every step and slope check is
an integer comparison, and each entry's two sides are exact rationals.

A closely related stretching operation on raw bit streams (``insert_zeros``)
writes a 0 at every position in Z and the source bits elsewhere.  For the
empty set and singletons the two views coincide (bit i lands at position
i + c(i)); when Z places an insertion inside (i, i + c(i)] the stream shifts
bits further right than the weight formula, the maps genuinely differ, and
only the weight formula satisfies the two bounds above on all of them (the
streamed map breaks the step bound already at Z = {0,1,2}, x = 0, n = 1).
The companion betting strategy is tied to the streamed view: it goes all-in
on 0 exactly at insertion positions, so its capital along any stretched
sequence is 2**c(n-1) after n bits.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import Dyadic, Word, level_numerators
from .errors import InsufficientBitsError, ParseError
from .funcs import FnOracle

# bound on the members of an explicit position set, the largest member of
# "tower": the value at 1 of a finite set's map sums every position up to
# its largest member, in time quadratic in that member
MAX_POSITION = 65536


class CensusSet:
    """A decidable set of insertion positions with its census function."""

    def __init__(self, member_fn, name, finite_members=None):
        self._member = member_fn
        self.name = name
        self.finite_members = finite_members  # sorted tuple or None
        self._census = [0]  # census[i+1] = |Z ∩ {0..i}|

    def __contains__(self, i):
        return bool(self._member(i))

    def census(self, i):
        """|Z ∩ {0..i}|; census(-1) = 0."""
        if i < 0:
            return 0
        while len(self._census) <= i + 1:
            j = len(self._census) - 1
            self._census.append(self._census[-1] + (1 if j in self else 0))
        return self._census[i + 1]

    @property
    def is_finite(self):
        return self.finite_members is not None

    @staticmethod
    def parse(spec):
        """"" or "empty" | "1,3,5" | "pow2" | "tower"; a ``CensusSet`` is
        returned as it is."""
        if isinstance(spec, CensusSet):
            return spec
        spec = spec.strip()
        if spec in ("", "empty", "none", "∅"):
            return CensusSet(lambda i: False, "empty", finite_members=())
        if spec == "pow2":
            return CensusSet(lambda i: i > 0 and (i & (i - 1)) == 0, "pow2")
        if spec == "tower":
            members = frozenset((1, 2, 4, 16, 65536))
            return CensusSet(lambda i: i in members, "tower",
                             finite_members=tuple(sorted(members)))
        try:
            members = frozenset(int(p) for p in spec.split(","))
        except ValueError:
            raise ParseError(f"cannot parse position set {spec!r}") from None
        if any(m < 0 for m in members):
            raise ParseError("positions must be nonnegative")
        if members and max(members) > MAX_POSITION:
            raise ParseError(f"positions must be at most {MAX_POSITION} "
                             f"(the largest member of tower), got "
                             f"{max(members)}")
        return CensusSet(lambda i: i in members,
                         ",".join(str(m) for m in sorted(members)),
                         finite_members=tuple(sorted(members)))


def insert_zeros(prefix, zset, out_len):
    """First out_len bits of the stretched sequence: bit i is 0 when i is an
    insertion position, else the next unused bit of prefix."""
    need = out_len - zset.census(out_len - 1)
    if need > len(prefix):
        raise InsufficientBitsError(
            f"need {need} source bits for {out_len} output bits, "
            f"got {len(prefix)}")
    out = Word(0, 0)
    for i in range(out_len):
        if i in zset:
            out = out.append(0)
        else:
            out = out.append(prefix[i - zset.census(i)])
    return out


def insertion_value(x, zset):
    """Exact image of 0.x: sum of x[i] * 2^-(i + census(i) + 1), a Dyadic."""
    if not isinstance(x, Word):
        raise TypeError("insertion_value expects a Word")
    num = 0
    max_exp = len(x) + zset.census(len(x) - 1) + 1
    for i, bit in enumerate(x):
        if bit:
            num += 1 << (max_exp - (i + zset.census(i) + 1))
    return Dyadic(num, max_exp)


class ZeroInsertionFn(FnOracle):
    """The point map fz on [0, 1), exact at dyadics, monotone ascending.

    The value at 1 is not part of the family's domain.  ``scaled=True``
    grafts the constant 1 on at the right endpoint (the standard trick for
    feeding a monotone map with computable right endpoint to the pullback
    machinery); otherwise, for finite sets ``at(1)`` is the exact
    supremum, and for infinite sets it raises: there ``approx_at_one``
    answers within 2^-r, and ``funcs.as_weak`` uses it.
    """

    def __init__(self, zset, scaled=False):
        self.zset = zset = CensusSet.parse(zset)
        self.scaled = scaled
        self.monotone = True
        self.name = f"fz{'_scaled' if scaled else ''}:{zset.name}"

    def at(self, q):
        d = Dyadic(q)
        if d != 1:
            return Fraction(insertion_value(Word.from_point(d), self.zset))
        if self.scaled:
            return Fraction(1)
        if self.zset.is_finite:
            members = self.zset.finite_members
            horizon = (members[-1] + 1) if members else 0
            # beyond the last member the census is constant, so the tail
            # is an exact geometric sum
            tail = Dyadic(1, horizon + len(members))
            ones = Word((1 << horizon) - 1, horizon)
            return Fraction(insertion_value(ones, self.zset) + tail)
        raise ValueError(f"{self.name}: no exact value at 1 for an "
                         "infinite insertion set")

    def approx_at_one(self, r):
        """``at(1)`` when the map is scaled or its set finite; else the
        truncated limit, within 2^-r (monotone from below): the image of
        0.1^(r+1), whose tail beyond is below 2^-(r + 1 + census(r))."""
        if self.scaled or self.zset.is_finite:
            return self.at(Dyadic(1))
        return Fraction(insertion_value(Word((2 << r) - 1, r + 1),
                                        self.zset))


class NormalizedInsertionFn(FnOracle):
    """The insertion map scaled by 1/f(1): monotone with endpoints 0 and 1.

    Values are general rationals (the scale is usually not dyadic), and
    ``at(1)`` is f(1) / f(1) = 1 exactly.  Finite insertion sets only,
    since the exact value at 1 is needed.
    """

    monotone = True

    def __init__(self, zset):
        self.inner = ZeroInsertionFn(zset)
        self.scale = 1 / self.inner.at(Dyadic(1))
        self.name = f"fz_norm:{self.inner.zset.name}"

    def at(self, q):
        return Fraction(self.inner.at(q)) * self.scale


def z_bettor(zset):
    """The betting strategy matched to the insertion set: all-in on 0 at
    insertion positions, idle elsewhere; capital 2**census(n-1) after n
    bits of any stretched sequence.  It is this module's one user of
    ``martingale`` and imports it itself, so the insertion maps and their
    bounds load no strategy code."""
    from .martingale import ExactMartingale, ProductForm
    zset = CensusSet.parse(zset)
    edges = (
        (((1, 0, 0), (1, 0, 0)),     # class 0: free position
         ((2, 0, 0), (0, 0, 1))),    # class 1: insertion position
        (((1, 0, 1), (1, 0, 1)),
         ((1, 0, 1), (1, 0, 1))),    # dead: capital is 0
    )
    pf = ProductForm(edges, classes_fn=lambda i: 1 if i in zset else 0)
    return ExactMartingale(f"zbettor:{zset.name}", product_form=pf)


class GridImage:
    """fz on the 2^-exp grid of [0, 1), one ``insertion_value`` per point,
    as integer numerators ``nums[k]`` over the common denominator 2^top
    (``dyadic.level_numerators``: each point k/2^exp is the word (k, exp)).

    ``steps`` and ``slopes`` sweep every step and slope bound on the grid
    by integer comparisons; ``step_sides`` and ``slope_sides`` give one
    entry's two sides as exact rationals.
    """

    def __init__(self, zset, exp):
        self.zset = zset = CensusSet.parse(zset)
        self.exp = exp
        self.nums, den = level_numerators(
            lambda w: insertion_value(w, zset), exp)
        # exp + c(exp-1) for exp >= 1: the weight of the last input bit
        self.top = den.bit_length() - 1

    def steps(self):
        """(k, n, ok) for x = k/2^exp, n = 1..exp and x + 2^-n < 1, n-major;
        ok is the step bound fz(x + 2^-n) - fz(x) >= 2^(-c(n)-n)."""
        nums, one = self.nums, 1 << self.top
        for n in range(1, self.exp + 1):
            s = 1 << (self.exp - n)
            sh = self.zset.census(n) + n
            for k in range(len(nums) - s):
                yield k, n, (nums[k + s] - nums[k]) << sh >= one

    def step_sides(self, k, n):
        """(lhs, rhs) of the step bound at x = k/2^exp."""
        s = 1 << (self.exp - n)
        return (Fraction(self.nums[k + s] - self.nums[k], 1 << self.top),
                Fraction(1, 1 << (self.zset.census(n) + n)))

    def _slope_shift(self, gap):
        """exp + c(n) + 1 for a gap of ``gap`` grid steps, where
        n = ⌈-lg(gap/2^exp)⌉ = exp - ⌊lg gap⌋."""
        return self.exp + self.zset.census(
            self.exp - gap.bit_length() + 1) + 1

    def slopes(self):
        """(ka, kb, ok) for 0 <= ka < kb < 2^exp, ka-major; ok is the slope
        bound (fz(y) - fz(x)) / (y - x) > 2^(-c(n)-1) at x = ka/2^exp,
        y = kb/2^exp, n = ⌈-lg(y-x)⌉, cleared of denominators."""
        nums, top = self.nums, self.top
        shifts = [0] + [self._slope_shift(g) for g in range(1, len(nums))]
        for ka, lo in enumerate(nums):
            for kb in range(ka + 1, len(nums)):
                gap = kb - ka
                yield ka, kb, (nums[kb] - lo) << shifts[gap] > gap << top

    def slope_sides(self, ka, kb):
        """(lhs, rhs) of the slope bound at x = ka/2^exp, y = kb/2^exp."""
        gap = kb - ka
        return (Fraction((self.nums[kb] - self.nums[ka]) << self.exp,
                         gap << self.top),
                Fraction(1, 1 << (self._slope_shift(gap) - self.exp)))


ZOO_SPECS = ("empty", "1", "0,1,2", "0,2,4", "pow2", "tower")


def zoo():
    """The standard test family of insertion sets."""
    return [CensusSet.parse(s) for s in ZOO_SPECS]
