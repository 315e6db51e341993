import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dymart.dyadic import (Cover, Dyadic, Word, _PairSum, all_words,
                           clamp_unit,
                           common_numerators, fmt_rational, gamma,
                           lcm_scales, level_numerators, lex_successor,
                           minimal_cover, parse_rational, round_to_grid)
from dymart.errors import ParseError
from dymart.funcs import AffineFn

from helpers import aligned_blocks, brute_force_cover, is_prefix

W = Word.parse


def F(d):
    return Fraction(d)


dyadics = st.builds(Dyadic, st.integers(-2**40, 2**40), st.integers(0, 40))


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(12, 4)
        assert (d.num, d.exp) == (3, 2)
        assert (Dyadic(0, 7).num, Dyadic(0, 7).exp) == (0, 0)
        assert (Dyadic(2, 0).num, Dyadic(2, 0).exp) == (2, 0)
        assert (Dyadic(-8, 5).num, Dyadic(-8, 5).exp) == (-1, 2)

    @given(dyadics, dyadics)
    def test_arithmetic_matches_fraction(self, a, b):
        assert F(a + b) == F(a) + F(b)
        assert F(a - b) == F(a) - F(b)
        assert F(-a) == -F(a)
        assert F(a.half()) == F(a) / 2
        assert (a < b) == (F(a) < F(b))
        assert (a == b) == (F(a) == F(b))

    def test_adapts_every_dyadic_rational(self):
        # Dyadic(q, exp) is q / 2**exp for any rational with a power-of-two
        # denominator; other rationals and non-rationals are refused
        assert Dyadic(Fraction(3, 8)) == Dyadic(3, 3)
        assert Dyadic(Fraction(3, 8), 2) == Dyadic(3, 5)
        assert Dyadic(Dyadic(3, 3), 2) == Dyadic(3, 5)
        with pytest.raises(ValueError, match="1/3 is not a dyadic"):
            Dyadic(Fraction(1, 3))
        for bad in (0.5, "1"):
            with pytest.raises(TypeError):
                Dyadic(bad)

    @given(dyadics)
    def test_canonical_invariant(self, a):
        assert a.exp == 0 or a.num % 2 == 1

    def test_fraction_interop(self):
        assert Dyadic(1, 1) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(1, 3) + Dyadic(1, 1) == Fraction(5, 6)
        assert Fraction(1, 2) == Dyadic(1, 1)
        assert Dyadic(1, 1) < Fraction(2, 3)
        assert hash(Dyadic(3, 2)) == hash(Fraction(3, 4))

    @pytest.mark.parametrize("other", [3, Dyadic(5, 3), Fraction(2, 3)],
                             ids=["int", "Dyadic", "Fraction"])
    def test_operand_rule_both_orders(self, other):
        # + and - answer in both orders, exactly: a Dyadic with an int or a
        # Dyadic, a Fraction with a Fraction
        d = Dyadic(3, 2)
        kind = Fraction if isinstance(other, Fraction) else Dyadic
        for got, want in ((d + other, F(d) + F(other)),
                          (other + d, F(other) + F(d)),
                          (d - other, F(d) - F(other)),
                          (other - d, F(other) - F(d))):
            assert type(got) is kind and got == want
        # products, quotients and remainders raise in both orders
        for op in (operator.mul, operator.truediv, operator.floordiv,
                   operator.mod):
            for a, b in ((d, other), (other, d)):
                with pytest.raises(TypeError):
                    op(a, b)

    def test_no_floats(self):
        # refused without any explicit method: Dyadic defines none of
        # __float__, __index__, __round__, __floor__, __ceil__, __trunc__
        for convert in (float, round, math.floor, math.ceil, math.trunc):
            with pytest.raises(TypeError):
                convert(Dyadic(3, 1))

    def test_parse_and_print(self):
        assert Dyadic.parse("5/8") == Dyadic(5, 3)
        assert Dyadic.parse("-3/4") == Dyadic(-3, 2)
        assert Dyadic.parse("7") == Dyadic(7)
        assert Dyadic.parse("0.101") == Dyadic(5, 3)
        assert str(Dyadic(5, 3)) == "5/8"
        assert Dyadic(5, 3).binary() == "0.101"
        assert Dyadic(1).binary() == "1"
        with pytest.raises(ParseError):
            Dyadic.parse("1/3")
        with pytest.raises(ParseError):
            Dyadic.parse("1/6")

    def test_parse_rational_general(self):
        assert parse_rational("3/10") == Fraction(3, 10)
        assert fmt_rational(Fraction(1)) == "1/1"
        assert fmt_rational(Dyadic(5, 3)) == "5/8"


class TestWord:
    def test_word_value(self):
        assert W("λ").value() == Dyadic(0)
        assert W("101").value() == Dyadic(5, 3)
        assert W("0011").value() == Dyadic(3, 4)

    def test_leading_zeros_matter(self):
        assert W("0") != W("00")
        assert gamma(W("0")) != gamma(W("00"))

    def test_gamma(self):
        assert gamma(W("01")) == (Dyadic(1, 2), Dyadic(1, 1))
        assert gamma(W("λ")) == (Dyadic(0), Dyadic(1))
        assert gamma(W("111")) == (Dyadic(7, 3), Dyadic(1))

    def test_lex_successor(self):
        assert lex_successor(W("011")) == W("100")
        assert lex_successor(W("11")) is None
        assert lex_successor(W("000")) == W("001")

    def test_gamma_partition_to_depth_12(self):
        for w in all_words(12):
            lo, hi = gamma(w)
            l0, h0 = gamma(w.append(0))
            l1, h1 = gamma(w.append(1))
            assert l0 == lo and h1 == hi and h0 == l1

    def test_prefix_and_strip(self):
        assert is_prefix(W("01"), W("0110"))
        assert not is_prefix(W("10"), W("0110"))
        assert W("0100").strip_trailing_zeros() == W("01")
        assert W("000").strip_trailing_zeros() == W("λ")

    def test_from_point(self):
        assert Word.from_point(Dyadic(5, 3)) == W("101")
        assert Word.from_point(Fraction(3, 4)) == W("11")
        assert Word.from_point(Dyadic(0)) == W("λ")
        with pytest.raises(ValueError):
            Word.from_point(Dyadic(1))


class TestRounding:
    def test_examples(self):
        assert round_to_grid(Fraction(3, 10), 2) == Dyadic(1, 2)
        # tie at distance exactly 2^-(m+1) resolves upward
        g = round_to_grid(Fraction(3, 8), 2)
        assert g == Dyadic(1, 1)
        assert abs(Fraction(3, 8) - F(g)) == Fraction(1, 8)
        assert round_to_grid(Fraction(1), 5) == Dyadic(1)

    def test_exhaustive_error_bound(self):
        for q_den in range(1, 65):
            for p in range(-64, 65):
                q = Fraction(p, q_den)
                for m in range(0, 9):
                    g = round_to_grid(q, m)
                    assert abs(q - F(g)) <= Fraction(1, 1 << (m + 1))

    @given(st.fractions(), st.integers(0, 12))
    def test_grid_membership(self, q, m):
        g = round_to_grid(q, m)
        assert isinstance(g, Dyadic) and g.exp <= m


class TestClamp:
    def test_examples(self):
        D = Dyadic.parse
        assert clamp_unit(D("-1/8"), D("9/8")) == (Dyadic(0), Dyadic(1))
        assert clamp_unit(D("1/4"), D("3/4")) == (Dyadic(1, 2), Dyadic(3, 2))
        assert clamp_unit(D("3/4"), D("1/4")) == (Dyadic(3, 2), Dyadic(3, 2))


class TestCover:
    def test_examples(self):
        got = list(minimal_cover(Dyadic(1, 3), Dyadic(7, 3), 3))
        assert got == [W("001"), W("01"), W("10"), W("110")]
        assert list(minimal_cover(Dyadic(0), Dyadic(1), 4)) == [W("λ")]
        assert list(minimal_cover(Dyadic(1, 1), Dyadic(1, 1), 1)) == []

    def test_exhaustive_vs_brute_force(self):
        for m in range(0, 7):
            denom = 1 << m
            for ka in range(denom + 1):
                for kb in range(ka, denom + 1):
                    a, b = Dyadic(ka, m), Dyadic(kb, m)
                    got = list(minimal_cover(a, b, m))
                    assert got == brute_force_cover(a, b, m), (a, b, m)
                    self._check_shape(got, a, b, m)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_cover_is_made_lazily_as_the_blocks(self, m, data):
        # the cover holds its range and makes the words of aligned_blocks,
        # left to right, on each iteration
        lo = data.draw(st.integers(0, 1 << m))
        hi = data.draw(st.integers(lo, 1 << m))
        cover = minimal_cover(Dyadic(lo, m), Dyadic(hi, m), m)
        want = [Word(idx, m - lev) for lev, idx in aligned_blocks(lo, hi)]
        assert list(cover) == want and list(cover) == want
        assert len(cover) == len(want)
        assert (cover.lo, cover.hi, cover.m) == (lo, hi, m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 64), st.data())
    @example(0, None)                       # m = 0: λ or nothing
    @example(5, (0, 32))                    # the full range
    @example(5, (0, 13))                    # lo = 0
    @example(5, (9, 9))                     # lo == hi
    @example(40, (3, 3))
    def test_len_counts_the_blocks(self, m, data):
        # len counts from the index bits what iteration makes, word by word
        if data is None:
            ranges = [(0, 0), (0, 1), (1, 1)]
        elif isinstance(data, tuple):
            ranges = [data]
        else:
            lo = data.draw(st.integers(0, 1 << m))
            ranges = [(lo, data.draw(st.integers(lo, 1 << m)))]
        for lo, hi in ranges:
            cover = Cover(lo, hi, m)
            assert len(cover) == sum(1 for _ in cover), (lo, hi, m)

    def test_list_makes_each_word_once(self, monkeypatch):
        # list() asks len() for a length hint: that must not walk the
        # cover a second time
        walks = []
        plain = Cover.__iter__

        def counted(self):
            walks.append(self)
            return plain(self)

        monkeypatch.setattr(Cover, "__iter__", counted)
        cover = minimal_cover(Dyadic(1, 6), Dyadic(45, 6), 6)
        assert len(list(cover)) == len(cover)
        assert walks == [cover]

    @staticmethod
    def _check_shape(cover, a, b, m):
        assert len(cover) <= 2 * m + 1
        lengths = [len(w) for w in cover]
        assert all(n <= m for n in lengths)
        assert all(lengths.count(n) <= 2 for n in set(lengths))
        assert sum(Fraction(1, 1 << n) for n in lengths) == F(b) - F(a)
        # tiles: consecutive intervals meet exactly at endpoints
        pos = F(a)
        for w in cover:
            lo, hi = gamma(w)
            assert F(lo) == pos
            pos = F(hi)
        if cover:
            assert pos == F(b)


class TestBalancedSum:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(-(1 << 90), 1 << 90),
                              st.integers(1, 1 << 60)), max_size=40))
    def test_equals_fraction_sum(self, pairs):
        want = sum((Fraction(p, q) for p, q in pairs), Fraction(0))
        acc = _PairSum()
        for p, q in pairs:
            acc.add(p, q)
        got = acc.total()
        assert got == want and type(got) is Fraction

    @given(st.integers(1, 300))
    def test_partial_sums_stay_logarithmic(self, k):
        # k pairs keep one partial sum per set bit of k
        acc = _PairSum()
        for i in range(k):
            acc.add(1, 3 + 2 * i)
            assert len(acc.stack) == bin(i + 1).count("1")
        assert acc.total() == sum(Fraction(1, 3 + 2 * i) for i in range(k))


rationals = st.one_of(dyadics, st.integers(-(1 << 70), 1 << 70),
                      st.fractions(max_denominator=10 ** 6))


def lcm_of_denominators(values):
    return math.lcm(*(Fraction(v).denominator for v in values))


class TestCommonNumerators:
    @settings(max_examples=300)
    @given(st.one_of(st.lists(rationals, min_size=1, max_size=30),
                     st.lists(st.integers(-(1 << 70), 1 << 70), min_size=1,
                              max_size=10)))
    @example([Dyadic(3, 5)])
    @example([Fraction(-2, 3)])
    @example([7])
    @example([0, -4, 9])
    def test_numerators_over_the_lcm(self, values):
        nums, den = common_numerators(values)
        assert den == lcm_of_denominators(values)
        assert all(type(x) is int for x in nums) and type(den) is int
        assert [Fraction(x, den) for x in nums] == list(map(Fraction, values))

    @settings(max_examples=200)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(rationals, min_size=1 << n, max_size=1 << n))))
    def test_level_is_every_word_once_in_index_order(self, case):
        n, values = case
        asked = []

        def value(w):
            asked.append(w)
            return values[w.k]

        nums, den = level_numerators(value, n)
        assert asked == [Word(k, n) for k in range(1 << n)]
        assert den == lcm_of_denominators(values)
        assert [Fraction(x, den) for x in nums] == list(map(Fraction, values))

    @given(st.integers(1, 1 << 40), st.integers(1, 1 << 40),
           st.integers(-(1 << 40), 1 << 40), st.integers(-(1 << 40), 1 << 40))
    def test_scales_meet_at_the_lcm(self, den, den_below, p, c):
        up, down = lcm_scales(den, den_below)
        assert den * up == den_below * down == math.lcm(den, den_below)
        assert (p * up == c * down) == \
            (Fraction(p, den) == Fraction(c, den_below))


class TestAffine:
    def test_examples(self):
        # 2^j x + a, exactly, through the CLI's affine:<j>,<a> oracle
        assert AffineFn(1, Dyadic(0)).at(Dyadic(1, 2)) == Dyadic(1, 1)
        assert AffineFn(0, Dyadic(-1, 1)).at(Dyadic(5, 3)) == Dyadic(1, 3)
        assert AffineFn(-3, Dyadic(3, 2)).at(Dyadic(1)) == Dyadic(7, 3)
        assert AffineFn(1, Fraction(1, 4)).name == "affine:1,1/4"

    def test_negation_is_exact(self):
        assert -Dyadic(5, 3) == Dyadic(-5, 3)
