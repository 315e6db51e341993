from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart import kernels, verify
from dymart.config import parse_function
from dymart.dyadic import Dyadic, Word, all_words
from dymart.errors import PrecisionContractError
from dymart.funcs import IdentityFn, as_weak
from dymart.martingale import (ApproxMartingale, ExactMartingale, ProductForm,
                               allin_zeros, as_approx, by_name, capital_trace,
                               conservative_transform, pattern_bettor,
                               savings_wrapper, uniform, verify_conservative,
                               verify_martingale)
from dymart.pullback import pullback_approx, shift_stats
from dymart.tightness import z_bettor

from helpers import (by_prefixes, domination_by_words, is_prefix,
                     nondyadic_bettor, random_product_forms,
                     verify_conservative_by_words,
                     verify_martingale_by_words)

W = Word.parse

F = Fraction


def zoo():
    base = [uniform(), allin_zeros(), pattern_bettor("01"),
            pattern_bettor("110"), z_bettor("1"), z_bettor("0,2,4"),
            z_bettor("pow2")]
    return base + [conservative_transform(d) for d in base]


class TestVerify:
    def test_uniform_passes(self):
        assert verify_martingale(uniform(), 10).ok

    def test_allin_passes(self):
        # d(w) = 2^|w| on all-zero prefixes, 0 elsewhere
        d = allin_zeros()
        assert d.at(W("000")) == 8
        assert d.at(W("0010")) == 0
        assert verify_martingale(d, 10).ok

    def test_corrupted_table_fails_at_root_only(self):
        table = {W("λ"): F(9, 10)}
        d = ExactMartingale("corrupt", lambda w: table.get(w, F(1)))
        report = verify_martingale(d, 6)
        assert not report.ok
        assert len(report.violations) == 1
        assert report.violations[0].where == "λ"
        assert report.violations[0].kind == "identity"

    def test_zoo_passes_depth_8(self):
        for d in zoo():
            assert verify_martingale(d, 8).ok, d.name

    @pytest.mark.parametrize("depth", [0, 1, 5])
    @pytest.mark.parametrize("reply", [Fraction, Dyadic.from_fraction],
                             ids=["Fraction", "Dyadic"])
    def test_reports_match_word_by_word(self, reply, depth):
        # values in [-1/4, 7/4] and d(λ) = 9/8: every kind of violation
        # (root, nonneg, identity, cap, ratio, domination) occurs, in the
        # same order, with the same text and check counts as the
        # word-by-word checks
        def scrambled(w):
            return reply(F((5 * w.k + 3 * w.n) % 9 - 1, 4) if w.n
                         else F(9, 8))

        d = ExactMartingale("scrambled", scrambled)
        assert verify_martingale(d, depth) == \
            verify_martingale_by_words(d, depth)
        assert verify_conservative(d, depth) == \
            verify_conservative_by_words(d, depth)
        # the square-domination check, with the scrambled strategy as the
        # base its damped transform is compared with
        assert verify._domination(d, depth) == domination_by_words(d, depth)
        if depth == 5:
            kinds = {v.kind for v in verify_martingale(d, depth).violations
                     + verify_conservative(d, depth).violations
                     + verify._domination(d, depth).violations}
            assert kinds == {"root", "nonneg", "identity", "cap", "ratio",
                             "domination"}

    @pytest.mark.parametrize("depth", [0, 3, 8])
    def test_one_exact_per_word(self, depth):
        # each check sweeps its levels once: every word it looks at is
        # asked of exact() exactly once, a word's children included, and
        # a passing sweep never asks at()
        for check, longest in ((verify_martingale, depth + 1),
                               (verify_conservative, depth)):
            d, asked, at_calls = \
                conservative_transform(pattern_bettor("01")), [], []
            plain, plain_at = d.exact, d.at
            d.exact = lambda w: asked.append(w) or plain(w)
            d.at = lambda w: at_calls.append(w) or plain_at(w)
            assert check(d, depth).ok
            assert len(asked) == len(set(asked))
            assert set(asked) == set(all_words(longest)), check.__name__
            assert at_calls == [], check.__name__


class TestConservativeTransform:
    def test_uniform_fixed_point(self):
        d = conservative_transform(uniform())
        for w in [W("λ"), W("0"), W("0110"), W("111111")]:
            assert d.at(w) == 1

    def test_allin_spine(self):
        d = conservative_transform(allin_zeros())
        for n in range(12):
            assert d.at(Word(0, n)) == F(3, 2) ** n

    def test_ratio_bounds_and_cap(self):
        for base in (allin_zeros(), z_bettor("0,2,4"), pattern_bettor("10")):
            d = conservative_transform(base)
            assert verify_conservative(d, 8).ok, d.name
            assert verify_martingale(d, 8).ok, d.name

    def test_nonconservative_flagged(self):
        rep = verify_conservative(allin_zeros(), 5)
        assert not rep.ok
        assert any(v.kind == "ratio" for v in rep.violations)

    def test_halfbet_domination(self):
        # d'(w)^2 >= d(w) * d(λ) exactly, all |w| <= 10
        for base in (allin_zeros(), z_bettor("1"), pattern_bettor("01")):
            d = conservative_transform(base)
            for n in range(11):
                for k in range(1 << n):
                    w = Word(k, n)
                    assert d.at(w) ** 2 >= base.at(w) * base.at(W("λ"))

    def test_generic_path_matches_product_form(self):
        base = z_bettor("1")
        via_pf = conservative_transform(base)
        generic = conservative_transform(
            ExactMartingale(base.name, base.at))
        for n in range(7):
            for k in range(1 << n):
                assert via_pf.at(Word(k, n)) == generic.at(Word(k, n))

    def test_nondyadic_ratio_stays_exact(self):
        # a martingale whose bet ratios leave the dyadics
        table = {W("λ"): F(1), W("0"): F(3, 2), W("1"): F(1, 2),
                 W("00"): F(1), W("01"): F(2)}

        def fn(w):
            if w in table:
                return table[w]
            if is_prefix(W("00"), w) or is_prefix(W("01"), w):
                return table[w.prefix(2)]
            return table[w.prefix(1)]

        d = conservative_transform(ExactMartingale("mixed", fn))
        # ρ("00") = 2/3, so d'("00") = (5/4)(5/6) = 25/24: not dyadic
        assert d.at(W("00")) == F(25, 24)
        assert verify_martingale(d, 4).ok

    def test_stops_betting_at_zero(self):
        # the inner strategy keeps betting after its capital is gone; the
        # damped one bets nothing from there on, as a product form too
        pf = ProductForm(((((0, 0, 0), (2, 0, 0)), ((1, 1, 0), (3, 1, 0))),),
                         classes_fn=lambda i: i % 2)
        base = ExactMartingale("revive", product_form=pf)
        via_pf = conservative_transform(base)
        generic = conservative_transform(ExactMartingale(base.name, base.at))
        assert via_pf.at(W("0")) == F(1, 2)
        for n in range(8):
            for k in range(1 << n):
                assert via_pf.at(Word(k, n)) == generic.at(Word(k, n))
                if n and k >> (n - 1) == 0:
                    assert via_pf.at(Word(k, n)) == F(1, 2)
        assert verify_martingale(via_pf, 8).ok
        assert verify_conservative(via_pf, 8).ok


class TestSavings:
    def test_uniform_unchanged(self):
        d = savings_wrapper(uniform())
        for w in [W("λ"), W("010"), W("11")]:
            assert d.at(w) == 1

    def test_allin_monotone_along_zeros(self):
        d = savings_wrapper(allin_zeros())
        trace = [d.at(Word(0, n)) for n in range(6)]
        assert trace == [1, 2, 3, 4, 5, 6]
        assert all(a <= b for a, b in zip(trace, trace[1:]))

    def test_reserve_survives_crash(self):
        d = savings_wrapper(allin_zeros())
        # after two doublings the reserve holds 2 units forever
        assert d.at(W("001")) == 2
        assert d.at(W("001101")) == 2

    def test_is_martingale(self):
        assert verify_martingale(savings_wrapper(allin_zeros()), 10).ok
        assert verify_martingale(savings_wrapper(z_bettor("0,1,2")), 8).ok


# wrapper chains, outermost first; the cursor sits in every savings layer
# and in every conservative layer over a strategy without a product form
CHAINS = (("savings",), ("conservative",), ("savings", "savings"),
          ("savings", "conservative"), ("conservative", "savings"))


def words_up_to(depth):
    return st.integers(0, depth).flatmap(
        lambda n: st.builds(Word, st.integers(0, (1 << n) - 1), st.just(n)))


def inner_strategies():
    named = st.sampled_from(("pattern:011", "zbettor:1,3", "allin_zeros"))
    return st.one_of(
        random_product_forms().map(
            lambda pf: ExactMartingale("random", product_form=pf)),
        st.just("thirds").map(nondyadic_bettor),
        named.map(by_name))


def wrap(chain, inner):
    build = {"savings": savings_wrapper,
             "conservative": conservative_transform}
    mart = inner
    for kind in reversed(chain):
        mart = build[kind](mart)
    return mart


class TestClassTags:
    def test_each_tag_computed_once_per_form(self):
        # one grow-only tag list per product form, shared by its damped
        # form: the folds, the savings folds, the block sums and the block
        # maxima all read it, so no position is tagged twice
        calls = []

        def tag(i):
            calls.append(i)
            return i % 2

        pf = ProductForm(((((1, 1, 0), (3, 1, 0)), ((3, 1, 0), (1, 1, 0))),),
                         classes_fn=tag)
        base = ExactMartingale("tagged", product_form=pf)
        damped = conservative_transform(base)
        assert damped.product_form.tags is pf.tags
        for d in (base, damped, savings_wrapper(base),
                  savings_wrapper(damped)):
            for n in (3, 17, 40, 9, 41):
                d.exact(Word((1 << n) - 1, n))
                d.exact(Word(0, n))
        for d in (base, damped):
            for n in (5, 30, 90, 12):
                shift_stats(d, IdentityFn(), W("01"), n)
                dpf = d.product_form
                kernels.range_sum_max(dpf, dpf.classes(n), n, 0, 1 << n)
        assert len(pf.tags) >= 90
        assert sorted(calls) == list(range(len(pf.tags)))


class Flaky:
    """Exact values of ``mart``, except that the first query of ``bad``
    raises."""

    def __init__(self, mart, bad):
        self.mart, self.bad, self.raised = mart, bad, False
        self.name = f"flaky({mart.name})"
        self.product_form = None
        self.conservative = mart.conservative

    def at(self, w):
        if w == self.bad and not self.raised:
            self.raised = True
            raise ArithmeticError(f"no value at {w}")
        return self.mart.at(w)


class TestPrefixFold:
    """Cursor-backed wrappers against the prefix-loop oracles."""

    @settings(max_examples=60, deadline=None)
    @given(chain=st.sampled_from(CHAINS), inner=inner_strategies(),
           words=st.lists(words_up_to(14), min_size=1, max_size=12),
           data=st.data())
    def test_matches_oracle_in_shuffled_order(self, chain, inner, words,
                                              data):
        # the words, plus prefixes of them, asked in a shuffled order
        cuts = data.draw(st.lists(st.integers(0, 14), min_size=len(words),
                                  max_size=len(words)))
        asked = words + [w.prefix(min(c, len(w)))
                         for w, c in zip(words, cuts)]
        asked = data.draw(st.permutations(asked))
        mart, oracle = wrap(chain, inner), by_prefixes(chain, inner)
        for w in asked:
            assert mart.at(w) == oracle.at(w), (chain, inner.name, w)

    def test_nested_names(self):
        for name in ("savings:savings:pattern:011",
                     "savings:conservative:zbettor:1,3",
                     "conservative:savings:zbettor:1,3",
                     "conservative:savings:allin_zeros"):
            chain = tuple(name.split(":")[:2])
            inner = by_name(name.split(":", 2)[2])
            mart, oracle = by_name(name), by_prefixes(chain, inner)
            for n in (14, 3, 9, 0, 14):
                for k in (0, (1 << n) - 1, (5 << n) // 7):
                    w = Word(k, n)
                    assert mart.at(w) == oracle.at(w), (name, w)

    @settings(max_examples=40, deadline=None)
    @given(chain=st.sampled_from(CHAINS[:2]),
           words=st.lists(words_up_to(10), min_size=2, max_size=10),
           pick=st.integers(0, 9), cut=st.integers(0, 10))
    def test_inner_error_leaves_cursor_consistent(self, chain, words, pick,
                                                  cut):
        inner = nondyadic_bettor()
        target = words[pick % len(words)]
        bad = target.prefix(min(cut, len(target)))
        flaky = Flaky(inner, bad)
        mart, oracle = wrap(chain, flaky), by_prefixes(chain, inner)
        for w in words + words[::-1]:
            try:
                got = mart.at(w)
            except ArithmeticError:
                assert is_prefix(bad, w)
                continue
            assert got == oracle.at(w), (chain, bad, w)
        assert flaky.raised


class TestTrace:
    def test_uniform(self):
        got = capital_trace(as_approx(uniform()), W("0110"), 10)
        assert got == [1, 1, 1, 1, 1]

    def test_zbettor_inserted_prefix(self):
        got = capital_trace(as_approx(z_bettor("1")), W("10100"), 5)
        assert got == [1, 1, 2, 2, 2, 2]

    def test_allin(self):
        got = capital_trace(as_approx(allin_zeros()), W("01"), 4)
        assert got == [1, 2, 0]

    def test_trivial_wrapper_is_exact(self):
        d = conservative_transform(z_bettor("0,2,4"))
        approx = as_approx(d)
        s = W("0101010")
        exact = [d.at(p) for p in s.prefixes()]
        for r in (1, 10, 30):
            assert capital_trace(approx, s, r) == exact

    def test_contract_violation_detected(self):
        bad = ApproxMartingale("bad", lambda w, r: F(-1, 1 << (r - 1)))
        with pytest.raises(PrecisionContractError):
            bad.query(W("0"), 8)


def at_backed(d):
    """``as_approx`` through ``at``: every reply as a ``Fraction``."""
    return ApproxMartingale(d.name, lambda w, r: d.at(w),
                            conservative=d.conservative)


BASES = ("uniform", "allin_zeros", "pattern:011", "zbettor:1,3",
         "zbettor:pow2")
REPLY_NAMES = (BASES + tuple(f"conservative:{b}" for b in BASES)
               + tuple(f"{chain}:{b}"
                       for chain in ("savings", "savings:conservative",
                                     "conservative:savings")
                       for b in ("pattern:011", "zbettor:1,3",
                                 "allin_zeros")))


class TestReplyGuard:
    """``ApproxMartingale.query`` at the -2^-r boundary, for int, Fraction
    and Dyadic replies."""

    @pytest.mark.parametrize("r", [0, 1, 8, 70])
    @pytest.mark.parametrize("kind", [F, Dyadic.from_fraction])
    def test_exactly_minus_two_to_the_minus_r_passes(self, kind, r):
        reply = kind(F(-1, 1 << r))
        got = ApproxMartingale("edge", lambda w, p: reply).query(W("01"), r)
        assert got is reply

    def test_int_at_the_boundary_passes(self):
        got = ApproxMartingale("edge", lambda w, p: -1).query(W("01"), 0)
        assert got == -1 and type(got) is F

    @pytest.mark.parametrize("kind", [F, Dyadic.from_fraction])
    def test_just_below_raises_the_same_text(self, kind):
        reply = kind(F(-1, 1 << 8) - F(1, 1 << 11))
        bad = ApproxMartingale("bad", lambda w, p: reply)
        with pytest.raises(PrecisionContractError) as err:
            bad.query(W("01"), 8)
        assert str(err.value) == "bad: query(01, 8) = -9/2048 is below -2^-8"

    @pytest.mark.parametrize("reply", [-2, F(-2), Dyadic(-2)])
    def test_integral_reply_prints_as_a_fraction(self, reply):
        # str(Dyadic(-2)) is "-2/1"; the message keeps the Fraction's "-2"
        bad = ApproxMartingale("bad", lambda w, p: reply)
        with pytest.raises(PrecisionContractError) as err:
            bad.query(W("λ"), 0)
        assert str(err.value) == "bad: query(λ, 0) = -2 is below -2^-0"

    @pytest.mark.parametrize("reply", [0, 3, F(0), F(5, 3), F(1, 1 << 90),
                                       Dyadic(0), Dyadic(3),
                                       Dyadic(7, 200)])
    def test_nonnegative_replies_come_back_equal(self, reply):
        approx = ApproxMartingale("ok", lambda w, p: reply)
        for r in (0, 1, 64):
            got = approx.query(W("1"), r)
            assert got == reply
            if isinstance(reply, (F, Dyadic)):
                assert got is reply


def dyadic_replies(name):
    """Whether ``exact`` replies with a ``Dyadic``: a product form does,
    and so does a savings wrapper of one, which folds the factors in
    integers; every other derived strategy replies with a ``Fraction``."""
    inner = name.removeprefix("savings:")
    return by_name(inner).product_form is not None


class TestExactReplies:
    """``as_approx`` replies from ``exact``, not through ``at()``, with the
    same values."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(REPLY_NAMES),
           words=st.lists(words_up_to(16), min_size=1, max_size=16),
           r=st.integers(0, 40), data=st.data())
    def test_query_equals_at_in_shuffled_order(self, name, words, r, data):
        d, oracle = by_name(name), by_name(name)
        approx = as_approx(d)
        for w in data.draw(st.permutations(words)):
            got = approx.query(w, r)
            assert got == oracle.at(w), (name, w)
            assert isinstance(got, Dyadic) == dyadic_replies(name), name

    @pytest.mark.parametrize(
        "name", [n for n in REPLY_NAMES if by_name(n).conservative])
    def test_pullback_equals_at_backed(self, name):
        weak = as_weak(parse_function("fz_norm:0,2,4"))
        d, oracle = by_name(name), by_name(name)
        approx, backed = as_approx(d), at_backed(oracle)
        for r in range(17):
            for x in (W("0110"), W("1"), W("λ")):
                assert pullback_approx(approx, weak, x, r) == \
                    pullback_approx(backed, weak, x, r), (name, x, r)


class TestNames:
    def test_round_trip(self):
        for name in ("uniform", "allin_zeros", "pattern:01", "zbettor:1",
                     "conservative:allin_zeros", "savings:zbettor:pow2",
                     "conservative:zbettor:0,2,4"):
            assert by_name(name) is not None

    def test_unknown(self):
        with pytest.raises(ValueError):
            by_name("martin")

    def test_neither_fn_nor_product_form(self):
        # a strategy needs a value function or a product form to fold
        with pytest.raises(ValueError, match="needs fn or product_form"):
            ExactMartingale("x")
