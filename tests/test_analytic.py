import dataclasses
import functools
import json
import math
import numbers
import random
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart import analytic, config
from dymart.analytic import (DOUBLINGS, HORNER_GUARD, _as_pair,
                             _fixed_point_sum, _LevelTable, builtin_spec,
                             certified_sign, derivative_spec, eval_approx,
                             eval_point, eval_schedule, find_root, series,
                             tail_constants)
from dymart.dyadic import Dyadic, Word, exact_ceil_lg
from dymart.errors import AnchorError, DymartError, SignUndecidableError
from dymart.funcs import QuotientFn

from helpers import (cos_interval, exp_interval, find_root_reference,
                     horner, in_interval, ln1p_interval, noisy_spec,
                     sin_interval, tail_constants_reference,
                     validate_reference)

W = Word.parse
F = Fraction


def _noisy(name):
    return noisy_spec(builtin_spec(name))


# name -> (spec whose approximators sit at the edge of their contracts,
# interval oracle of the true function)
ADVERSARIAL = {
    "exp": (lambda: _noisy("exp"), exp_interval),
    "sin": (lambda: _noisy("sin"), sin_interval),
    "cos": (lambda: _noisy("cos"), cos_interval),
    "ln1p": (lambda: _noisy("ln1p"), ln1p_interval),
    "geom": (lambda: _noisy("geom"), lambda t: (1 / (1 - t),) * 2),
    "exp-3/2": (lambda: _noisy("exp").shifted(F(3, 2)),
                lambda t: tuple(v - F(3, 2) for v in exp_interval(t))),
    "sin'": (lambda: derivative_spec(_noisy("sin")), cos_interval),
}


# name -> (spec, interval oracle taking (t, terms)) for the fixed-point
# sum; every spec also runs through noisy_spec
FIXED_POINT = {
    "exp": (lambda: builtin_spec("exp"), exp_interval),
    "sin": (lambda: builtin_spec("sin"), sin_interval),
    "cos": (lambda: builtin_spec("cos"), cos_interval),
    "ln1p": (lambda: builtin_spec("ln1p"), ln1p_interval),
    "geom": (lambda: builtin_spec("geom"), lambda t, _: (1 / (1 - t),) * 2),
    "exp-3/2": (lambda: builtin_spec("exp").shifted(F(3, 2)),
                lambda t, terms: tuple(v - F(3, 2)
                                       for v in exp_interval(t, terms))),
    "sin'": (lambda: derivative_spec(builtin_spec("sin")), cos_interval),
}


@functools.cache
def _exp_file_spec():
    """A ``kind = series`` file with exp's coefficients and a loose term
    bound: k = 8 and l = 4, so m_s = 4 (s + 9).  The terms 5^n / n! grow
    up to n = 5, so the monotone tail starts at 4."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp27.cfg"
        path.write_text("kind = series\ncoeffs = exp\nC = 27\nr = 4\n"
                        "eps = 1\ntail_from = 4\n")
        return config.parse_series(f"@{path}")


BIG = 1 << 20

# FIXED_POINT, the exp file, and a series at its term bound:
# c_n = 2^20 / 2^n, so f(t) = 2^21 / (2 - t), whose slope of up to 2^21
# carries the rounding of z into the sum
HORNER = dict(FIXED_POINT, **{
    "exp file": (_exp_file_spec, exp_interval),
    "at the term bound": (
        lambda: series("big", lambda n: F(BIG, 1 << n), BIG, 1, 1),
        lambda t, _: (F(2 * BIG) / (2 - t),) * 2),
})


def _counting(spec, log, centers=None):
    """The spec with every coefficient query (n, r) appended to log, and
    every center query r to centers when it is given."""
    inner, inner_center = spec.coeff_approx, spec.center_approx

    def coeff(n, r):
        log.append((n, r))
        return inner(n, r)

    def center(r):
        if centers is not None:
            centers.append(r)
        return inner_center(r)
    return dataclasses.replace(spec, coeff_approx=coeff, center_approx=center)


class TestTailConstants:
    def test_examples(self):
        assert tail_constants(F(1), F(1, 2), F(1, 2)) == (1, 1)
        assert tail_constants(F(1), F(1), F(1)) == (1, 1)
        assert tail_constants(F(4), F(1), F(1)) == (3, 1)
        assert tail_constants(F(1), F(1, 2), F(1, 4)) == (2, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=-1, max_value=64, max_denominator=64),
           st.fractions(min_value=-1, max_value=4, max_denominator=64),
           st.fractions(min_value=-1, max_value=4, max_denominator=64))
    def test_integer_powers_are_the_fraction_loop(self, C, radius, margin):
        assert _verdict(lambda: tail_constants(C, radius, margin)) == \
            _verdict(lambda: tail_constants_reference(C, radius, margin))

    def test_tail_bound_holds_for_exp(self):
        # sum_{n>=m} (1/n!) z^n <= 2^(k - m/l) at z = r = 1, m <= 30
        spec = builtin_spec("exp")
        k, ell = spec.constants
        for m in range(31):
            tail_lo = sum(F(1, math.factorial(n)) for n in range(m, 80))
            tail_hi = tail_lo + 2 * F(1, math.factorial(80))
            # exact comparison of tail_hi <= 2^(k - m/l): raise to the l-th
            lhs = tail_hi ** ell
            rhs = F(2) ** (k * ell - m)
            assert lhs <= rhs, m


class TestBuiltins:
    def test_all_validate(self):
        for name in ("exp", "sin", "cos", "ln1p", "geom", "poly:1,-1/2",
                     "poly:1,2,3"):
            assert builtin_spec(name).validate()

    def test_geom_constants(self):
        spec = builtin_spec("geom")
        assert (spec.term_bound, spec.radius, spec.margin) == \
            (1, F(1, 2), F(1, 4))
        # |c_n| (r+eps)^n = (3/4)^n <= 1
        assert all(F(3, 4) ** n <= 1 for n in range(40))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_spec("zeta")

    def test_named_specs_are_built_once(self):
        for name in ("exp", "sin", "cos", "ln1p", "geom"):
            assert builtin_spec(name) is builtin_spec(name)
        assert builtin_spec("poly:1,2") is not builtin_spec("poly:1,2")

    @pytest.mark.parametrize("name", ["exp", "sin", "cos", "ln1p", "geom",
                                      "poly:1,-1/2"])
    def test_replaced_spec_computes_its_own_constants(self, name):
        # ``replace`` copies the fields, not the cached properties
        spec = builtin_spec(name)
        k, ell = spec.constants
        same = dataclasses.replace(spec)
        assert same == spec and same is not spec
        assert "constants" not in vars(same)
        assert same.constants == (k, ell)
        # k = ceil lg(C (r+eps)/eps) grows by 2 when C is four times larger
        assert dataclasses.replace(
            spec, term_bound=4 * spec.term_bound).constants == (k + 2, ell)

    @pytest.mark.parametrize("order", ["increasing", "shuffled"])
    def test_running_factorial_replies(self, order):
        # the builtin oracles step n! as their kept lists grow; the
        # replies are those of a fresh math.factorial in any query order
        ns = list(range(601))
        if order == "shuffled":
            random.Random("factorial").shuffle(ns)
        exp_c, sin_c, cos_c = (builtin_spec(name).exact_coeff
                               for name in ("exp", "sin", "cos"))
        for n in ns:
            exact = F(1 if (n // 2) % 2 == 0 else -1, math.factorial(n))
            assert exp_c(n) == F(1, math.factorial(n)), n
            assert sin_c(n) == (exact if n % 2 == 1 else 0), n
            assert cos_c(n) == (exact if n % 2 == 0 else 0), n


class TestValidate:
    """Each failed check names the spec and the first failing term."""

    def test_term_bound(self):
        spec = dataclasses.replace(builtin_spec("exp"), term_bound=F(3, 2))
        with pytest.raises(ValueError) as err:
            spec.validate()
        assert str(err.value) == "exp: term bound fails at n=1: 2 > 3/2"

    def test_tail_monotone(self):
        # t^2 with the monotone tail declared from n = 0: t_2 = 4 > t_0 = 0
        spec = dataclasses.replace(builtin_spec("poly:0,0,1"),
                                   tail_monotone_from=0)
        with pytest.raises(ValueError) as err:
            spec.validate()
        assert str(err.value) == \
            "poly:0,0,1: tail not two-step monotone at n=0"

    def test_anchor_reach(self):
        spec = dataclasses.replace(builtin_spec("geom"), anchor=W(""))
        with pytest.raises(ValueError) as err:
            spec.validate()
        assert str(err.value) == "geom: anchor reaches 1 beyond radius 1/2"

    def test_no_exact_coefficients(self):
        spec = dataclasses.replace(builtin_spec("sin"), exact_coeff=None)
        with pytest.raises(ValueError) as err:
            spec.validate()
        assert str(err.value) == "sin: no exact coefficients to check"


class TestEval:
    def test_constant_series(self):
        spec = builtin_spec("poly:3/8")
        for s in (2, 10, 30):
            assert abs(eval_point(spec, F(5, 7), s) - F(3, 8)) <= F(1, 1 << s)

    def test_polynomial_exact_points(self):
        spec = builtin_spec("poly:1,2,3")  # 1 + 2t + 3t^2
        for t in (F(0), F(1, 2), F(1)):
            want = 1 + 2 * t + 3 * t * t
            assert abs(eval_point(spec, t, 20) - want) <= F(1, 1 << 20)

    def test_exp_at_half(self):
        spec = builtin_spec("exp")
        v = eval_approx(spec, W("1"), 10)
        lo, hi = exp_interval(F(1, 2))
        assert in_interval(v, lo, hi, F(1, 1 << 10))

    def test_sin_at_quarter(self):
        spec = builtin_spec("sin")
        v = eval_approx(spec, W("01"), 12)
        lo, hi = sin_interval(F(1, 4))
        assert in_interval(v, lo, hi, F(1, 1 << 12))

    def test_geom_on_left_half(self):
        spec = builtin_spec("geom")
        # geometric series: 1/(1-t) at t = 0.0a
        for a, s in ((W("1"), 8), (W("0101"), 12)):
            t = Fraction(a.value()) / 2
            v = eval_approx(spec, a, s)
            assert abs(v - 1 / (1 - t)) <= F(1, 1 << s)

    def test_precision_sweep_with_oracles(self):
        oracles = {"exp": exp_interval, "sin": sin_interval,
                   "cos": cos_interval, "ln1p": ln1p_interval}
        for name, oracle in oracles.items():
            spec = builtin_spec(name)
            shift = len(spec.anchor)
            for s in (4, 8, 12):
                for k in range(0, 16, 3):
                    a = Word(k, 4)
                    t = F(k, 1 << (4 + shift))
                    v = eval_approx(spec, a, s)
                    lo, hi = oracle(t)
                    assert in_interval(v, lo, hi, F(1, 1 << s)), (name, k, s)

    def test_anchor_violation(self):
        with pytest.raises(AnchorError):
            eval_point(builtin_spec("geom"), F(3, 4), 8)

    @pytest.mark.parametrize("name", list(ADVERSARIAL))
    def test_adversarial_approximators(self, name):
        # every coefficient and center reply off by exactly 2^-e, signs
        # hashed from the query: still within 2^-s of the oracle
        make_spec, oracle = ADVERSARIAL[name]
        spec = make_spec()
        shift = len(spec.anchor)
        for s in (4, 8, 12):
            for k in range(0, 16, 3):
                t = F(k, 1 << (4 + shift))
                v = eval_approx(spec, Word(k, 4), s)
                lo, hi = oracle(t)
                assert in_interval(v, lo, hi, F(1, 1 << s)), (name, k, s)

    def test_schedule_shape(self):
        spec = builtin_spec("exp")
        m_s, k, ell = eval_schedule(spec, 10)
        assert (k, ell) == (3, 1)
        assert m_s == 14


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)
positive = st.fractions(min_value=F(1, 8), max_value=2, max_denominator=16)


def _defining_coeff(name, n):
    """c_n of the named series ``name`` from its formula."""
    if name == "ln1p":
        return F((-1) ** (n + 1), n) if n else F(0)
    if name == "geom":
        return F(1)
    signs = {"exp": (1, 1, 1, 1), "sin": (0, 1, 0, -1),
             "cos": (1, 0, -1, 0)}[name]
    return F(signs[n % 4], math.factorial(n))


@st.composite
def query_orders(draw):
    """(n, r) coefficient queries: drawn indices below and past KEPT_TO,
    shuffled, repeated or descending, at drawn precisions, sometimes led
    by n = 300."""
    ns = draw(st.lists(st.integers(0, analytic.KEPT_TO + 44), min_size=1,
                       max_size=30))
    order = draw(st.sampled_from(["shuffled", "repeated", "descending"]))
    if order == "shuffled":
        ns = draw(st.permutations(ns))
    elif order == "repeated":
        ns = ns + ns[::-1] + ns
    else:
        ns = sorted(ns, reverse=True)
    if draw(st.booleans()):
        ns = [300] + ns
    return [(n, draw(st.integers(-8, 400))) for n in ns]


def _series_file_spec(coeffs):
    """The ``kind = series`` file spec of the explicit list ``coeffs``."""
    text = ",".join(map(str, coeffs))
    bound = max([F(1)] + [abs(c) * (1 << i) for i, c in enumerate(coeffs)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.cfg"
        path.write_text(f"kind = series\ncoeffs = {text}\nC = {bound}\n"
                        f"r = 1\neps = 1\nanchor = λ\n"
                        f"tail_from = {len(coeffs)}\n", encoding="utf-8")
        return config.parse_series(f"@{path}")


class TestKeptCoefficients:
    """The named oracles against their formulas, in any query order, and
    each coefficient below KEPT_TO one object however often it is asked."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(analytic._NAMED)), query_orders())
    def test_replies_are_the_formula(self, name, queries):
        # a spec fresh from its builder starts with an empty kept list;
        # the process's own spec has kept whatever earlier tests asked
        for spec in (analytic._NAMED[name](), builtin_spec(name)):
            first = {}
            for n, r in queries:
                reply = spec.coeff_approx(n, r)
                assert type(reply) is F, (n, r)
                assert reply == _defining_coeff(name, n), (n, r)
                if n < analytic.KEPT_TO:
                    assert reply is first.setdefault(n, reply), (n, r)
                    assert spec.exact_coeff(n) is reply

    @pytest.mark.parametrize("name", sorted(analytic._NAMED))
    def test_first_query_far_out(self, name):
        spec = analytic._NAMED[name]()
        far = spec.coeff_approx(300, 0)
        assert far == _defining_coeff(name, 300)
        for n in range(300, -1, -1):
            assert spec.coeff_approx(n, n) == _defining_coeff(name, n), n
        assert spec.coeff_approx(300, 7) == far

    @pytest.mark.parametrize("name", ["exp", "sin", "cos", "ln1p"])
    def test_kept_prefix_is_bounded(self, name):
        # c_n is kept below KEPT_TO only: past it each query builds its
        # coefficient afresh, so what a process keeps stays bounded
        spec, bound = analytic._NAMED[name](), analytic.KEPT_TO
        for n in (bound + 1, bound, bound - 1, 0):
            first, again = spec.coeff_approx(n, 0), spec.coeff_approx(n, 9)
            assert first == again == _defining_coeff(name, n), n
            assert (first is again) == (n < bound), n

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_rationals, min_size=1, max_size=6),
           st.integers(0, 40), st.integers(-8, 200))
    def test_zero_past_the_degree(self, coeffs, past, r):
        poly = builtin_spec("poly:" + ",".join(map(str, coeffs)))
        for spec in (poly, _series_file_spec(coeffs)):
            for n, c in enumerate(coeffs):
                assert spec.coeff_approx(n, r) == c
            n = len(coeffs) + past
            assert spec.coeff_approx(n, r) == 0
            assert spec.exact_coeff(n) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["exp", "sin", "cos", "ln1p", "geom", "poly"]),
           st.sampled_from(["plain", "shifted", "noisy"]), small_rationals,
           st.integers(0, 80), st.integers(0, 300))
    def test_derivative_reply_is_the_scaled_inner_reply(
            self, name, how, offset, m, r):
        # the defining reply (m + 1) * Fraction(c_{m+1}), with c_{m+1}
        # asked once, at r + ceil(lg(m + 1))
        inner = builtin_spec("poly:1,-2/3,0,5/7" if name == "poly" else name)
        if how == "shifted":
            inner = inner.shifted(offset)
        elif how == "noisy":
            inner = noisy_spec(inner)
        log = []
        reply = derivative_spec(_counting(inner, log)).coeff_approx(m, r)
        extra = exact_ceil_lg(F(m + 1))
        assert log == [(m + 1, r + extra)]
        assert type(reply) is F
        assert reply == (m + 1) * F(inner.coeff_approx(m + 1, r + extra))


class _SubFraction(F):
    pass


class _SubDyadic(Dyadic):
    __slots__ = ()


class _ForeignRational:
    """A rational that is neither an ``int`` nor a ``Fraction`` nor a
    ``Dyadic``, registered as a ``numbers.Rational``."""

    def __init__(self, num, den):
        self.numerator, self.denominator = num, den


numbers.Rational.register(_ForeignRational)


def _as_pair_reference(t):
    """The pair read by ``isinstance`` tests alone, which ``_as_pair``'s
    exact type tests must not change."""
    if isinstance(t, Dyadic):
        return t.num, 1 << t.exp
    if not isinstance(t, (F, int)):
        t = F(t)
    return t.numerator, t.denominator


class TestAsPair:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20),
           st.integers(0, 80))
    def test_every_kind_of_reply(self, num, den, exp):
        # each value beside the rational it stands for
        values = [(F(num, den), F(num, den)),
                  (_SubFraction(num, den), F(num, den)),
                  (Dyadic(num, exp), F(num, 1 << exp)),
                  (_SubDyadic(num, exp), F(num, 1 << exp)),
                  (num, F(num)), (num > 0, F(num > 0)),
                  (_ForeignRational(num, den), F(num, den))]
        for value, exact in values:
            pair = _as_pair(value)
            assert pair == _as_pair_reference(value), value
            assert pair[1] > 0 and F(*pair) == exact


class TestLevelTable:
    """The level key and the Horner width against their formulas over
    ``Fraction``s."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_rationals, min_size=1, max_size=6),
           small_rationals, st.lists(st.integers(1, 40), min_size=1,
                                     max_size=4), st.integers(0, 64))
    def test_key_is_the_formula(self, coeffs, center, levels, k):
        # one table across the levels, in drawn order: b_s =
        # ceil(lg(2 + max(|t - center0|, max_{n < m_s} |coeff_approx(n, 0)|)))
        spec = dataclasses.replace(
            series("drawn", lambda n: coeffs[n % len(coeffs)], 1, 1, 1),
            center_approx=lambda r: center)
        t = F(k, 64)
        table = _LevelTable(spec)
        for s in levels:
            m_s = eval_schedule(spec, s)[0]
            top = max(abs(coeffs[n % len(coeffs)]) for n in range(m_s))
            want = exact_ceil_lg(2 + max(abs(t - center), top))
            assert table.key(k, 64, s) == (s, want)

    @pytest.mark.parametrize("name", list(HORNER))
    def test_horner_width(self, name):
        # W = s + g + k + a + HORNER_GUARD, a = max(0, ceil(lg(1/(r+eps))))
        spec = HORNER[name][0]()
        k = spec.constants[0]
        a = max(0, exact_ceil_lg(1 / (spec.radius + spec.margin)))
        lo, _ = spec.anchor_interval
        table = _LevelTable(spec)
        for s in (4, 30, 100):
            g = eval_schedule(spec, s)[0].bit_length() + 2
            key = table.key(lo.numerator, lo.denominator, s)
            assert table.horner_table(key)[:2] == \
                (s + g + k + a + HORNER_GUARD, s + g)


class TestFixedPoint:
    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize("name", list(FIXED_POINT))
    def test_within_2_pow_minus_s_of_oracle(self, name, noisy):
        make_spec, oracle = FIXED_POINT[name]
        spec = noisy_spec(make_spec()) if noisy else make_spec()
        lo, hi = spec.anchor_interval
        rng = random.Random(f"fixed-point:{name}:{noisy}")
        for s in (4, 8, 12, 64, 256):
            for _ in range(3):
                bits = rng.randint(1, min(s, 48))
                t = lo + (hi - lo) * F(rng.randint(0, 1 << bits), 1 << bits)
                total, sg = _fixed_point_sum(spec, t, s, _LevelTable(spec))
                # oracle intervals far narrower than 2^-s
                lo_f, hi_f = oracle(t, s + 80)
                assert in_interval(F(total, 1 << sg), lo_f, hi_f,
                                   F(1, 1 << s)), (name, noisy, s, t)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(HORNER)), st.booleans(),
           st.integers(4, 300), st.integers(0, 64), st.data())
    def test_horner_sum_within_2_pow_minus_s(self, name, noisy, s, bits,
                                             data):
        make_spec, oracle = HORNER[name]
        spec = noisy_spec(make_spec()) if noisy else make_spec()
        lo, hi = spec.anchor_interval
        k = data.draw(st.integers(0, 1 << bits))
        t = Dyadic(lo + (hi - lo) * F(k, 1 << bits))
        total, sg = _fixed_point_sum(spec, t, s, _LevelTable(spec))
        lo_f, hi_f = oracle(F(t.num, 1 << t.exp), s + 80)
        assert in_interval(F(total, 1 << sg), lo_f, hi_f, F(1, 1 << s))

    def test_term_count_is_the_schedule(self):
        spec = builtin_spec("exp").shifted(F(3, 2))
        for s in (6, 18, 34, 136):
            for t in (F(0), F(5, 16), F(405, 1024), F(1)):
                log = []
                counted = _counting(spec, log)
                _fixed_point_sum(counted, t, s, _LevelTable(counted))
                terms = {n for n, r in log if r > 0}
                assert len(terms) == eval_schedule(spec, s)[0], (s, t)

    def test_exact_specs_query_no_coefficient(self, tmp_path):
        cfg_file = tmp_path / "half.cfg"
        cfg_file.write_text("kind = series\ncoeffs = -1/2,1\nC = 2\n"
                            "r = 1\neps = 1\nanchor = λ\ntail_from = 2\n")
        specs = {
            "poly:-1/2,1": builtin_spec("poly:-1/2,1"),
            "shifted poly": builtin_spec("poly:0,1").shifted(F(1, 2)),
            "poly'": derivative_spec(builtin_spec("poly:0,-1/2,1/2")),
            "config file": config.parse_series(f"@{cfg_file}"),
        }
        for name, spec in specs.items():
            log = []
            root = find_root(_counting(spec, log), (Dyadic(0), Dyadic(1)), 16)
            assert root == Dyadic(1, 1), name
            assert log == [], name

    @pytest.mark.parametrize("p", [16, 64])
    def test_root_queries_each_level_once(self, p):
        spec = builtin_spec("exp").shifted(F(3, 2))
        log, centers = [], []
        find_root(_counting(spec, log, centers), (Dyadic(0), Dyadic(1)), p)

        def e_max(s):
            # b_s = ceil(lg(2 + 1)) = 2: |t| <= 1 and max |c_n(0)| = 1
            m_s = eval_schedule(spec, s)[0]
            return s + 2 * (m_s - 1) + 2 * m_s + 1
        levels = [s for s in ((p + 2) << i for i in range(DOUBLINGS + 1))
                  if e_max(s) in centers]
        assert levels[0] == p + 2
        # the center once per level at e_max, and once at precision 0
        assert sorted(centers) == [0] + [e_max(s) for s in levels]
        queried = [(n, r) for n, r in log if r > 0]
        assert len(set(queried)) == len(queried)
        assert len(queried) == sum(eval_schedule(spec, s)[0]
                                   for s in levels)

    def test_quotient_answers_once_at_a_zero(self):
        calls = []

        class Counted(QuotientFn):
            def at(self, q):
                calls.append(q)
                return super().at(q)
        f = Counted([F(-1, 2), 1], [1], 1)          # t - 1/2
        assert certified_sign(f, Dyadic(1, 1), 12) == 0
        assert len(calls) == 1


class TestDerivative:
    def test_exp_is_its_own_derivative(self):
        spec = builtin_spec("exp")
        dspec = derivative_spec(spec)
        assert dspec.validate()
        for k in range(0, 16, 2):
            a = Word(k, 4)
            s = 12
            v1 = eval_approx(spec, a, s)
            v2 = eval_approx(dspec, a, s)
            assert abs(v1 - v2) <= 2 * F(1, 1 << s)

    def test_polynomial_derivative_exact(self):
        dspec = derivative_spec(builtin_spec("poly:1,2,3"))
        for t in (F(0), F(1, 4), F(1)):
            want = 2 + 6 * t
            assert abs(eval_point(dspec, t, 24) - want) <= F(1, 1 << 24)

    def test_sin_derivative_is_cos(self):
        dspec = derivative_spec(builtin_spec("sin"))
        for k in range(0, 16, 2):
            t = F(k, 16)
            lo, hi = cos_interval(t)
            assert in_interval(eval_point(dspec, t, 12), lo, hi,
                               F(1, 1 << 12))

    def test_second_derivative_of_sin_is_negated_sin(self):
        d2 = derivative_spec(derivative_spec(builtin_spec("sin")))
        assert d2.validate()
        for k in range(0, 16, 3):
            t = F(k, 16)
            lo, hi = sin_interval(t)
            assert in_interval(-eval_point(d2, t, 10), lo, hi, F(1, 1 << 10))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=64)
unit_points = st.fractions(min_value=0, max_value=1, max_denominator=1 << 12)


class TestPolynomialSigns:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6), unit_points,
           st.booleans())
    def test_sign_is_the_oracle_sign(self, coeffs, t, root_at_t):
        if root_at_t:
            # times (x - t): t is an exact root
            coeffs = [a - t * b for a, b in zip([F(0)] + coeffs,
                                                coeffs + [F(0)])]
        spec = builtin_spec("poly:" + ",".join(map(str, coeffs)))
        value = horner(coeffs, t)
        want = (value > 0) - (value < 0)
        assert certified_sign(spec, t, 8) == want
        if root_at_t:
            assert want == 0
        dspec = derivative_spec(spec)
        slope = horner([i * c for i, c in enumerate(coeffs)][1:], t)
        assert certified_sign(dspec, t, 8) == (slope > 0) - (slope < 0)


class TestRoots:
    def test_linear_half(self):
        root = find_root(builtin_spec("poly:-1/2,1"), (Dyadic(0), Dyadic(1)),
                         20)
        assert root == Dyadic(1, 1)

    def test_sqrt_half(self):
        root = find_root(builtin_spec("poly:-1/2,0,1"),
                         (Dyadic(0), Dyadic(1)), 20)
        ref = Dyadic(math.isqrt(2 ** 41), 21)  # isqrt reference
        assert abs(Fraction(root) - Fraction(ref)) <= \
            F(1, 1 << 20) + F(1, 1 << 21)

    def test_log_three_halves(self):
        spec = builtin_spec("exp").shifted(F(3, 2))
        root = find_root(spec, (Dyadic(0), Dyadic(1)), 16)
        lo, hi = ln1p_interval(F(1, 2))  # ln(3/2)
        assert in_interval(Fraction(root), lo, hi, F(1, 1 << 16))

    def test_bracket_certified_by_signs(self):
        spec = builtin_spec("poly:-1/2,0,1")
        p = 12
        root = find_root(spec, (Dyadic(0), Dyadic(1)), p)
        eps = Dyadic(1, p)
        assert certified_sign(spec, root - eps, p) < 0
        assert certified_sign(spec, root + eps, p) > 0

    def test_same_sign_interval_rejected(self):
        with pytest.raises(ValueError):
            find_root(builtin_spec("poly:1,1"), (Dyadic(0), Dyadic(1)), 8)

    def test_flat_instance_reported(self):
        with pytest.raises(SignUndecidableError):
            find_root(builtin_spec("poly:0"), (Dyadic(0), Dyadic(1)), 6)

    def _probes(self, monkeypatch):
        """The points of every ``certified_sign`` call, in order."""
        import dymart.analytic
        real, probes = dymart.analytic.certified_sign, []

        def recording(evaluator, t, p, **kw):
            probes.append(Fraction(t))
            return real(evaluator, t, p, **kw)

        monkeypatch.setattr(dymart.analytic, "certified_sign", recording)
        return probes

    @pytest.mark.parametrize("coeffs, root, sixth", [
        # (t - 1/2)^2 (t - 1/8): the quarter 1/4 takes the upper sign, so
        # hi = 1/4 and the next midpoint is the root
        ("-1/32,3/8,-9/8,1", F(1, 8), F(1, 8)),
        # (t - 1/2)^2 (t - 7/8): the quarter 3/4 takes the lower sign, so
        # lo = 3/4 and the next midpoint is the root
        ("-7/32,9/8,-15/8,1", F(7, 8), F(7, 8)),
    ])
    def test_quarter_probe_moves_one_end(self, monkeypatch, coeffs, root,
                                         sixth):
        probes = self._probes(monkeypatch)
        found = find_root(builtin_spec(f"poly:{coeffs}"),
                          (Dyadic(0), Dyadic(1)), 8)
        assert Fraction(found) == root
        assert probes[:6] == [0, 1, F(1, 2), F(1, 4), F(3, 4), sixth]

    def test_undecidable_midpoint_and_quarters_raise(self, monkeypatch):
        # (t - 1/4)^2 (t - 1/2) (t - 3/4)^2 is exactly 0 at the midpoint
        # and both quarters, so the bisection refuses the simple root 1/2
        probes = self._probes(monkeypatch)
        with pytest.raises(SignUndecidableError) as err:
            find_root(builtin_spec("poly:-9/512,57/256,-17/16,19/8,-5/2,1"),
                      (Dyadic(0), Dyadic(1)), 8)
        assert probes == [0, 1, F(1, 2), F(1, 4), F(3, 4)]
        assert str(err.value) == ("sign-undecidable near [0/1, 1/1] after "
                                  "the escalation budget")


class TestCoarseBounds:
    """A summed sign below p = -2 and an evaluation whose schedule has no
    term are refused by a ValueError that names the bound, before any
    query."""

    @pytest.mark.parametrize("p", [-3, -4, -40])
    def test_root_of_a_series_below_p_minus_2(self, p):
        log, centers = [], []
        spec = _counting(builtin_spec("exp").shifted(F(3, 2)), log, centers)
        with pytest.raises(ValueError,
                           match=rf"needs p >= -2, got p = {p}$"):
            find_root(spec, (Dyadic(0), Dyadic(1)), p)
        assert log == centers == []

    @pytest.mark.parametrize("name", list(analytic._NAMED))
    def test_sign_of_a_series_below_p_minus_2(self, name):
        log, centers = [], []
        spec = _counting(builtin_spec(name), log, centers)
        with pytest.raises(ValueError, match=r"needs p >= -2, got p = -3$"):
            certified_sign(spec, spec.anchor.value(), -3)
        assert log == centers == []

    def test_p_minus_2_sums_level_0_once(self, monkeypatch):
        # every level (p + 2) 2^i is s = 0 at p = -2: one sum, not nine
        levels, real = [], analytic._fixed_point_sum

        def counted(spec, t, s, table):
            levels.append(s)
            return real(spec, t, s, table)
        monkeypatch.setattr(analytic, "_fixed_point_sum", counted)
        spec = builtin_spec("exp").shifted(F(3, 2))
        assert certified_sign(spec, Dyadic(0), -2) == 0
        assert levels == [0]

    def test_p_minus_2_is_summed_as_before(self):
        # every level is s = 0, where exp - 3/2 is too small to call
        spec = builtin_spec("exp").shifted(F(3, 2))
        assert certified_sign(spec, Dyadic(0), -2) == 0
        with pytest.raises(SignUndecidableError):
            find_root(spec, (Dyadic(0), Dyadic(1)), -2)

    @pytest.mark.parametrize("p", [-3, -10])
    def test_exact_evaluators_keep_their_signs(self, p):
        poly = builtin_spec("poly:-1/2,1")
        assert certified_sign(poly, Dyadic(0), p) == -1
        assert certified_sign(poly, Dyadic(1, 1), p) == 0
        assert find_root(poly, (Dyadic(0), Dyadic(1)), p) == Dyadic(1, 1)
        assert certified_sign(QuotientFn([F(1), F(-1)], [F(1)], F(1)),
                              Dyadic(0), p) == 1

    @pytest.mark.parametrize("name", list(analytic._NAMED))
    def test_eval_below_minus_k(self, name):
        spec = builtin_spec(name)
        k = spec.constants[0]
        log, centers = [], []
        with pytest.raises(ValueError, match=rf"precision {-k - 1} is below "
                                             rf"-k = {-k}, so the schedule"):
            eval_point(_counting(spec, log, centers), spec.anchor.value(),
                       -k - 1)
        assert log == centers == []
        with pytest.raises(ValueError, match=r"precision -4 is below"):
            eval_point(spec, spec.anchor.value(), min(-4, -k - 1))

    @pytest.mark.parametrize("name", list(analytic._NAMED))
    def test_eval_at_minus_k_sums_l_terms(self, name):
        spec = builtin_spec(name)
        (k, ell), log = spec.constants, []
        assert eval_schedule(spec, -k)[0] == ell
        eval_point(_counting(spec, log), spec.anchor.value(), -k)
        # the magnitude pass, then the level's l terms
        assert [n for n, _ in log] == list(range(ell)) * 2


def _verdict(check):
    """True, or the type and text of the error ``check()`` raises."""
    try:
        return check()
    except (ValueError, DymartError) as exc:
        return type(exc), str(exc)


@st.composite
def validate_cases(draw):
    """A spec with drawn constants: a ``poly:`` spec, an explicit
    coefficient list built as a ``kind = series`` file builds it, or a
    named series, shifted or differentiated; the term bound drawn near the
    largest term, below it or negative, the tail's start drawn too."""
    kind = draw(st.sampled_from(["poly", "series", "named"]))
    if kind == "named":
        spec = builtin_spec(draw(st.sampled_from(
            ["exp", "sin", "cos", "ln1p", "geom"])))
        how = draw(st.sampled_from(["plain", "shifted", "derivative"]))
        if how == "shifted":
            spec = spec.shifted(draw(small_rationals))
        elif how == "derivative":
            spec = derivative_spec(spec)
    else:
        coeffs = draw(st.lists(small_rationals, max_size=8,
                               min_size=1 if kind == "poly" else 0))
        if kind == "poly":
            spec = builtin_spec("poly:" + ",".join(map(str, coeffs)))
        else:
            spec = series("series[drawn]", None, 1, draw(positive),
                          draw(positive), tail_from=len(coeffs),
                          polynomial=tuple(coeffs))
    bound = draw(st.one_of(
        st.just(spec.term_bound), small_rationals,
        st.fractions(min_value=F(1, 2), max_value=2,
                     max_denominator=8).map(lambda x: x * spec.term_bound)))
    return dataclasses.replace(
        spec, term_bound=bound,
        tail_monotone_from=draw(st.one_of(st.just(spec.tail_monotone_from),
                                          st.integers(0, 12))))


class TestValidateOracle:
    """``validate`` against its defining loop in ``tests/helpers.py``."""

    @settings(max_examples=300, deadline=None)
    @given(validate_cases())
    def test_verdict_and_message_are_the_oracles(self, spec):
        assert _verdict(spec.validate) == \
            _verdict(lambda: validate_reference(spec))

    @pytest.mark.parametrize("text, error", [
        ("coeffs = 1,1/2\nC = -1\ntail_from = 2\n",
         "term bound fails at n=0: 1 > -1"),
        ("coeffs = 0,0,1\nC = -1/2\ntail_from = 3\n",
         "term bound fails at n=0: 0 > -1/2"),
        ("coeffs = 1,4\nC = 2\ntail_from = 2\n",
         "term bound fails at n=1: 8 > 2"),
        ("coeffs = 0,1,0,2\nC = 100\ntail_from = 0\n",
         "tail not two-step monotone at n=1"),
    ])
    def test_series_file_verdicts(self, tmp_path, text, error):
        path = tmp_path / "s.cfg"
        path.write_text("kind = series\nr = 1\neps = 1\nanchor = λ\n" + text)
        with pytest.raises(ValueError) as err:
            config.parse_series(f"@{path}")
        assert str(err.value) == f"series[{path}]: {error}"


ROOT_QUERIES = Path(__file__).parent / "expected" / "root_queries.json"

# key of ROOT_QUERIES -> (named series, offset, interval, p); the roots
# of sin, cos and ln1p at p = 24 escalate to s = 2(p + 2), so each of
# their coefficients is asked at two levels, and exp - 5/4 shares its
# coefficients with exp - 3/2
PINNED_ROOTS = {
    f"{name}-{offset} p={p}": (name, offset, interval, p)
    for name, offset, interval, precisions in [
        ("exp", F(3, 2), (Dyadic(0), Dyadic(1)), (16, 32)),
        ("exp", F(5, 4), (Dyadic(0), Dyadic(1)), (32,)),
        ("sin", F(1, 2), (Dyadic(0), Dyadic(1)), (16, 24, 32)),
        ("cos", F(3, 4), (Dyadic(0), Dyadic(1)), (16, 24, 32)),
        ("ln1p", F(1, 4), (Dyadic(0), Dyadic(1, 1)), (16, 24, 32))]
    for p in precisions}


def _logged(spec, log, replies=None):
    """The spec with its queries appended to log, ``["center", r]`` for
    ``center_approx(r)`` and ``[n, r]`` for ``coeff_approx(n, r)``, and
    each coefficient reply appended to replies when it is given."""
    coeff, center = spec.coeff_approx, spec.center_approx

    def logged_coeff(n, r):
        log.append([n, r])
        reply = coeff(n, r)
        if replies is not None:
            replies.append((n, reply))
        return reply

    def logged_center(r):
        log.append(["center", r])
        return center(r)
    return dataclasses.replace(spec, coeff_approx=logged_coeff,
                               center_approx=logged_center)


class TestPinnedQueries:
    """Roots of shifted named series make the coefficient and center
    queries of ``tests/expected/root_queries.json``, in its order:
    ``["center", r]`` for ``center_approx(r)``, ``[n, r]`` for
    ``coeff_approx(n, r)``."""

    @pytest.mark.parametrize("key", sorted(PINNED_ROOTS))
    def test_queries_in_order(self, key):
        name, offset, interval, p = PINNED_ROOTS[key]
        want = json.loads(ROOT_QUERIES.read_text())[key]
        log = []
        logged = _logged(builtin_spec(name).shifted(offset), log)
        assert str(find_root(logged, interval, p)) == want["root"]
        assert log == want["queries"]

    def test_file_holds_the_pinned_roots(self):
        assert sorted(json.loads(ROOT_QUERIES.read_text())) == \
            sorted(PINNED_ROOTS)

    def test_each_coefficient_is_built_once(self):
        # two roots of exp in one process make their pinned queries, and
        # every reply for n >= 1 is one object across the levels of a root
        # and across the roots: the kept coefficient, built once
        pinned = json.loads(ROOT_QUERIES.read_text())
        first = {}
        for key in ("exp-3/2 p=32", "exp-5/4 p=32"):
            name, offset, interval, p = PINNED_ROOTS[key]
            log, replies = [], []
            logged = _logged(builtin_spec(name).shifted(offset), log,
                             replies)
            assert str(find_root(logged, interval, p)) == pinned[key]["root"]
            assert log == pinned[key]["queries"]
            levels = {r for n, r in log if n == 1}
            assert len(levels) >= 2, key
            for n, reply in replies:
                if n >= 1:
                    assert reply is first.setdefault(n, reply), (key, n)
        assert len(first) > 30


@contextmanager
def _recorded_probes():
    """The (type, point, p) of every ``certified_sign`` call, in order."""
    real, probes = analytic.certified_sign, []

    def recording(evaluator, t, p, **kw):
        probes.append((type(t), t, p))
        return real(evaluator, t, p, **kw)

    analytic.certified_sign = recording
    try:
        yield probes
    finally:
        analytic.certified_sign = real


def _run_recorded(run, spec, interval, p):
    """(root or error verdict, probes) of one run of ``run``."""
    with _recorded_probes() as probes:
        outcome = _verdict(lambda: run(spec, interval, p))
    return outcome, probes


def _poly_spec(coeffs):
    return builtin_spec("poly:" + ",".join(map(str, coeffs)))


def _times_linear(coeffs, a):
    """The coefficients of (t - a) times the polynomial ``coeffs``."""
    return [x - a * y for x, y in zip([F(0)] + coeffs, coeffs + [F(0)])]


@st.composite
def dyadic_intervals(draw, top=1):
    """(lo, hi) on a 2^-e grid of [0, top], now and then empty or
    reversed, and now and then given as ``Fraction``s."""
    e = draw(st.integers(0, 5))
    n = top << e
    if draw(st.integers(0, 9)) == 0:
        lo, hi = draw(st.integers(0, n)), draw(st.integers(0, n))
    else:
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
    pair = (Dyadic(lo, e), Dyadic(hi, e))
    if draw(st.booleans()):
        pair = tuple(F(q) for q in pair)
    return pair


@st.composite
def simple_root_instances(draw):
    """A polynomial with a simple root in (0, 1), dyadic or not, times a
    factor with no root in [0, 1], or t^2 - c, on [0, 1]."""
    if draw(st.integers(0, 4)) == 0:
        c = draw(st.fractions(min_value=F(1, 64), max_value=F(63, 64),
                              max_denominator=64))
        return _poly_spec([-c, F(0), F(1)]), (Dyadic(0), Dyadic(1))
    if draw(st.booleans()):
        j = draw(st.integers(1, 12))
        a = F(draw(st.integers(1, (1 << j) - 1)), 1 << j)
    else:
        a = draw(st.fractions(min_value=F(1, 1000), max_value=F(999, 1000),
                              max_denominator=1000))
    # g(t) = c_0 + sum c_i t^i with c_0 > sum |c_i| has no root in [0, 1]
    rest = draw(st.lists(small_rationals, max_size=3))
    c0 = sum(abs(c) for c in rest) + draw(positive)
    sign = draw(st.sampled_from([1, -1]))
    coeffs = _times_linear([sign * c for c in [c0] + rest], a)
    return _poly_spec(coeffs), (Dyadic(0), Dyadic(1))


@st.composite
def exact_zero_instances(draw):
    """A polynomial whose zeros sit on the interval's midpoint, quarters
    and eighths with drawn multiplicities, one of them odd, so that
    midpoints and quarters are exact zeros."""
    lo, hi = draw(dyadic_intervals())
    lo, hi = F(lo), F(hi)
    points = [lo + (hi - lo) * F(k, 8) for k in range(1, 8)]
    odd = draw(st.integers(0, 6))
    coeffs = [F(draw(st.sampled_from([1, -1])))]
    for i, point in enumerate(points):
        times = draw(st.sampled_from([1, 3] if i == odd else [0, 0, 1, 2]))
        for _ in range(times):
            coeffs = _times_linear(coeffs, point)
    return _poly_spec(coeffs), (lo, hi)


# named series -> (offsets drawn, a little past the series' range on its
# anchor, and 1 / the anchor's right end)
SHIFTED = {"exp": (F(7, 8), F(23, 8), 1), "sin": (F(-1, 8), F(7, 8), 1),
           "cos": (F(1, 2), F(9, 8), 1), "ln1p": (F(-1, 16), F(7, 16), 2)}


@st.composite
def shifted_series_instances(draw):
    """exp, sin, cos or ln1p minus a drawn offset, on a subinterval of its
    anchor or, now and then, one reaching past it."""
    name = draw(st.sampled_from(sorted(SHIFTED)))
    low, high, top = SHIFTED[name]
    offset = draw(st.one_of(
        st.fractions(min_value=low, max_value=high, max_denominator=64),
        st.integers(0, 64).map(lambda k: low + (high - low) * F(k, 64))))
    reach = draw(st.integers(0, 9))
    if reach == 0:
        interval = (Dyadic(0), Dyadic(1))
    elif reach < 4:
        interval = (Dyadic(0), Dyadic(1, top - 1))
    else:
        lo, hi = draw(dyadic_intervals())
        interval = (Dyadic(F(lo) / top), Dyadic(F(hi) / top))
    return builtin_spec(name).shifted(offset), interval


class TestBisectionOracle:
    """``find_root`` against the ``Dyadic`` bisection of
    ``tests/helpers.py``: the same ``certified_sign`` calls, each with a
    ``Dyadic`` point, in the same order, and the same root or the same
    error text."""

    def _agree(self, spec, interval, p):
        got = _run_recorded(find_root, spec, interval, p)
        want = _run_recorded(find_root_reference, spec, interval, p)
        assert got == want
        assert all(kind is Dyadic for kind, _, _ in got[1])

    @settings(max_examples=150, deadline=None)
    @given(simple_root_instances(), st.integers(1, 40))
    def test_simple_roots(self, instance, p):
        self._agree(*instance, p)

    @settings(max_examples=150, deadline=None)
    @given(exact_zero_instances(), st.integers(0, 40))
    def test_exact_zeros(self, instance, p):
        self._agree(*instance, p)

    @settings(max_examples=60, deadline=None)
    @given(shifted_series_instances(), st.integers(1, 40))
    def test_shifted_series(self, instance, p):
        self._agree(*instance, p)

    @pytest.mark.parametrize("p", [-3, -1, 0, 1, 2])
    def test_coarse_precisions(self, p):
        # the bracket's goal width 2^(1-p) is 1 or more
        for coeffs in ([F(-1, 3), F(1)], [F(-1, 2), F(1)],
                       [F(-3, 4), F(1)]):
            self._agree(_poly_spec(coeffs), (Dyadic(0), Dyadic(1)), p)
            self._agree(_poly_spec(coeffs), (Dyadic(-4), Dyadic(4)), p)
        if p >= -1:
            # the first sign level is p + 2 >= 1
            self._agree(builtin_spec("exp").shifted(F(3, 2)),
                        (Dyadic(0), Dyadic(1)), p)
