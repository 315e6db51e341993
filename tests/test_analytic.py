import dataclasses
import functools
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart import config
from dymart.analytic import (DOUBLINGS, _cos_coeff, _exp_coeff,
                             _fixed_point_sum, _LevelTable, _sin_coeff,
                             builtin_spec, certified_sign, derivative_spec,
                             eval_approx, eval_point, eval_schedule,
                             find_root, series, tail_constants)
from dymart.dyadic import Dyadic, Word
from dymart.errors import AnchorError, SignUndecidableError
from dymart.funcs import QuotientFn

from helpers import (cos_interval, exp_interval, horner, in_interval,
                     ln1p_interval, noisy_spec, sin_interval)

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
        # the builtin oracles step their last (n, n!) pair; the replies are
        # those of a fresh math.factorial in any query order
        ns = list(range(601))
        if order == "shuffled":
            random.Random("factorial").shuffle(ns)
        for n in ns:
            exact = F(1 if (n // 2) % 2 == 0 else -1, math.factorial(n))
            assert _exp_coeff(n) == F(1, math.factorial(n)), n
            assert _sin_coeff(n) == (exact if n % 2 == 1 else 0), n
            assert _cos_coeff(n) == (exact if n % 2 == 0 else 0), n


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
        t = Dyadic.from_fraction(lo + (hi - lo) * F(k, 1 << bits))
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
