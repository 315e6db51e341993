import math
from fractions import Fraction

import pytest

from dymart.dyadic import Dyadic, Word, all_words
from dymart.errors import PrecisionContractError
from dymart.funcs import AffineFn, IdentityFn, as_weak
from dymart.martingale import (ApproxMartingale, allin_zeros, as_approx,
                               conservative_transform, pattern_bettor,
                               uniform)
from dymart.pullback import (StrongVariationCert, bracket_depth,
                             certify_bracket, grid_exponent, inner_max,
                             lower_shift,
                             pullback_approx, pullback_martingale,
                             shift_stats, squeeze_bound, transfer_witness,
                             upper_shift)
from dymart.tightness import NormalizedInsertionFn, ZeroInsertionFn, \
    z_bettor

from helpers import NoisyApproxMartingale, NoisyWeakFn, brute_force_shift, \
    scan_sum_max

W = Word.parse
F = Fraction

SHIFT_PAIRS = [
    (uniform(), IdentityFn()),
    (z_bettor("1"), ZeroInsertionFn("1", scaled=True)),
    (conservative_transform(allin_zeros()), IdentityFn()),
    (pattern_bettor("01"), AffineFn(-1, Dyadic(1, 2))),
    (conservative_transform(z_bettor("0,2,4")),
     ZeroInsertionFn("0,2,4", scaled=True)),
]


class TestShiftExamples:
    def test_upper_identity_neighbors(self):
        # the cell itself plus both closed-endpoint neighbors
        assert upper_shift(uniform(), IdentityFn(), W("01"), 2) == 3

    def test_upper_whole_interval(self):
        for n in range(6):
            assert upper_shift(uniform(), IdentityFn(), W("λ"), n) == 1

    def test_lower_identity(self):
        assert lower_shift(uniform(), IdentityFn(), W("01"), 2) == 1

    def test_lower_at_own_depth_is_value(self):
        for d, f in [(conservative_transform(allin_zeros()), IdentityFn()),
                     (pattern_bettor("10"), IdentityFn())]:
            for w in all_words(4):
                assert lower_shift(d, f, w, len(w)) == d.at(w)

    def test_degenerate_image_interval(self):
        # constant function: empty lower sum, at most two touching cells
        class Flat(IdentityFn):
            name = "flat"

            def at(self, q):
                return F(1, 2)

        d = uniform()
        assert lower_shift(d, Flat(), W("01"), 3) == 0
        # exactly the two cells touching the point 1/2
        assert upper_shift(d, Flat(), W("01"), 3) == F(4, 8) * 2

    def test_depth_guard(self):
        # no depth guard: at depth 40 the upper estimate still carries the
        # one straddling cell at the right endpoint
        assert lower_shift(uniform(), IdentityFn(), W("0"), 40) == 1
        assert upper_shift(uniform(), IdentityFn(), W("0"), 40) == \
            1 + F(2, 1 << 40)


def image_interval(f, x):
    lo = F(f.at(x.value()))
    hi = F(f.at_one()) if x.is_all_ones() else \
        F(f.at(Word(x.k + 1, x.n).value()))
    return lo, hi


class TestShiftAgainstBruteForce:
    @pytest.mark.parametrize("d,f", SHIFT_PAIRS,
                             ids=lambda p: getattr(p, "name", ""))
    def test_small_depths(self, d, f):
        for x in [W("λ"), W("0"), W("11"), W("010")]:
            lo, hi = image_interval(f, x)
            for n in range(0, 8):
                s = shift_stats(d, f, x, n)
                assert s.lower == brute_force_shift(d, lo, hi, len(x), n,
                                                    inner=True)
                assert s.upper == brute_force_shift(d, lo, hi, len(x), n,
                                                    inner=False)

    @pytest.mark.parametrize("d,f", SHIFT_PAIRS,
                             ids=lambda p: getattr(p, "name", ""))
    def test_enumerate_equals_subtree(self, d, f):
        # block sums and block maxima against the literal in-order scan of
        # the inside cells, and the upper shift against the brute force
        pf = d.product_form
        desc = pf.descriptor()
        for x in [W("λ"), W("1"), W("001")]:
            lo, hi = image_interval(f, x)
            for n in (0, 3, 9, 12):
                a = max(0, math.ceil(lo * (1 << n)))
                b = max(a, min(1 << n, math.floor(hi * (1 << n))))
                sn, sd, mn, md = scan_sum_max(desc, pf.classes(n), n, a, b)
                unit = d.initial * F(1 << len(x), 1 << n)
                s = shift_stats(d, f, x, n)
                assert s.lower == F(sn, 1 << sd) * unit
                assert inner_max(d, f, x, n) == F(mn, 1 << md) * unit
                assert s.upper == brute_force_shift(d, lo, hi, len(x), n,
                                                    inner=False)

    def test_subtree_works_for_generic_martingales(self):
        from dymart.martingale import savings_wrapper
        d = savings_wrapper(allin_zeros())
        assert d.product_form is None
        f = IdentityFn()
        for x in [W("0"), W("01")]:
            lo, hi = image_interval(f, x)
            for n in (2, 6, 9):
                s = shift_stats(d, f, x, n)
                assert s.lower == brute_force_shift(d, lo, hi, len(x), n,
                                                    inner=True)
                assert s.upper == brute_force_shift(d, lo, hi, len(x), n,
                                                    inner=False)
            with pytest.raises(ValueError):
                inner_max(d, f, x, 2)
        # and it reaches depths no cell scan could
        deep = shift_stats(d, f, W("0"), 40)
        assert deep.lower <= deep.upper


class TestChainAndSqueeze:
    @pytest.mark.parametrize("d,f", SHIFT_PAIRS,
                             ids=lambda p: getattr(p, "name", ""))
    def test_monotone_chain(self, d, f):
        for x in all_words(3):
            stats = [shift_stats(d, f, x, n) for n in range(len(x) + 7)]
            for a, b in zip(stats, stats[1:]):
                assert a.lower <= b.lower
                assert b.upper <= a.upper
            for n, s in enumerate(stats):
                assert s.lower <= s.upper
                # every inside cell y obeys 2^(|x|-|y|) d(y) <= lower(x;|y|)
                top = inner_max(d, f, x, n)
                assert top <= s.lower or top == 0

    @pytest.mark.parametrize("d,f", SHIFT_PAIRS,
                             ids=lambda p: getattr(p, "name", ""))
    def test_squeeze_for_conservative(self, d, f):
        if d.conservative is None and not d.name.startswith("zbettor:1"):
            pytest.skip("squeeze needs conservative bet ratios")
        for x in all_words(3):
            for n in range(len(x) + 7):
                s = shift_stats(d, f, x, n)
                assert s.upper - s.lower <= squeeze_bound(len(x), n)

    def test_squeeze_fails_for_aggressive_bettor(self):
        # a bunched insertion set makes the raw bettor's straddling cell
        # carry capital 8, blowing past the conservative gap bound
        d = z_bettor("0,1,2")
        f = ZeroInsertionFn("0,1,2", scaled=True)
        x = W("00")
        s = shift_stats(d, f, x, 3)
        assert s.upper - s.lower > squeeze_bound(2, 3)

    def test_gap_bound_vanishes_at_depth_24(self):
        for x_len in range(6):
            assert squeeze_bound(x_len, x_len + 24) < F(1, 64)


class TestPullbackApprox:
    def test_root_value_close_to_one(self):
        v = pullback_approx(as_approx(uniform()),
                            as_weak(ZeroInsertionFn("1", scaled=True)),
                            W("λ"), 10)
        assert abs(v - 1) <= F(1, 1 << 10)

    def test_identity_recovers_martingale(self):
        for d in (uniform(), conservative_transform(allin_zeros()),
                  pattern_bettor("01")):
            weak = as_weak(IdentityFn())
            for x in all_words(3):
                for r in (4, 8):
                    v = pullback_approx(as_approx(d), weak, x, r)
                    assert abs(v - d.at(x)) <= F(1, 1 << r), (d.name, x, r)

    def test_identity_with_adversarial_noise(self):
        d = conservative_transform(allin_zeros())
        noisy_d = NoisyApproxMartingale(d)
        noisy_f = NoisyWeakFn(IdentityFn())
        for x in [W("0"), W("10"), W("011")]:
            for r in (4, 6):
                v = pullback_approx(noisy_d, noisy_f, x, r)
                assert abs(v - d.at(x)) <= F(1, 1 << r)

    def test_bracketed_by_exact_shifts(self):
        d = conservative_transform(z_bettor("1"))
        f = ZeroInsertionFn("1", scaled=True)
        for x in [W("λ"), W("1"), W("10"), W("111")]:
            r = 4
            v = pullback_approx(as_approx(d), as_weak(f), x, r)
            ok, lo, hi = certify_bracket(d, f, x, r, v)
            assert ok, (x, v, lo, hi)

    def test_sandwich_with_exact_values(self):
        # with exact d-queries the cover total sits exactly between the
        # shifts at the cover's own depth: the rounded endpoints are within
        # 2^-m of the true image interval, so inside-cells of the image are
        # inside [a, b] and cells of [a, b] still touch the image
        for d, f in [(conservative_transform(z_bettor("1")),
                      ZeroInsertionFn("1", scaled=True)),
                     (pattern_bettor("10"), AffineFn(-1, Dyadic(1, 2)))]:
            for x in [W("0"), W("11"), W("101")]:
                for r in (1, 2):
                    m = grid_exponent(len(x), r)
                    v = pullback_approx(as_approx(d), as_weak(f), x, r)
                    s = shift_stats(d, f, x, m)
                    assert s.lower <= v <= s.upper, (d.name, x, r)

    def test_total_of_mixed_dyadic_and_general_replies(self):
        # replies off by -2^-r/3 on every other cover word are not dyadic;
        # the total must equal the plain Fraction sum over the cover
        d = conservative_transform(z_bettor("0,2,4"))
        f = NormalizedInsertionFn("0,2,4")
        x, r = W("01"), 6
        m = grid_exponent(len(x), r)

        def reply(w, p):
            off = F(-1, 3 << p) if (w.k + len(w)) % 2 else F(0)
            return d.at(w) + off

        seen = []
        d_hat = ApproxMartingale(
            "mixed", lambda w, p: seen.append(w) or reply(w, p),
            conservative=d.conservative)
        v = pullback_approx(d_hat, as_weak(f), x, r)
        assert any(reply(w, m).denominator % 3 == 0 for w in seen)
        assert any(reply(w, m).denominator % 3 for w in seen)
        want = sum((reply(w, m) / (1 << len(w)) for w in seen), F(0))
        assert v == want * (1 << len(x))

    def test_requires_conservative_cert(self):
        with pytest.raises(ValueError):
            pullback_approx(as_approx(allin_zeros()), as_weak(IdentityFn()),
                            W("0"), 4)

    def test_contract_violation_detected(self):
        bad_f = NoisyWeakFn(AffineFn(3, Dyadic(0)))  # maps far outside [0,1]
        with pytest.raises(PrecisionContractError):
            pullback_approx(as_approx(uniform()), bad_f, W("1"), 4)

    def test_grid_exponent_formula(self):
        assert grid_exponent(3, 4) == 36
        assert bracket_depth(3, 4) == 44


class TestPullbackMartingale:
    def test_identity_uniform_stays_uniform(self):
        pm = pullback_martingale(as_approx(uniform()), as_weak(IdentityFn()))
        for x in all_words(3):
            assert abs(pm.query(x, 8) - 1) <= F(1, 1 << 8)

    def test_approximate_averaging_identity(self):
        d = conservative_transform(z_bettor("1"))
        f = ZeroInsertionFn("1", scaled=True)
        pm = pullback_martingale(as_approx(d), as_weak(f))
        r = 12
        tol = 3 * F(1, 1 << r)
        cache = {}

        def q(w):
            if w not in cache:
                cache[w] = pm.query(w, r)
            return cache[w]

        for x in all_words(8):
            assert abs(q(x) - (q(x.append(0)) + q(x.append(1))) / 2) <= tol, x

    def test_insertion_pullback_of_its_bettor_stays_flat(self):
        # capital does NOT transfer through the insertion map: the census
        # factor in the image width exactly cancels the bettor's growth, so
        # the pullback is the uniform strategy (this is the whole point of
        # the tightness family)
        d = z_bettor("1")
        f = ZeroInsertionFn("1", scaled=True)
        for j in range(6):
            x = Word((1 << j) - 1, j)  # 1^j, the stretched-sequence preimage
            s = shift_stats(d, f, x, 14)
            assert s.lower <= 1 <= s.upper
            assert s.upper - s.lower <= squeeze_bound(j, 14)


def make_affine_cert():
    # f(t) = t/2 + 1/4 strongly increases everywhere with C = 1/2
    f = AffineFn(-1, Dyadic(1, 2))
    cert = StrongVariationCert(center=F(11, 32), neighborhood=(F(0), F(1)),
                               C=F(1, 2))
    return f, cert


class TestTransferWitness:
    def test_identity_two_bit_extension(self):
        d = uniform()
        cert = StrongVariationCert(center=F(11, 32),
                                   neighborhood=(F(0), F(1)), C=F(1))
        assert cert.ell == 0
        x = W("01")
        y = W("0101")  # contains the center's image (identity)
        rep = transfer_witness(d, IdentityFn(), cert, x, y)
        assert rep.ok, rep.lines()

    def test_halved_slope_needs_one_more_bit(self):
        f, cert = make_affine_cert()
        assert cert.ell == 1
        x = W("01")
        # image of Γ_x = [3/8, 1/2]; center 11/32 maps to 27/64
        y = W("01101")
        assert len(y) == len(x) + cert.ell + 2
        rep = transfer_witness(uniform(), f, cert, x, y)
        assert rep.ok, rep.lines()

    def test_insertion_map_witness(self):
        # finite insertion sets are strongly increasing with C = 2^-(|Z|+1)
        f = ZeroInsertionFn("1", scaled=True)
        C = F(1, 4)
        cert = StrongVariationCert(center=F(21, 64),
                                   neighborhood=(F(1, 4), F(1, 2)), C=C)
        assert cert.ell == 2
        x = W("01")
        image = f.at(cert.center)  # exact dyadic 21/128
        y_len = len(x) + cert.ell + 2
        y = Word((image * (1 << y_len)).__floor__(), y_len)  # cell ∋ image
        rep = transfer_witness(conservative_transform(z_bettor("1")), f,
                               cert, x, y)
        assert rep.ok, rep.lines()

    def test_hypothesis_vs_conclusion_kinds(self):
        f, cert = make_affine_cert()
        x = W("01")
        bad_y = W("00000")  # wrong alignment: image containment fails
        rep = transfer_witness(uniform(), f, cert, x, bad_y)
        assert not rep.ok
        kinds = {v.kind for v in rep.violations}
        assert {"hypothesis", "conclusion"} <= kinds
        # a cert with an inflated constant trips hypothesis checks only
        weak_cert = StrongVariationCert(center=F(11, 32),
                                        neighborhood=(F(0), F(1)), C=F(2, 3))
        assert weak_cert.ell == 1
        rep2 = transfer_witness(uniform(), f, weak_cert, x, W("01101"))
        assert any(v.kind == "hypothesis" for v in rep2.violations)
        assert all(v.kind == "hypothesis" for v in rep2.violations)

    def test_length_precondition(self):
        f, cert = make_affine_cert()
        with pytest.raises(ValueError):
            transfer_witness(uniform(), f, cert, W("01"), W("011"))
