import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart.dyadic import Dyadic, Word, all_words
from dymart.errors import PrecisionContractError
from dymart.funcs import AffineFn, IdentityFn, TableStepFn, WeakFn, as_weak
from dymart.martingale import (ApproxMartingale, ExactMartingale,
                               allin_zeros, as_approx,
                               conservative_transform, pattern_bettor,
                               savings_wrapper, uniform)
from dymart.pullback import (StrongVariationCert, _cell_ranges,
                             bracket_depth, certify_bracket, exact_total,
                             grid_exponent, pullback_approx,
                             pullback_martingale, shift_stats,
                             squeeze_bound, transfer_witness)
from dymart.tightness import NormalizedInsertionFn, ZeroInsertionFn, \
    z_bettor

from helpers import NoisyApproxMartingale, NoisyWeakFn, brute_force_shift, \
    cell_ranges_by_fractions, inner_max_by_scan, nondyadic_bettor, \
    pullback_by_words, random_product_forms, scan_sum_max

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
        assert shift_stats(uniform(), IdentityFn(), W("01"), 2).upper == 3

    def test_upper_whole_interval(self):
        for n in range(6):
            assert shift_stats(uniform(), IdentityFn(), W("λ"), n).upper == 1

    def test_lower_identity(self):
        assert shift_stats(uniform(), IdentityFn(), W("01"), 2).lower == 1

    def test_lower_at_own_depth_is_value(self):
        for d, f in [(conservative_transform(allin_zeros()), IdentityFn()),
                     (pattern_bettor("10"), IdentityFn())]:
            for w in all_words(4):
                assert shift_stats(d, f, w, len(w)).lower == d.at(w)

    def test_degenerate_image_interval(self):
        # constant function: empty lower sum, at most two touching cells
        class Flat(IdentityFn):
            name = "flat"

            def at(self, q):
                return F(1, 2)

        d = uniform()
        assert shift_stats(d, Flat(), W("01"), 3).lower == 0
        # exactly the two cells touching the point 1/2
        assert shift_stats(d, Flat(), W("01"), 3).upper == F(4, 8) * 2

    def test_depth_guard(self):
        # no depth guard: at depth 40 the upper estimate still carries the
        # one straddling cell at the right endpoint
        assert shift_stats(uniform(), IdentityFn(), W("0"), 40).lower == 1
        assert shift_stats(uniform(), IdentityFn(), W("0"), 40).upper == \
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
        # block sums against the literal in-order scan of the inside
        # cells, and the upper shift against the brute force
        pf = d.product_form
        for x in [W("λ"), W("1"), W("001")]:
            lo, hi = image_interval(f, x)
            for n in (0, 3, 9, 12):
                a = max(0, math.ceil(lo * (1 << n)))
                b = max(a, min(1 << n, math.floor(hi * (1 << n))))
                sn, sd, _, _ = scan_sum_max(pf, pf.classes(n), n, a, b)
                unit = F(1 << len(x), 1 << n)
                s = shift_stats(d, f, x, n)
                assert s.lower == F(sn, 1 << sd) * unit
                assert s.upper == brute_force_shift(d, lo, hi, len(x), n,
                                                    inner=False)

    def test_subtree_works_for_generic_martingales(self):
        # Dyadic block values (the savings wrappers of product forms) and
        # Fraction ones off the dyadics, totalled through exact_total
        f = IdentityFn()
        for d in (savings_wrapper(allin_zeros()),
                  savings_wrapper(pattern_bettor("011")),
                  nondyadic_bettor(),
                  conservative_transform(nondyadic_bettor())):
            assert d.product_form is None
            for x in [W("0"), W("01")]:
                lo, hi = image_interval(f, x)
                for n in (2, 6, 9):
                    s = shift_stats(d, f, x, n)
                    assert s.lower == brute_force_shift(
                        d, lo, hi, len(x), n, inner=True), d.name
                    assert s.upper == brute_force_shift(
                        d, lo, hi, len(x), n, inner=False), d.name
            # and it reaches depths no cell scan could
            deep = shift_stats(d, f, W("0"), 40)
            assert deep.lower <= deep.upper

    def test_flat_steps_and_empty_inner_range(self):
        # a monotone table with flat steps: D_x collapses to a point on the
        # grid (1/4, 5/8) or off every grid (1/3), so the inside range is
        # empty and upper holds only the one or two cells touching it
        f = TableStepFn(3, [F(0), F(1, 4), F(1, 4), F(1, 3), F(1, 3),
                            F(5, 8), F(5, 8), F(5, 8), F(1)], name="flat")
        assert f.monotone
        flat = 0
        for d in (pattern_bettor("01"), savings_wrapper(pattern_bettor("01")),
                  z_bettor("1")):
            for x in all_words(3):
                lo, hi = image_interval(f, x)
                flat += lo == hi
                for n in range(9):
                    s = shift_stats(d, f, x, n)
                    assert s.lower == brute_force_shift(
                        d, lo, hi, len(x), n, inner=True)
                    assert s.upper == brute_force_shift(
                        d, lo, hi, len(x), n, inner=False)
                    if lo == hi:
                        assert s.lower == 0
        assert flat == 3 * 4

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.integers(-3, 3),
           st.integers(1, 1 << 20), st.integers(1, 1 << 20),
           st.integers(0, 40), st.booleans())
    def test_cell_ranges_match_fractions(self, n, a, num, den, e, on_grid):
        # integer floor and ceiling divisions against Fraction floor and
        # ceil: ends off the dyadics, ends exactly on a grid point of
        # this depth or another, and ends outside [0, 1] to be clipped
        if on_grid:
            lo = F(num % ((1 << e) + 1), 1 << e)
        else:
            lo = F(num, den) + a
        for hi in (lo, lo + F(1, den), lo + F(num % 7, 1 << n),
                   F(den, num) + a):
            lo_, hi_ = min(lo, hi), max(lo, hi)
            assert _cell_ranges(lo_, hi_, n) == \
                cell_ranges_by_fractions(lo_, hi_, n)

    def test_no_per_cell_kernel_calls(self, monkeypatch):
        # every sum, boundary cells included, comes from the block walk
        import dymart._shiftcore_py
        import dymart.kernels

        def fail(*args):
            raise AssertionError("cell_value called")

        monkeypatch.setattr(dymart.kernels, "cell_value", fail)
        monkeypatch.setattr(dymart._shiftcore_py, "cell_value", fail)
        for d, f in SHIFT_PAIRS:
            for x in [W("λ"), W("0"), W("011")]:
                for n in (0, 5, 40):
                    shift_stats(d, f, x, n)
                r = 6
                v = pullback_approx(as_approx(d), as_weak(f), x, r) \
                    if d.conservative else d.at(x)
                certify_bracket(d, f, x, r, v)


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
                top = inner_max_by_scan(d, f, x, n)
                assert top <= s.lower or top == 0

    @pytest.mark.parametrize("d,f", SHIFT_PAIRS,
                             ids=lambda p: getattr(p, "name", ""))
    def test_squeeze_for_conservative(self, d, f):
        if not d.conservative and not d.name.startswith("zbettor:1"):
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

    def test_non_dyadic_replies_bracketed(self):
        # replies off the dyadics go to exact_total's Fraction remainder,
        # in the cover total and in the bracket's block sums alike
        d = conservative_transform(nondyadic_bettor())
        f = ZeroInsertionFn("1", scaled=True)
        for x in [W("λ"), W("1"), W("10"), W("011")]:
            for r in (2, 6):
                v = pullback_approx(as_approx(d), as_weak(f), x, r)
                ok, lo, hi = certify_bracket(d, f, x, r, v)
                assert ok, (x, r, v, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.integers(-5, 1 << 70),
                  st.builds(Dyadic, st.integers(-(1 << 70), 1 << 70),
                            st.integers(0, 90)),
                  st.fractions(max_denominator=1 << 40)),
        st.integers(-70, 70)), max_size=12))
    def test_exact_total_equals_fraction_sum(self, terms):
        want = sum((F(q) * F(2) ** s for q, s in terms), F(0))
        got = exact_total(iter(terms))
        assert got == want and type(got) is F

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.fractions(max_denominator=1 << 30),
                  st.builds(Dyadic, st.integers(-(1 << 70), 1 << 70),
                            st.integers(0, 90)),
                  st.integers(-5, 1 << 70)),
        st.integers(-70, 70)), min_size=1, max_size=40))
    def test_exact_total_mostly_non_dyadic(self, terms):
        # the non-dyadic terms, with either sign of shift, go to the
        # balanced sum together with the dyadic total
        want = sum((F(q) * F(2) ** s for q, s in terms), F(0))
        got = exact_total(iter(terms))
        assert got == want and type(got) is F

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

    def test_value_at_one_from_approximator(self):
        # fz:pow2 has no exact value at 1; as_weak answers there with the
        # truncated limit instead of the f(1) = 1 normalization
        fn = ZeroInsertionFn("pow2")
        assert not fn.has_one
        v = pullback_approx(as_approx(uniform()), as_weak(fn), W("11"), 8)
        assert v == F(14965145599, 68719476736)

    def test_value_at_one_only_from_query_one(self):
        # f(1) is never assumed: with no approximator at 1, a word 1^n
        # raises where it needs the right end of D_x
        no_one = WeakFn("no-one", lambda w, r: F(w.value()))
        with pytest.raises(ValueError, match="no-one has no approximator "
                                             "at 1"):
            pullback_approx(as_approx(uniform()), no_one, W("11"), 4)
        assert pullback_approx(as_approx(uniform()), no_one, W("10"), 4) == 1

    def test_grid_exponent_formula(self):
        assert grid_exponent(3, 4) == 36
        assert bracket_depth(3, 4) == 44


@st.composite
def monotone_tables(draw):
    """Nondecreasing step tables into [0, 1] on a 2^-grid grid, grid <= 3,
    values with denominators up to 12 (most of them not dyadic)."""
    grid = draw(st.integers(0, 3))
    values = draw(st.lists(st.fractions(0, 1, max_denominator=12),
                           min_size=(1 << grid) + 1,
                           max_size=(1 << grid) + 1))
    return TableStepFn(grid, sorted(values), name="random_table")


class TestPullbackContract:
    @pytest.mark.parametrize("name", ["pattern:011", "zbettor:1,3"])
    def test_walk_replies_are_queries_of_the_cover(self, monkeypatch, name):
        # a product form's whole-cover replies are calls of
        # ApproxMartingale.query, one per word of the one cover that
        # minimal_cover gives, each at precision m: the d-query budget
        # is counted where the replies are made
        import dymart.pullback
        from dymart.config import parse_martingale, parse_function
        query, cover_of = ApproxMartingale.query, dymart.pullback.minimal_cover
        asked, covers = [], []

        def counted(self, w, r):
            asked.append((w.k, w.n, r))
            return query(self, w, r)

        def recorded(a, b, m):
            covers.append(cover_of(a, b, m))
            return covers[-1]

        monkeypatch.setattr(ApproxMartingale, "query", counted)
        monkeypatch.setattr(dymart.pullback, "minimal_cover", recorded)
        mart = parse_martingale(f"conservative:{name}")
        f_hat = as_weak(parse_function("fz_norm:1,2"))
        x, r = W("0110"), 16
        m = grid_exponent(len(x), r)
        value = pullback_approx(as_approx(mart), f_hat, x, r)
        assert len(covers) == 1
        assert sorted(asked) == sorted((w.k, w.n, m) for w in covers[0])
        assert 0 < len(asked) <= 2 * m + 1
        monkeypatch.undo()
        assert value == pullback_by_words(as_approx(mart), f_hat, x, r)

    @settings(max_examples=100, deadline=None)
    @given(random_product_forms(), monotone_tables(), st.integers(0, 3),
           st.integers(0, 8), st.booleans(), st.booleans(), st.data())
    def test_value_inside_bracket(self, pf, f, x_len, r, noisy_d, noisy_f,
                                  data):
        # exact or adversarial (+-2^-r) approximators of a random damped
        # strategy and a random monotone table: the value lies in the exact
        # bracket at depth m + 8
        d = conservative_transform(ExactMartingale("random",
                                                   product_form=pf))
        x = Word(data.draw(st.integers(0, (1 << x_len) - 1)), x_len)
        d_hat = NoisyApproxMartingale(d) if noisy_d else as_approx(d)
        f_hat = NoisyWeakFn(f) if noisy_f else as_weak(f)
        v = pullback_approx(d_hat, f_hat, x, r)
        ok, lo, hi = certify_bracket(d, f, x, r, v)
        assert ok, (str(x), r, v, lo, hi)


    @settings(max_examples=100, deadline=None)
    @given(random_product_forms(), monotone_tables(), st.integers(0, 3),
           st.integers(0, 8), st.booleans(), st.data())
    def test_walk_value_equals_word_by_word(self, pf, f, x_len, r, noisy_f,
                                            data):
        # a random product form (zero factors included; the certificate
        # is only asserted, for the comparison) answers its cover from the
        # block walk with the value its word-by-word queries give
        d_hat = as_approx(ExactMartingale("random", product_form=pf,
                                          conservative=True))
        assert hasattr(d_hat, "cover_replies")
        x = Word(data.draw(st.integers(0, (1 << x_len) - 1)), x_len)
        f_hat = NoisyWeakFn(f) if noisy_f else as_weak(f)
        assert pullback_approx(d_hat, f_hat, x, r) == \
            pullback_by_words(d_hat, f_hat, x, r)


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
