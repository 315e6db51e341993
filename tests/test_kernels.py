"""Kernel checks: the block walk (sums and maxima) and the path cursor
against the literal cell scan and brute force, and the walk's factor-step
counts linear in the depth."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart import _shiftcore_py as pure
from dymart import kernels
from dymart.config import parse_function, parse_martingale
from dymart.dyadic import Dyadic, Word, all_words, minimal_cover
from dymart.funcs import as_weak
from dymart.martingale import ApproxMartingale, ExactMartingale, \
    ProductForm, allin_zeros, conservative_transform, pattern_bettor, \
    uniform
from dymart.pullback import certify_bracket, grid_exponent, pullback_approx
from dymart.tightness import z_bettor

from helpers import brute_force_cover, brute_force_shift, greedy_cover, \
    scan_sum_max

MARTS = [uniform(), allin_zeros(), pattern_bettor("011"), z_bettor("1"),
         z_bettor("0,2,4"), z_bettor("pow2"),
         conservative_transform(allin_zeros()),
         conservative_transform(z_bettor("pow2")),
         conservative_transform(pattern_bettor("01"))]


def as_fraction(num, dexp):
    return Fraction(num, 1 << dexp)


class TestPureKernel:
    def test_validate_rejects_unfair(self):
        bad = (1, 0, ((((2, 0, 0), (1, 0, 0)),),), 2, 0)
        with pytest.raises(ValueError):
            pure.validate(bad)

    @pytest.mark.parametrize("mart", MARTS, ids=lambda m: m.name)
    def test_cell_value_matches_direct(self, mart):
        desc = mart.product_form.descriptor()
        for n in (0, 1, 3, 6):
            classes = mart.product_form.classes(n)
            for k in range(1 << n):
                got = as_fraction(*pure.cell_value(desc, classes, n, k))
                assert got == mart.at(Word(k, n))

    @pytest.mark.parametrize("mart", MARTS, ids=lambda m: m.name)
    def test_range_sum_max_matches_loop(self, mart):
        desc = mart.product_form.descriptor()
        n = 7
        classes = mart.product_form.classes(n)
        for a, b in [(0, 128), (0, 0), (5, 6), (17, 100), (127, 128),
                     (64, 64)]:
            sn, sd, mn, md = pure.range_sum_max(desc, classes, n, a, b)
            vals = [mart.at(Word(k, n)) for k in range(a, b)]
            assert as_fraction(sn, sd) == sum(vals, Fraction(0))
            assert as_fraction(mn, md) == max(vals, default=Fraction(0))

    @pytest.mark.parametrize("mart", MARTS, ids=lambda m: m.name)
    def test_subtree_equals_scan(self, mart):
        desc = mart.product_form.descriptor()
        for n in (0, 1, 5, 9):
            classes = mart.product_form.classes(n)
            cells = 1 << n
            for a, b in [(0, cells), (cells // 3, (2 * cells) // 3 + 1),
                         (1, cells - 1) if cells > 2 else (0, cells)]:
                sn, sd, _, _ = scan_sum_max(desc, classes, n, a, b)
                tn, td = pure.subtree_sum(desc, classes, n, a, b)
                assert as_fraction(sn, sd) == as_fraction(tn, td)

    def test_subtree_far_beyond_enumeration(self):
        # depth 80 block sums stay exact
        mart = conservative_transform(z_bettor("pow2"))
        desc = mart.product_form.descriptor()
        n = 80
        classes = mart.product_form.classes(n)
        full, dexp = pure.subtree_sum(desc, classes, n, 0, 1 << n)
        assert as_fraction(full, dexp) == 1 << n  # total mass 2^n * d(λ)


def fair_factor_pairs():
    """Dyadic (f0, f1) with f0 + f1 == 2, factors in [0, 2]."""
    def build(num, dexp):
        # f0 = num / 2^dexp <= 2, f1 = 2 - f0
        f0 = (num, dexp)
        f1 = ((2 << dexp) - num, dexp)
        return f0, f1
    return st.tuples(st.integers(0, 8), st.just(2)).map(
        lambda t: build(min(t[0], 8), t[1]))


@st.composite
def random_product_forms(draw):
    n_states = draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 2))
    edges = []
    for _ in range(n_states):
        per_state = []
        for _ in range(n_classes):
            (n0, d0), (n1, d1) = draw(fair_factor_pairs())
            nxt0 = draw(st.integers(0, n_states - 1))
            nxt1 = draw(st.integers(0, n_states - 1))
            per_state.append(((n0, d0, nxt0), (n1, d1, nxt1)))
        edges.append(tuple(per_state))
    period = draw(st.integers(1, 4))
    cls_of = lambda i: (i % period) % n_classes
    return ProductForm(tuple(edges), 0, cls_of)


class TestRandomDescriptors:
    @settings(max_examples=60, deadline=None)
    @given(random_product_forms(), st.integers(0, 8), st.data())
    def test_kernel_matches_direct_product(self, pf, n, data):
        desc = pf.descriptor()  # validates fairness exactly
        mart = ExactMartingale("random", product_form=pf)
        assert mart.at(Word(0, 0)) == 1
        cells = 1 << n
        a = data.draw(st.integers(0, cells))
        b = data.draw(st.integers(a, cells))
        classes = pf.classes(n)
        sn, sd, mn, md = kernels.range_sum_max(desc, classes, n, a, b)
        tn, td = pure.subtree_sum(desc, classes, n, a, b)
        vals = [mart.at(Word(k, n)) for k in range(a, b)]
        assert Fraction(sn, 1 << sd) == sum(vals, Fraction(0))
        assert Fraction(tn, 1 << td) == sum(vals, Fraction(0))
        assert Fraction(mn, 1 << md) == max(vals, default=Fraction(0))

    @settings(max_examples=30, deadline=None)
    @given(random_product_forms())
    def test_random_product_form_is_a_martingale(self, pf):
        from dymart.martingale import verify_martingale
        mart = ExactMartingale("random", product_form=pf)
        assert verify_martingale(mart, 5).ok


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.BACKEND == "python"

    def test_dispatch_matches_pure(self):
        # kernels re-exports the one implementation under the same names
        for name in ("cell_value", "range_sum_max", "subtree_sum",
                     "aligned_blocks", "PathCursor", "validate"):
            assert getattr(kernels, name) is getattr(pure, name)
        mart = conservative_transform(allin_zeros())
        desc = mart.product_form.descriptor()
        n = 10
        classes = mart.product_form.classes(n)
        got = kernels.range_sum_max(desc, classes, n, 3, 900)
        want = scan_sum_max(desc, classes, n, 3, 900)
        assert as_fraction(got[0], got[1]) == as_fraction(want[0], want[1])
        assert as_fraction(got[2], got[3]) == as_fraction(want[2], want[3])


def product_forms():
    """Random fair product forms (zero factors included) and the built-ins
    with dead states."""
    return st.one_of(
        random_product_forms(),
        st.sampled_from([allin_zeros().product_form,
                         conservative_transform(allin_zeros()).product_form,
                         z_bettor("1,3").product_form,
                         pattern_bettor("011").product_form]))


def index_range(data, cells):
    a = data.draw(st.integers(0, cells))
    return a, data.draw(st.integers(a, cells))


class TestBlockWalk:
    @settings(max_examples=60, deadline=None)
    @given(product_forms(), st.integers(0, 14), st.data())
    def test_walk_sum_matches_scan_and_brute_force(self, pf, n, data):
        desc = pf.descriptor()
        classes = pf.classes(n)
        a, b = index_range(data, 1 << n)
        tn, td = kernels.subtree_sum(desc, classes, n, a, b)
        walk = Fraction(tn, 1 << td)
        sn, sd, _, _ = scan_sum_max(desc, classes, n, a, b)
        assert walk == Fraction(sn, 1 << sd)
        mart = ExactMartingale("random", product_form=pf)
        assert walk == brute_force_shift(mart, Fraction(a, 1 << n),
                                         Fraction(b, 1 << n), n, n,
                                         inner=True)

    @settings(max_examples=60, deadline=None)
    @given(product_forms(), st.integers(0, 14), st.data())
    def test_block_max_matches_scan(self, pf, n, data):
        desc = pf.descriptor()
        classes = pf.classes(n)
        a, b = index_range(data, 1 << n)
        got = kernels.range_sum_max(desc, classes, n, a, b)
        want = scan_sum_max(desc, classes, n, a, b)
        assert as_fraction(got[0], got[1]) == as_fraction(want[0], want[1])
        assert as_fraction(got[2], got[3]) == as_fraction(want[2], want[3])

    @settings(max_examples=60, deadline=None)
    @given(product_forms(), st.integers(0, 40), st.data())
    def test_cursor_matches_cell_value_in_any_order(self, pf, m, data):
        desc = pf.descriptor()
        a, b = index_range(data, 1 << m)
        words = list(all_words(4)) + \
            minimal_cover(Dyadic(a, m), Dyadic(b, m), m)
        words = data.draw(st.permutations(words + words[::3]))
        mart = ExactMartingale("random", product_form=pf)
        cursor = kernels.PathCursor(desc, pf.classes)
        for w in words:
            want = pure.cell_value(desc, pf.classes(len(w)), len(w), w.k)
            assert cursor.value(w.k, len(w)) == want, w
            assert mart.at(w) == Fraction(want[0], 1 << want[1]), w

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.data())
    def test_cover_matches_brute_force(self, m, data):
        a, b = index_range(data, 1 << m)
        a, b = Dyadic(a, m), Dyadic(b, m)
        assert minimal_cover(a, b, m) == brute_force_cover(a, b, m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2072), st.data())
    def test_cover_matches_greedy_up_to_full_grid(self, m, data):
        a, b = index_range(data, 1 << m)
        a, b = Dyadic(a, m), Dyadic(b, m)
        assert minimal_cover(a, b, m) == greedy_cover(a, b, m)

    def test_blocks_hang_off_the_end_paths(self):
        # odd blocks are right children on the path to a - 1, even blocks
        # left children on the path to b
        a, b = 37, 410
        for lev, idx in kernels.aligned_blocks(a, b):
            if idx & 1:
                assert idx >> 1 == (a - 1) >> (lev + 1)
            else:
                assert idx >> 1 == b >> (lev + 1)


class CountingEdges(tuple):
    """An edge table that counts its lookups: one per factor step."""

    steps = 0

    def __getitem__(self, state):
        self.steps += 1
        return super().__getitem__(state)


class TestWorkCounts:
    """Deterministic factor-step counts of the walk."""

    @pytest.mark.parametrize("name", ["conservative:pattern:011",
                                      "conservative:zbettor:1,3"])
    def test_value_and_bracket_linear_in_m(self, name):
        base = parse_martingale(name)
        pf = base.product_form
        edges = CountingEdges(pf.edges)
        mart = ExactMartingale(
            name, product_form=ProductForm(edges, pf.start, pf.classes_fn),
            conservative=base.conservative)
        fn = parse_function("fz_norm:0,2,4")
        x, r = Word.parse("0110"), 512
        m = grid_exponent(len(x), r)
        queries = []
        d_hat = ApproxMartingale(
            "counting", lambda w, p: queries.append(w) or mart.at(w),
            conservative=mart.conservative)
        edges.steps = 0
        value = pullback_approx(d_hat, as_weak(fn), x, r)
        # a full-size cover, so the bound below is not met trivially
        assert m // 2 <= len(queries) <= 2 * m + 1
        assert edges.steps <= 4 * m
        # at most n lookups per end path of the block walk, and n per
        # boundary cell (two at most), at n = m + 8
        edges.steps = 0
        ok, _, _ = certify_bracket(mart, fn, x, r, value)
        assert ok
        assert edges.steps <= 4 * (m + 8)

    @pytest.mark.parametrize("name", ["conservative:pattern:011",
                                      "conservative:zbettor:1,3"])
    def test_range_sum_max_linear_in_n(self, name):
        # the max-product table takes one lookup per (depth, state), the
        # two end-path walks at most n + 1 each
        pf = parse_martingale(name).product_form
        edges = CountingEdges(pf.edges)
        desc = ProductForm(edges, pf.start, pf.classes_fn).descriptor()
        n = 256
        classes = pf.classes(n)
        cells = 1 << n
        for a, b in [(0, cells), (cells // 3 + 5, cells - 12345),
                     (1, 2), (7, 7)]:
            edges.steps = 0
            kernels.range_sum_max(desc, classes, n, a, b)
            assert edges.steps <= 2 * n * len(edges) + 4 * n, (a, b)
