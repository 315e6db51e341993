"""Kernel checks: the block walk (sums and maxima) and the product fold
against the literal cell scan and brute force, and the walk's factor-step
counts linear in the depth."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart import _shiftcore_py as pure
from dymart import kernels
from dymart.config import parse_function, parse_martingale
from dymart.dyadic import Cover, Dyadic, Word, all_words, minimal_cover
from dymart.errors import PrecisionContractError
from dymart.funcs import IdentityFn, as_weak
from dymart.martingale import ApproxMartingale, ExactMartingale, \
    ProductForm, allin_zeros, as_approx, conservative_transform, \
    pattern_bettor, product_fold, savings_fold, savings_wrapper, uniform
from dymart.pullback import certify_bracket, exact_total, grid_exponent, \
    pullback_approx, shift_stats
from dymart.tightness import z_bettor

from helpers import aligned_blocks, brute_force_cover, brute_force_shift, \
    greedy_cover, random_product_forms, savings_by_prefixes, scan_sum_max

MARTS = [uniform(), allin_zeros(), pattern_bettor("011"), z_bettor("1"),
         z_bettor("0,2,4"), z_bettor("pow2"),
         conservative_transform(allin_zeros()),
         conservative_transform(z_bettor("pow2")),
         conservative_transform(pattern_bettor("01"))]


def as_fraction(num, dexp):
    return Fraction(num, 1 << dexp)


class TestPureKernel:
    def test_validate_rejects_unfair(self):
        # ProductForm validates on construction, through pure.validate
        with pytest.raises(ValueError):
            ProductForm(((((2, 0, 0), (1, 0, 0)),),))

    @pytest.mark.parametrize("mart", MARTS, ids=lambda m: m.name)
    def test_cell_value_matches_direct(self, mart):
        pf = mart.product_form
        for n in (0, 1, 3, 6):
            classes = pf.classes(n)
            for k in range(1 << n):
                got = as_fraction(*pure.cell_value(pf, classes, n, k))
                assert got == mart.at(Word(k, n))

    @pytest.mark.parametrize("mart", MARTS, ids=lambda m: m.name)
    def test_range_sum_max_matches_loop(self, mart):
        pf = mart.product_form
        n = 7
        classes = pf.classes(n)
        for a, b in [(0, 128), (0, 0), (5, 6), (17, 100), (127, 128),
                     (64, 64)]:
            sn, sd, mn, md = pure.range_sum_max(pf, classes, n, a, b)
            vals = [mart.at(Word(k, n)) for k in range(a, b)]
            assert as_fraction(sn, sd) == sum(vals, Fraction(0))
            assert as_fraction(mn, md) == max(vals, default=Fraction(0))

    @pytest.mark.parametrize("mart", MARTS, ids=lambda m: m.name)
    def test_subtree_equals_scan(self, mart):
        pf = mart.product_form
        for n in (0, 1, 5, 9):
            classes = pf.classes(n)
            cells = 1 << n
            for a, b in [(0, cells), (cells // 3, (2 * cells) // 3 + 1),
                         (1, cells - 1) if cells > 2 else (0, cells)]:
                sn, sd, _, _ = scan_sum_max(pf, classes, n, a, b)
                tn, td, _, _ = pure.subtree_sum(pf, classes, n, a, b)
                assert as_fraction(sn, sd) == as_fraction(tn, td)

    def test_subtree_far_beyond_enumeration(self):
        # depth 80 block sums stay exact
        mart = conservative_transform(z_bettor("pow2"))
        pf = mart.product_form
        n = 80
        classes = pf.classes(n)
        full, dexp, left, right = pure.subtree_sum(pf, classes, n, 0, 1 << n)
        assert as_fraction(full, dexp) == 1 << n  # total mass 2^n * d(λ)
        assert left is right is None  # no cell on either side


class TestRandomDescriptors:
    @settings(max_examples=60, deadline=None)
    @given(random_product_forms(), st.integers(0, 8), st.data())
    def test_kernel_matches_direct_product(self, pf, n, data):
        assert kernels.validate(pf)  # fairness, exactly
        mart = ExactMartingale("random", product_form=pf)
        assert mart.at(Word(0, 0)) == 1
        cells = 1 << n
        a = data.draw(st.integers(0, cells))
        b = data.draw(st.integers(a, cells))
        classes = pf.classes(n)
        sn, sd, mn, md = kernels.range_sum_max(pf, classes, n, a, b)
        tn, td, _, _ = pure.subtree_sum(pf, classes, n, a, b)
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
                     "validate"):
            assert getattr(kernels, name) is getattr(pure, name)
        mart = conservative_transform(allin_zeros())
        pf = mart.product_form
        n = 10
        classes = pf.classes(n)
        got = kernels.range_sum_max(pf, classes, n, 3, 900)
        want = scan_sum_max(pf, classes, n, 3, 900)
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


def savings_forms():
    """``product_forms`` and their conservative transforms: the forms a
    savings wrapper's walk reads."""
    return product_forms().flatmap(
        lambda pf: st.sampled_from([pf, pf.transformed()]))


RANGE_KINDS = ["random", "from zero", "to the end", "empty", "one cell",
               "full"]


def index_range(data, cells):
    a = data.draw(st.integers(0, cells))
    return a, data.draw(st.integers(a, cells))


def end_range(kind, cells):
    """A strategy for index ranges [a, b) within [0, cells) of one kind:
    random, starting at 0, ending at cells, empty, one cell, or the full
    range."""
    ends = st.integers(0, cells)
    if kind == "from zero":
        return st.tuples(st.just(0), ends)
    if kind == "to the end":
        return st.tuples(ends, st.just(cells))
    if kind == "empty":
        return ends.map(lambda a: (a, a))
    if kind == "one cell":
        return st.integers(0, cells - 1).map(lambda a: (a, a + 1))
    if kind == "full":
        return st.just((0, cells))
    return st.tuples(ends, ends).map(sorted).map(tuple)


class LineFn(IdentityFn):
    """t -> lo + (hi - lo) t: a monotone map of [0, 1] onto the rational
    interval [lo, hi]."""

    name = "line"

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def at(self, q):
        return self.lo + (self.hi - self.lo) * Fraction(q)


class TestBlockWalk:
    @settings(max_examples=60, deadline=None)
    @given(product_forms(), st.integers(0, 14), st.data())
    def test_walk_sum_matches_scan_and_brute_force(self, pf, n, data):
        classes = pf.classes(n)
        a, b = index_range(data, 1 << n)
        tn, td, _, _ = kernels.subtree_sum(pf, classes, n, a, b)
        walk = Fraction(tn, 1 << td)
        sn, sd, _, _ = scan_sum_max(pf, classes, n, a, b)
        assert walk == Fraction(sn, 1 << sd)
        mart = ExactMartingale("random", product_form=pf)
        assert walk == brute_force_shift(mart, Fraction(a, 1 << n),
                                         Fraction(b, 1 << n), n, n,
                                         inner=True)

    @settings(max_examples=60, deadline=None)
    @given(product_forms(), st.integers(0, 14), st.data())
    def test_block_max_matches_scan(self, pf, n, data):
        classes = pf.classes(n)
        a, b = index_range(data, 1 << n)
        got = kernels.range_sum_max(pf, classes, n, a, b)
        want = scan_sum_max(pf, classes, n, a, b)
        assert as_fraction(got[0], got[1]) == as_fraction(want[0], want[1])
        assert as_fraction(got[2], got[3]) == as_fraction(want[2], want[3])

    @settings(max_examples=60, deadline=None)
    @given(product_forms(), st.integers(0, 40), st.data())
    def test_cursor_matches_cell_value_in_any_order(self, pf, m, data):
        a, b = index_range(data, 1 << m)
        words = list(all_words(4)) + \
            list(minimal_cover(Dyadic(a, m), Dyadic(b, m), m))
        words = data.draw(st.permutations(words + words[::3]))
        mart = ExactMartingale("random", product_form=pf)
        value, saved = product_fold(pf), savings_fold(pf)
        oracle = ExactMartingale("oracle", product_form=pf)
        for w in words:
            want = pure.cell_value(pf, pf.classes(len(w)), len(w), w.k)
            got = value(w)
            assert isinstance(got, Dyadic), w
            assert got == Fraction(want[0], 1 << want[1]), w
            assert mart.at(w) == Fraction(want[0], 1 << want[1]), w
            # the savings fold, in the same shuffled order, against the
            # Fraction loop over all prefixes
            got = saved(w)
            assert isinstance(got, Dyadic), w
            assert got == savings_by_prefixes(oracle, w), w

    @settings(max_examples=80, deadline=None)
    @given(product_forms(), st.integers(0, 14), st.data())
    def test_walk_end_cells_match_cell_value(self, pf, n, data):
        # one subtree_sum gives the inside sum and the cells a - 1 and b
        # beside the range, from the leaves of its two end-path walks
        classes = pf.classes(n)
        cells = 1 << n
        a, b = data.draw(st.sampled_from(
            ["random", "from zero", "to the end", "empty", "full"]).flatmap(
                lambda kind: end_range(kind, cells)))
        tn, td, left, right = kernels.subtree_sum(pf, classes, n, a, b)
        sn, sd, _, _ = scan_sum_max(pf, classes, n, a, b)
        assert Fraction(tn, 1 << td) == Fraction(sn, 1 << sd)
        assert left == (pure.cell_value(pf, classes, n, a - 1)
                        if a > 0 else None)
        assert right == (pure.cell_value(pf, classes, n, b)
                         if b < cells else None)

    @pytest.mark.parametrize("a,b", [(0, 5), (5, 9), (9, 9), (40, 64),
                                     (1, 2), (0, 0)])
    def test_end_cells_after_a_zero_factor(self, a, b):
        # allin_zeros dies at the first 1: every cell but 0 is zero, and
        # the walks make no lookup past their first zero product
        pf = allin_zeros().product_form
        n = 6
        classes = pf.classes(n)
        tn, td, left, right = kernels.subtree_sum(pf, classes, n, a, b)
        assert (tn, td) == ((1 << n, 0) if a == 0 < b else (0, 0))
        assert left == (None if a == 0 else (1 << n, 0) if a == 1
                        else (0, 0))
        assert right == (None if b == 1 << n else (1 << n, 0) if b == 0
                         else (0, 0))

    @settings(max_examples=80, deadline=None)
    @given(product_forms(), st.integers(0, 10), st.data())
    def test_shift_stats_matches_brute_force(self, pf, n, data):
        # random rational images, a point image (lo == hi) and images with
        # ends on the depth-n grid, through the one block walk
        j = data.draw(st.integers(0, n))
        on_grid = st.integers(0, 1 << j).map(lambda k: Fraction(k, 1 << j))
        point = st.one_of(st.fractions(0, 1, max_denominator=97), on_grid)
        lo, hi = sorted(data.draw(st.lists(point, min_size=2, max_size=2)))
        if data.draw(st.booleans()):
            hi = lo
        x = data.draw(st.sampled_from([Word(0, 0), Word(1, 1),
                                       Word(2, 2)]))
        f = LineFn(lo, hi)
        x_lo, x_hi = f.at(x.value()), f.at(Fraction(x.k + 1, 1 << x.n))
        mart = ExactMartingale("random", product_form=pf)
        s = shift_stats(mart, f, x, n)
        assert s.lower == brute_force_shift(mart, x_lo, x_hi, len(x), n,
                                            inner=True)
        assert s.upper == brute_force_shift(mart, x_lo, x_hi, len(x), n,
                                            inner=False)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.data())
    def test_cover_matches_brute_force(self, m, data):
        a, b = index_range(data, 1 << m)
        a, b = Dyadic(a, m), Dyadic(b, m)
        assert list(minimal_cover(a, b, m)) == brute_force_cover(a, b, m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2072), st.data())
    def test_cover_matches_greedy_up_to_full_grid(self, m, data):
        a, b = index_range(data, 1 << m)
        a, b = Dyadic(a, m), Dyadic(b, m)
        assert list(minimal_cover(a, b, m)) == greedy_cover(a, b, m)

    @settings(max_examples=120, deadline=None)
    @given(product_forms(), st.integers(0, 12), st.data())
    def test_walk_blocks_are_the_aligned_blocks(self, pf, n, data):
        # the walk's blocks, found on its two end paths, are the blocks of
        # aligned_blocks, each with the product fold's value of its word;
        # past a zero product the blocks still come, valued 0; the full
        # range is the one block λ
        cells = 1 << n
        a, b = data.draw(st.sampled_from(
            ["random", "from zero", "to the end", "empty", "one cell",
             "full"]).flatmap(lambda kind: end_range(kind, cells)))
        classes = pf.classes(n)
        walk = Counter((lev, Fraction(num, 1 << dexp)) for num, dexp, lev, _
                       in pure._block_values(pf, classes, n, a, b,
                                             [None, None]))
        value = product_fold(pf)
        want = Counter((lev, Fraction(value(Word(idx, n - lev))))
                       for lev, idx in aligned_blocks(a, b))
        assert walk == want

    @settings(max_examples=60, deadline=None)
    @given(product_forms(), st.integers(0, 14))
    def test_full_range_from_the_walk(self, pf, n):
        # [0, 2^n) is the walk's one block λ: sum and maximum as the scan
        classes = pf.classes(n)
        cells = 1 << n
        sn, sd, mn, md = scan_sum_max(pf, classes, n, 0, cells)
        tn, td, left, right = kernels.subtree_sum(pf, classes, n, 0, cells)
        assert Fraction(tn, 1 << td) == Fraction(sn, 1 << sd) == cells
        assert left is right is None
        got = kernels.range_sum_max(pf, classes, n, 0, cells)
        assert as_fraction(got[0], got[1]) == as_fraction(sn, sd)
        assert as_fraction(got[2], got[3]) == as_fraction(mn, md)

    def test_blocks_hang_off_the_end_paths(self):
        # odd blocks are right children on the path to a - 1, even blocks
        # left children on the path to b
        a, b = 37, 410
        for lev, idx in aligned_blocks(a, b):
            if idx & 1:
                assert idx >> 1 == (a - 1) >> (lev + 1)
            else:
                assert idx >> 1 == b >> (lev + 1)


def walk_order(words):
    """The cover words in the block walk's order: the odd-indexed blocks
    (off the path to the cell before the range) and then the even-indexed
    ones (off the path to the cell after it), each largest first."""
    return sorted(words, key=lambda w: (not w.k & 1, w.n))


class TestCoverReplies:
    """The whole-cover replies of a product form and of its savings
    wrapper against the cover's words, each valued by the product fold or
    the savings fold."""

    @settings(max_examples=150, deadline=None)
    @given(savings_forms(), st.booleans(), st.integers(0, 40), st.data())
    def test_replies_are_the_cover_values(self, pf, savings, m, data):
        cells = 1 << m
        lo, hi = data.draw(st.sampled_from(RANGE_KINDS).flatmap(
            lambda kind: end_range(kind, cells)))
        cover = minimal_cover(Dyadic(lo, m), Dyadic(hi, m), m)
        mart = ExactMartingale("random", product_form=pf)
        if savings:
            mart, value = savings_wrapper(mart), savings_fold(pf)
        else:
            value = product_fold(pf)
        approx = as_approx(mart)
        real, asked = approx.query, []
        approx.query = lambda w, r: asked.append((w, r)) or real(w, r)
        replies = list(approx.cover_replies(cover, m))
        words = walk_order(cover)
        assert replies == [(value(w), len(w)) for w in words]
        assert all(type(q) is Dyadic for q, _ in replies)
        assert len(replies) <= 2 * m + 1
        # every reply is the query of its own word, at precision m
        assert asked == [(w, m) for w in words]

    def test_word_list_asked_in_its_order(self):
        # a cover that is not minimal_cover's (a list, as an injected
        # fault gives) is asked word by word, in its own order
        cover = minimal_cover(Dyadic(3, 5), Dyadic(29, 5), 5)
        words = list(cover)[::-1][1:]
        approx = as_approx(pattern_bettor("011"))
        value = product_fold(pattern_bettor("011").product_form)
        assert list(approx.cover_replies(words, 5)) == \
            [(value(w), len(w)) for w in words]

    def test_reply_guard_matches_query(self):
        # a form built past validation with a negative factor: the cover's
        # reply breaks the contract in query, as any other reply does
        bad = uniform().product_form._replace(
            edges=((((-1, 0, 0), (3, 0, 0)),),))
        approx = as_approx(ExactMartingale("negative", product_form=bad))
        cover = minimal_cover(Dyadic(0), Dyadic(1, 1), 3)
        with pytest.raises(PrecisionContractError,
                           match="query\\(0, 3\\) = -1 is below -2\\^-3"):
            list(approx.cover_replies(cover, 3))


class TestSavingsWalk:
    """The savings walk (``subtree_sum`` and ``block_values`` with
    ``savings`` set) against the per-word oracle: the wrapper's values of
    the range's ``Cover`` words, from its fold or recomputed from every
    prefix."""

    @settings(max_examples=150, deadline=None)
    @given(savings_forms(), st.integers(0, 40), st.data())
    def test_sum_and_end_cells_match_the_words(self, pf, n, data):
        cells = 1 << n
        a, b = data.draw(st.sampled_from(RANGE_KINDS).flatmap(
            lambda kind: end_range(kind, cells)))
        if n <= 12 and data.draw(st.booleans()):
            base = ExactMartingale("random", product_form=pf)

            def value(w):
                return savings_by_prefixes(base, w)
        else:
            value = savings_fold(pf)
        tn, td, left, right = kernels.subtree_sum(pf, pf.classes(n), n, a,
                                                  b, savings=True)
        assert Fraction(tn, 1 << td) == exact_total(
            (value(w), n - w.n) for w in Cover(a, b, n))
        for cell, got in ((a - 1, left), (b, right)):
            if 0 <= cell < cells:
                assert Fraction(got[0], 1 << got[1]) == value(Word(cell, n))
            else:
                assert got is None

    def test_reserve_past_a_zero_capital(self):
        # savings:allin_zeros doubles to 2^j on 0^j, putting one unit per
        # doubling aside, and dies at the first 1 with a reserve of j: the
        # walk values every block and end cell past the zero from the
        # reserve, with no lookup
        pf = allin_zeros().product_form
        edges = CountingEdges(pf.edges)
        counted = ProductForm(edges, pf.start, pf.classes_fn)
        n = 12
        value = savings_fold(pf)

        def lookups(cell):
            # the path to a cell looks up factors down to its first 1
            return n - cell.bit_length() + 1 if cell else n

        for a, b in [(1, 1 << n), (3, 200), (1, 2), (0, 1), (5, 5)]:
            edges.steps = 0
            tn, td, left, right = kernels.subtree_sum(
                counted, pf.classes(n), n, a, b, savings=True)
            assert Fraction(tn, 1 << td) == exact_total(
                (value(w), n - w.n) for w in Cover(a, b, n))
            want = 0
            for cell, got in ((a - 1, left), (b, right)):
                if 0 <= cell < 1 << n:
                    assert Fraction(got[0], 1 << got[1]) == \
                        value(Word(cell, n))
                    want += lookups(cell)
            assert edges.steps == want, (a, b)


class CountingEdges(tuple):
    """An edge table that counts its lookups: one per factor step."""

    steps = 0

    def __getitem__(self, state):
        self.steps += 1
        return super().__getitem__(state)


class TestWorkCounts:
    """Deterministic factor-step counts of the walk."""

    @pytest.mark.parametrize("r", [32, 128, 512])
    @pytest.mark.parametrize("name", ["conservative:pattern:011",
                                      "conservative:zbettor:1,3"])
    def test_value_and_bracket_linear_in_m(self, name, r):
        base = parse_martingale(name)
        pf = base.product_form
        edges = CountingEdges(pf.edges)
        mart = ExactMartingale(
            name, product_form=ProductForm(edges, pf.start, pf.classes_fn),
            conservative=base.conservative)
        fn = parse_function("fz_norm:0,2,4")
        x = Word.parse("0110")
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
        # at most n lookups per end path of the block walk, whose leaves
        # are the boundary cells, at n = m + 8
        edges.steps = 0
        ok, _, _ = certify_bracket(mart, fn, x, r, value)
        assert ok
        assert edges.steps <= 2 * (m + 8)

    @pytest.mark.parametrize("name", ["conservative:pattern:011",
                                      "conservative:zbettor:1,3"])
    def test_cli_path_replies_from_the_walk(self, name):
        # the CLI's d-queries: as_approx on the product form answers the
        # whole cover from one walk down each end path of its grid range
        base = parse_martingale(name)
        pf = base.product_form
        edges = CountingEdges(pf.edges)
        mart = ExactMartingale(
            name, product_form=ProductForm(edges, pf.start, pf.classes_fn),
            conservative=base.conservative)
        approx, replies = as_approx(mart), []
        walk = approx.cover_replies

        def counted(cover, m):
            for pair in walk(cover, m):
                replies.append(pair)
                yield pair

        approx.cover_replies = counted
        fn = parse_function("fz_norm:0,2,4")
        x, r = Word.parse("0110"), 512
        m = grid_exponent(len(x), r)
        edges.steps = 0
        value = pullback_approx(approx, as_weak(fn), x, r)
        assert edges.steps <= 2 * m
        # the value of the at()-backed path, and a reply for each of its
        # words, each word once
        oracle, queries = parse_martingale(name), []
        backed = ApproxMartingale(
            "at-backed", lambda w, p: queries.append(w) or oracle.at(w),
            conservative=oracle.conservative)
        assert value == pullback_approx(backed, as_weak(fn), x, r)
        assert Counter((Fraction(q), size) for q, size in replies) == \
            Counter((oracle.at(w), len(w)) for w in queries)
        assert len(set(queries)) == len(queries)
        assert m // 2 <= len(replies) <= 2 * m + 1

    @pytest.mark.parametrize("lo", [12345, 0])
    def test_empty_cover_walks_nothing(self, lo):
        # a pullback whose rounded image is one grid point has an empty
        # cover: no words, so no reply and no factor lookup
        base = parse_martingale("conservative:pattern:011")
        pf = base.product_form
        edges = CountingEdges(pf.edges)
        mart = ExactMartingale(
            base.name,
            product_form=ProductForm(edges, pf.start, pf.classes_fn),
            conservative=base.conservative)
        m = 2072
        edges.steps = 0
        assert list(as_approx(mart).cover_replies(Cover(lo, lo, m), m)) == []
        assert edges.steps == 0

    @pytest.mark.parametrize("r", [32, 128, 512])
    @pytest.mark.parametrize("inner", ["pattern:011",
                                       "conservative:zbettor:1,3"])
    def test_savings_fold_linear_in_m(self, inner, r):
        # a savings wrapper of a product form folds the input's factors for
        # at(): one lookup per prefix below the one shared with the last
        # word asked, so the cover's words cost O(1) amortized steps each.
        # The CLI path takes no fold step: as_approx answers the cover
        # from one savings walk down each end path, and the bracket takes
        # its inside sum and both boundary cells from the same two walks
        # at depth m + 8, with no exact() call
        base = parse_martingale(inner)
        pf = base.product_form
        edges = CountingEdges(pf.edges)
        counted = ExactMartingale(
            inner, product_form=ProductForm(edges, pf.start, pf.classes_fn),
            conservative=base.conservative)
        mart = savings_wrapper(counted)
        exact, calls = mart.exact, []
        mart.exact = lambda w: calls.append(w) or exact(w)
        fn = parse_function("fz_norm:0,2,4")
        x = Word.parse("0110")
        m = grid_exponent(len(x), r)
        queries = []
        d_hat = ApproxMartingale(
            "counting", lambda w, p: queries.append(w) or mart.at(w),
            conservative=mart.conservative)
        edges.steps = 0
        value = pullback_approx(d_hat, as_weak(fn), x, r)
        assert m // 2 <= len(queries) <= 2 * m + 1
        assert edges.steps <= 4 * m
        approx = as_approx(mart)
        real, asked = approx.query, []
        approx.query = lambda w, p: asked.append((w, p)) or real(w, p)
        calls.clear()
        edges.steps = 0
        assert pullback_approx(approx, as_weak(fn), x, r) == value
        assert calls == []
        assert edges.steps <= 2 * m
        # one query per word of the at()-backed cover, each once, at m
        assert Counter(asked) == Counter((w, m) for w in queries)
        assert len(set(queries)) == len(queries)
        edges.steps = 0
        ok, _, _ = certify_bracket(mart, fn, x, r, value)
        assert ok
        assert calls == []
        assert edges.steps <= 2 * (m + 8)

    @pytest.mark.parametrize("name", ["conservative:pattern:011",
                                      "conservative:zbettor:1,3"])
    def test_range_sum_max_linear_in_n(self, name):
        # the max-product table takes one lookup per (depth, state), the
        # two end-path walks at most n + 1 each
        pf = parse_martingale(name).product_form
        edges = CountingEdges(pf.edges)
        counted = ProductForm(edges, pf.start, pf.classes_fn)
        n = 256
        classes = pf.classes(n)
        cells = 1 << n
        for a, b in [(0, cells), (cells // 3 + 5, cells - 12345),
                     (1, 2), (7, 7)]:
            edges.steps = 0
            kernels.range_sum_max(counted, classes, n, a, b)
            assert edges.steps <= 2 * n * len(edges) + 4 * n, (a, b)
