from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart.dyadic import Dyadic, Word, all_words
from dymart.funcs import FnOracle, TableStepFn, WeakFn, as_weak
from dymart.patch import patch_approx, patch_table, strong_increase_check

from helpers import (NoisyWeakFn, dyadic_grid, exponent_pred_succ,
                     patch_reference, table_at_by_fractions)

W = Word.parse
F = Fraction


def wiggle_table():
    # f(1/4) > f(1/2): the coarser point 1/2 wins and 1/4 clamps down
    vals = [F(0), F(1, 8), F(5, 8), F(3, 8), F(1, 2), F(11, 16), F(3, 4),
            F(7, 8), F(1)]
    return TableStepFn(3, vals, name="wiggle")


def sawtooth_table():
    return TableStepFn(2, [F(0), F(3, 4), F(1, 4), F(1, 2), F(1)],
                       name="sawtooth")


def dip_table():
    vals = [F(0), F(1, 4), F(1, 4), F(1, 8), F(3, 8), F(1, 2), F(1, 2),
            F(5, 8), F(1)]
    return TableStepFn(3, vals, name="dip")


def monotone_table():
    vals = [F(k, 20) for k in range(9)]
    vals[-1] = F(1)
    return TableStepFn(3, vals, name="mono")


ZOO = [wiggle_table, sawtooth_table, dip_table, monotone_table]


class Zigzag(FnOracle):
    """Non-monotone at every scale: k/2^e (k odd) is pushed 2^-(e-1) up
    for even e and down for odd e, past its coarser neighbors."""

    name = "zigzag"

    def at(self, q):
        q = Dyadic(q) if not isinstance(q, Dyadic) else q
        if q.exp == 0:
            return Fraction(q)
        return Fraction(q) + (-1) ** q.exp * F(2, 1 << q.exp)


class TestNeighbors:
    def test_examples(self):
        assert exponent_pred_succ(Dyadic(5, 3)) == (3, Dyadic(1, 1),
                                                    Dyadic(3, 2))
        assert exponent_pred_succ(Dyadic(1, 1)) == (1, Dyadic(0), Dyadic(1))
        assert exponent_pred_succ(Dyadic(3, 3)) == (3, Dyadic(1, 2),
                                                    Dyadic(1, 1))
        assert exponent_pred_succ(Dyadic(0)) == (0, None, None)
        assert exponent_pred_succ(Dyadic(1)) == (0, None, None)

    def test_neighbors_have_smaller_exponent(self):
        for q in dyadic_grid(8):
            e, pred, succ = exponent_pred_succ(q)
            if e == 0:
                continue
            assert pred < q < succ
            assert exponent_pred_succ(pred)[0] < e
            assert exponent_pred_succ(succ)[0] < e

    def test_neighbors_are_nearest_coarser(self):
        # no dyadic of smaller exponent lies strictly between pred and q
        # (or q and succ)
        pts = dyadic_grid(7)
        for q in pts:
            e, pred, succ = exponent_pred_succ(q)
            if e == 0:
                continue
            for p in pts:
                if exponent_pred_succ(p)[0] < e:
                    assert not pred < p < q
                    assert not q < p < succ


def outcome(at, q):
    """(value, None) of ``at(q)``, or (None, its ValueError's text)."""
    try:
        return at(q), None
    except ValueError as exc:
        return None, str(exc)


def lookups_agree(table, q):
    return outcome(table.at, q) == \
        outcome(lambda p: table_at_by_fractions(table, p), q)


class TestTableLookup:
    # TableStepFn.at indexes by an integer floor division of any rational's
    # numerator: it equals the Fraction oracle for Dyadic, Fraction and int
    # points, out-of-range points with the same ValueError text
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 40), st.integers(-3, 1 << 41),
           st.booleans())
    def test_dyadic_matches_fractions(self, grid, exp, num, on_grid):
        table = TableStepFn(grid, [F(k * 7 % 11, 10) for k in
                                   range((1 << grid) + 1)])
        if on_grid:
            # about exp bits: the point lies in [0, 1] or just past 1
            num >>= max(0, 41 - exp)
        for q in (Dyadic(num, exp), Dyadic(num % ((1 << exp) + 1), exp),
                  Dyadic(num % ((1 << grid) + 1), grid), Dyadic(0),
                  Dyadic(1)):
            assert lookups_agree(table, q), q

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(-5, 40), st.integers(1, 40))
    def test_other_rationals_match_fractions(self, grid, num, den):
        table = TableStepFn(grid, [F(k, 1 << grid) for k in
                                   range((1 << grid) + 1)])
        for q in (F(num, den), num // den):
            assert lookups_agree(table, q), q

    @pytest.mark.parametrize("q", [Dyadic(-1, 3), Dyadic(9, 3), Dyadic(2),
                                   F(-1, 3), F(4, 3)])
    def test_out_of_range_same_text(self, q):
        table = TableStepFn(2, [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
        value, text = outcome(table.at, q)
        assert value is None and text == f"{q} outside [0, 1]"
        assert lookups_agree(table, q)


class TestWeakReplies:
    @pytest.mark.parametrize("reply", [F(1, 2), Dyadic(1, 1), 1],
                             ids=["fraction", "dyadic", "int"])
    def test_replies_are_fractions(self, reply):
        # a Fraction reply is passed through as it is, any other converted
        weak = WeakFn("const", lambda w, r: reply, lambda r: reply)
        for got in (weak.query(W("01"), 4), weak.query_one(4)):
            assert type(got) is Fraction and got == reply
            assert (got is reply) == (type(reply) is Fraction)


class TestPatchReference:
    def test_wiggle_by_hand(self):
        g = patch_table(wiggle_table(), 3)
        assert g == [F(0), F(1, 8), F(1, 2), F(1, 2), F(1, 2), F(11, 16),
                     F(3, 4), F(7, 8), F(1)]

    def test_monotone_fixed_point(self):
        f = monotone_table()
        assert patch_table(f, 10) == [f.at(q) for q in dyadic_grid(10)]

    def test_monotone_on_fine_grid_for_zoo(self):
        for make in ZOO:
            g = patch_table(make(), 10)
            assert all(a <= b for a, b in zip(g, g[1:])), make().name

    def test_idempotent(self):
        for make in ZOO:
            f = make()
            g_vals = patch_table(f, 6)
            g_fn = TableStepFn(6, g_vals, name="patched")
            assert patch_table(g_fn, 6) == g_vals

    def test_deep_point_without_recursion_limit(self):
        # exponent 2000 is past the default recursion limit; the one-pass
        # approximation with exact access is the independent check
        f = Zigzag()
        x = Word((1 << 1999) // 3 * 2 + 1, 2000)
        q = x.value()
        assert q.exp == 2000
        g = patch_reference(f, q)
        assert g == patch_approx(as_weak(f), x, 8)
        _, pred, succ = exponent_pred_succ(q)
        assert patch_reference(f, pred) <= g <= patch_reference(f, succ)


class CountingFn(FnOracle):
    """``inner`` with every ``at`` point and ``at_one`` call recorded."""

    def __init__(self, inner):
        self.inner = inner
        self.points = []
        self.ones = 0

    def at(self, q):
        self.points.append(Dyadic(q))
        return self.inner.at(q)

    def at_one(self):
        self.ones += 1
        return self.inner.at_one()


@st.composite
def random_tables(draw):
    """A table on a 2^-grid grid, grid 0..4, of arbitrary (mostly not
    monotone) rational values."""
    grid = draw(st.integers(0, 4))
    values = draw(st.lists(st.fractions(-2, 2, max_denominator=16),
                           min_size=(1 << grid) + 1,
                           max_size=(1 << grid) + 1))
    return TableStepFn(grid, values, name="random")


class TestPatchSweep:
    # the coarse-to-fine sweep of patch_table against the single-point
    # recursion of the helpers, at every grid point
    @settings(max_examples=150, deadline=None)
    @given(random_tables(), st.integers(0, 10))
    def test_random_tables_equal_reference(self, f, exp):
        memo = {}
        assert patch_table(f, exp) == \
            [patch_reference(f, q, memo) for q in dyadic_grid(exp)]

    @pytest.mark.parametrize("exp", [0, 1, 2, 5, 12])
    def test_zigzag_equals_reference(self, exp):
        # Zigzag clamps at every scale
        f = Zigzag()
        memo = {}
        assert patch_table(f, exp) == \
            [patch_reference(f, q, memo) for q in dyadic_grid(exp)]

    @pytest.mark.parametrize("exp", [0, 1, 3, 8])
    def test_one_query_per_grid_point(self, exp):
        # f(0), then each of the 2^exp - 1 interior points once, and the
        # value at 1 once through at_one
        for inner in (wiggle_table(), Zigzag()):
            f = CountingFn(inner)
            patch_table(f, exp)
            assert sorted(f.points) == dyadic_grid(exp)[:-1]
            assert f.ones == 1


class TestPatchApprox:
    def test_exact_access_equals_reference(self):
        for make in ZOO:
            f = make()
            memo = {}
            weak = as_weak(f)
            for x in all_words(8):
                want = patch_reference(f, x.value(), memo)
                assert patch_approx(weak, x, 10) == want, (f.name, x)

    def test_adversarial_noise_stays_within_tolerance(self):
        for make in ZOO:
            f = make()
            memo = {}
            noisy = NoisyWeakFn(f)
            for r in (4, 8, 12):
                for x in all_words(6):
                    got = patch_approx(noisy, x, r)
                    want = patch_reference(f, x.value(), memo)
                    assert abs(got - want) <= F(1, 1 << r), (f.name, x, r)

    def test_trailing_zeros_do_not_matter(self):
        noisy = NoisyWeakFn(wiggle_table())
        for r in (4, 10):
            assert patch_approx(noisy, W("0100"), r) == \
                patch_approx(noisy, W("01"), r)
            assert patch_approx(noisy, W("0110000"), r) == \
                patch_approx(noisy, W("011"), r)

    def test_query_count_is_bits_plus_endpoints(self):
        # one query per bit of the stripped word, plus the two endpoints
        f = wiggle_table()

        class Counting:
            has_one = True

            def __init__(self):
                self.queries = 0
                self.one_queries = 0

            def query(self, w, r):
                self.queries += 1
                return F(f.at(w.value()))

            def query_one(self, r):
                self.one_queries += 1
                return F(f.at_one())

        for text in ("λ", "1", "0110", "0100", "1111111111"):
            counter = Counting()
            patch_approx(counter, W(text), 8)
            stripped = W(text).strip_trailing_zeros()
            assert counter.queries == len(stripped) + 1
            assert counter.one_queries == 1

    def test_loop_invariant_through_shorter_words(self):
        # at prefix s the walk holds lo = patch_approx(s) and hi =
        # patch_approx(z1) for s = z01^k, or query_one at 1 for s = 1^k:
        # accuracy on every word of length <= 7 and at 1 is the invariant
        # for every x of length <= 6
        f = wiggle_table()
        memo = {}
        tol = F(1, 1 << 9)
        for weak in (as_weak(f), NoisyWeakFn(f)):
            assert abs(weak.query_one(9) -
                       patch_reference(f, Dyadic(1), memo)) <= tol
            for x in all_words(7):
                want = patch_reference(f, x.value(), memo)
                assert abs(patch_approx(weak, x, 9) - want) <= tol, x


def certified_dip_instance():
    """Identity plus a far-away non-monotone bump; difference quotients
    through x0 = 85/256 stay >= 1/4 on the whole 2^-8 grid."""
    grid = 8
    x0 = Dyadic(85, 8)  # nearest grid point to 1/3
    vals = []
    for k in range((1 << grid) + 1):
        v = F(k, 1 << grid)
        if 200 <= k <= 204:
            v += F(1, 16)
        elif 205 <= k <= 209:
            v -= F(1, 16)
        vals.append(v)
    return TableStepFn(grid, vals, name="certified_dip"), x0, F(1, 4), grid


class TestStrongIncrease:
    def test_identity_passes_any_center(self):
        from dymart.funcs import IdentityFn
        f = IdentityFn()
        for x0 in (Dyadic(0), Dyadic(1, 2), Dyadic(3, 3), F(1, 2)):
            rep = strong_increase_check(f, lambda q: F(q), x0, F(1), 6)
            assert rep.ok
        assert strong_increase_check(f, lambda q: F(q), F(1, 2), F(1, 2),
                                     3).ok

    def test_certified_instance_after_patching(self):
        f, x0, C, grid = certified_dip_instance()
        assert not f.monotone
        # hypothesis holds for raw f ...
        rep_f = strong_increase_check(f, lambda q: F(f.at(q)), x0, C, grid)
        assert rep_f.ok, rep_f.lines()
        # ... and survives patching, with the center value kept
        memo = {}
        g_at = lambda q: patch_reference(f, q, memo)
        rep_g = strong_increase_check(f, g_at, x0, C, grid)
        assert rep_g.ok, rep_g.lines()
        assert g_at(x0) == F(f.at(x0))
        g = patch_table(f, grid)
        assert all(a <= b for a, b in zip(g, g[1:]))

    def test_violations_reported_two_sided(self):
        # a function that sags below the cone on the left and right
        vals = [F(1, 2)] * 9
        vals[0], vals[-1] = F(0), F(1)
        flat = TableStepFn(3, vals, name="flat")
        rep = strong_increase_check(flat, lambda q: F(flat.at(q)),
                                    Dyadic(1, 1), F(1, 2), 3)
        assert not rep.ok
        pts = [F(v.where) for v in rep.violations]
        assert any(p < F(1, 2) for p in pts)
        assert any(p > F(1, 2) for p in pts)
