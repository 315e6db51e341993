from fractions import Fraction

import pytest

from dymart.dyadic import Dyadic, Word, all_words
from dymart.errors import InsufficientBitsError
from dymart.funcs import as_weak
from dymart.martingale import verify_martingale
from dymart.tightness import (ZOO_SPECS, CensusSet, GridImage,
                              ZeroInsertionFn, insert_zeros,
                              insertion_value, z_bettor, zoo)
from dymart.verify import _chk_slope_bound, _chk_step_bound

from helpers import (ceil_neg_lg, verify_ratio, verify_strong_ratio,
                     word_from_bits)

W = Word.parse
F = Fraction


class TestCensus:
    def test_parse_forms(self):
        assert 4 in CensusSet.parse("pow2")
        assert 3 not in CensusSet.parse("pow2")
        assert 65536 in CensusSet.parse("tower")
        assert CensusSet.parse("empty").census(100) == 0
        z = CensusSet.parse("1,3,5")
        assert [z.census(i) for i in range(7)] == [0, 1, 1, 2, 2, 3, 3]

    def test_census_monotone_and_stepwise(self):
        for z in zoo():
            prev = 0
            for i in range(64):
                c = z.census(i)
                assert c - prev == (1 if i in z else 0)
                assert c <= i + 1
                prev = c


class TestInsertZeros:
    def test_examples(self):
        assert insert_zeros(W("11"), CensusSet.parse("1"), 3) == W("101")
        assert insert_zeros(W("10110"), CensusSet.parse("empty"), 5) == \
            W("10110")
        assert insert_zeros(W("λ"), CensusSet.parse("0,1,2"), 3) == W("000")

    def test_insufficient_bits(self):
        with pytest.raises(InsufficientBitsError):
            insert_zeros(W("1"), CensusSet.parse("1"), 4)


class TestInsertionValue:
    def test_examples(self):
        assert insertion_value(W("11"), CensusSet.parse("1")) == Dyadic(5, 3)
        assert insertion_value(W("1"), CensusSet.parse("0")) == Dyadic(1, 2)
        for w in ["λ", "1", "0110", "111"]:
            assert insertion_value(W(w), CensusSet.parse("empty")) == \
                W(w).value()

    def test_agrees_with_streamed_insertion_when_spread(self):
        # weight formula == bit-stream landing whenever no insertion
        # position falls inside (i, i + census(i)]: empty set, singletons
        for spec in ("empty", "0", "1", "5"):
            z = CensusSet.parse(spec)
            for w in all_words(6):
                pad = word_from_bits(list(w) + [0] * 12)
                t = len(pad) + z.census(len(pad) - 1)
                streamed = insert_zeros(pad, z, t).value()
                assert insertion_value(w, z) == streamed, (z.name, w)

    def test_diverges_from_stream_on_bunched_sets(self):
        # documented divergence: the streamed map pushes bit 1 to output
        # position 3 for Z = {0,2}, the weight formula keeps it at 2
        z = CensusSet.parse("0,2")
        w = W("01")
        pad = word_from_bits(list(w) + [0] * 8)
        streamed = insert_zeros(pad, z, 8).value()
        assert insertion_value(w, z) == Dyadic(1, 3)
        assert streamed == Dyadic(1, 4)

    def test_monotone_and_injective(self):
        # strictly increasing on the full 2^-10 grid: covers monotonicity
        # and injectivity for every word value up to length 10
        for z in zoo():
            fn = ZeroInsertionFn(z)
            vals = [fn.at(Dyadic(k, 10)) for k in range(1 << 10)]
            assert all(a < b for a, b in zip(vals, vals[1:])), z.name


class TestZeroInsertionFn:
    def test_empty_is_identity(self):
        fn = ZeroInsertionFn(CensusSet.parse("empty"))
        for w in all_words(6):
            assert fn.at(w.value()) == F(w.value())
        assert fn.at_one() == 1

    def test_at_one_finite(self):
        fn = ZeroInsertionFn(CensusSet.parse("1"))
        assert fn.at_one() == F(3, 4)
        fn0 = ZeroInsertionFn(CensusSet.parse("0"))
        assert fn0.at_one() == F(1, 2)

    def test_at_one_infinite_needs_approx(self):
        fn = ZeroInsertionFn(CensusSet.parse("pow2"))
        assert not fn.has_one
        with pytest.raises(ValueError):
            fn.at_one()
        for r in (3, 6, 12):
            v = fn.approx_at_one(r)
            assert 0 <= fn.approx_at_one(r + 20) - v <= F(1, 1 << r)

    def test_scaled_pins_one(self):
        fn = ZeroInsertionFn(CensusSet.parse("1"), scaled=True)
        assert fn.at_one() == 1
        assert fn.at(Dyadic(1, 1)) == F(1, 2)
        weak = as_weak(fn)
        assert weak.query_one(10) == 1

    def test_weak_contract(self):
        fn = ZeroInsertionFn(CensusSet.parse("pow2"))
        weak = as_weak(fn)
        assert weak.query(W("101"), 4) == fn.at(Dyadic(5, 3))


class TestZBettor:
    def test_trace_by_hand(self):
        d = z_bettor("1")
        vals = [d.at(p) for p in W("10100").prefixes()]
        assert vals == [1, 1, 2, 2, 2, 2]

    def test_empty_is_uniform(self):
        d = z_bettor("empty")
        for w in all_words(5):
            assert d.at(w) == 1

    def test_martingale_depth_12(self):
        for z in zoo():
            assert verify_martingale(z_bettor(z), 12).ok, z.name

    def test_capital_identity_on_inserted_sequences(self):
        seeds = [W("1111111111111111"), W("1010101010101010"),
                 W("0110100110010110")]
        for z in zoo():
            d = z_bettor(z)
            for seed in seeds:
                s_z = insert_zeros(seed, z, 12)
                for n in range(13):
                    expect = F(1 << z.census(n - 1))
                    assert d.at(s_z.prefix(n)) == expect, (z.name, n)


class TestStepBound:
    def test_equality_instance(self):
        chk = verify_strong_ratio("1", Dyadic(0), 2)
        assert chk.ok and chk.lhs == F(1, 8) and chk.rhs == F(1, 8)

    def test_empty_identity(self):
        for n in (1, 3, 7):
            chk = verify_strong_ratio("empty", Dyadic(1, 3), n)
            assert chk.ok and chk.lhs == F(1, 1 << n) == chk.rhs

    def test_exhaustive_exponent_8(self):
        for z in zoo():
            for n in range(1, 9):
                for k in range(1 << 8):
                    x = Dyadic(k, 8)
                    if not x + Dyadic(1, n) < Dyadic(1):
                        continue
                    assert verify_strong_ratio(z, x, n).ok, (z.name, k, n)


class TestSlopeBound:
    def test_examples(self):
        chk = verify_ratio("empty", Dyadic(1, 2), Dyadic(3, 3))
        assert chk.ok and chk.lhs == 1 and chk.rhs == F(1, 2)
        chk = verify_ratio("1", Dyadic(0), Dyadic(1, 2))
        assert chk.ok and chk.lhs == F(1, 2) and chk.rhs == F(1, 4)

    def test_ceil_neg_lg(self):
        assert ceil_neg_lg(F(1, 4)) == 2
        assert ceil_neg_lg(F(3, 1024)) == 9
        assert ceil_neg_lg(F(5, 1024)) == 8
        assert ceil_neg_lg(F(1)) == 0

    def test_exhaustive_exponent_7(self):
        for z in zoo():
            grid = 1 << 7
            for ka in range(grid):
                for kb in range(ka + 1, grid):
                    assert verify_ratio(z, Dyadic(ka, 7), Dyadic(kb, 7)).ok

    def test_finite_sets_floor(self):
        # bounded census means a global slope floor of 2^(-|Z|-1)
        for spec in ("empty", "1", "0,1,2", "0,2,4", "tower"):
            z = CensusSet.parse(spec)
            floor = F(1, 1 << (len(z.finite_members) + 1))
            for ka in range(0, 64, 7):
                for kb in range(ka + 1, 64, 5):
                    chk = verify_ratio(z, Dyadic(ka, 6), Dyadic(kb, 6))
                    assert chk.ok and chk.rhs >= floor


def step_oracle(z, exp):
    """(k, n, ok, lhs, rhs) of every step bound on the 2^-exp grid, one
    ``verify_strong_ratio`` each, in the sweep's order."""
    out = []
    for n in range(1, exp + 1):
        for k in range(1 << exp):
            x = Dyadic(k, exp)
            if x + Dyadic(1, n) < Dyadic(1):
                chk = verify_strong_ratio(z, x, n)
                out.append((k, n, chk.ok, chk.lhs, chk.rhs))
    return out


def slope_oracle(z, exp):
    """(ka, kb, ok, lhs, rhs) of every slope bound on the 2^-exp grid, one
    ``verify_ratio`` each, in the sweep's order."""
    out = []
    for ka in range(1 << exp):
        for kb in range(ka + 1, 1 << exp):
            chk = verify_ratio(z, Dyadic(ka, exp), Dyadic(kb, exp))
            out.append((ka, kb, chk.ok, chk.lhs, chk.rhs))
    return out


def swept_steps(z, exp):
    grid = GridImage(z, exp)
    return [(k, n, ok) + grid.step_sides(k, n) for k, n, ok in grid.steps()]


def swept_slopes(z, exp):
    grid = GridImage(z, exp)
    return [(ka, kb, ok) + grid.slope_sides(ka, kb)
            for ka, kb, ok in grid.slopes()]


def halve_fz_at_half(monkeypatch):
    """fz(1/2) := fz(1/2) / 2 wherever it is evaluated: the grid sweeps
    and the single-point checks alike."""
    import dymart.tightness
    plain = dymart.tightness.insertion_value

    def planted(x, zset):
        v = plain(x, zset)
        return v.half() if x.value() == Dyadic(1, 1) else v

    monkeypatch.setattr(dymart.tightness, "insertion_value", planted)


class TestGridImage:
    """The integer grid sweeps against the single-point rational checks."""

    @pytest.mark.parametrize("exp", range(7))
    @pytest.mark.parametrize("spec", ZOO_SPECS)
    def test_steps_match_single_point_checks(self, spec, exp):
        z = CensusSet.parse(spec)
        assert swept_steps(z, exp) == step_oracle(z, exp)

    @pytest.mark.parametrize("exp", range(6))
    @pytest.mark.parametrize("spec", ZOO_SPECS)
    def test_slopes_match_single_point_checks(self, spec, exp):
        z = CensusSet.parse(spec)
        assert swept_slopes(z, exp) == slope_oracle(z, exp)

    def test_common_denominator(self):
        # the weight 2^-(exp + c(exp-1)) of the last input bit
        for z in zoo():
            for exp in range(1, 9):
                assert GridImage(z, exp).top == exp + z.census(exp - 1)

    @pytest.mark.parametrize("exp", range(1, 5))
    def test_planted_fault_at_equality(self, monkeypatch, exp):
        # halving fz(1/2) puts the empty set's slope over [0, 1/2] exactly
        # on its floor 1/2, where the strict bound fails
        halve_fz_at_half(monkeypatch)
        for z in zoo():
            steps, slopes = swept_steps(z, exp), swept_slopes(z, exp)
            assert steps == step_oracle(z, exp)
            assert slopes == slope_oracle(z, exp)
        grid = GridImage("empty", exp)
        half = 1 << (exp - 1)
        assert grid.slope_sides(0, half) == (F(1, 2), F(1, 2))
        assert (0, half, False) in grid.slopes()

    @pytest.mark.parametrize("exp", [2, 6])
    def test_violation_text_is_the_single_point_line(self, monkeypatch, exp):
        # verify reports a failing bound in the single-point checks' words
        halve_fz_at_half(monkeypatch)
        steps = [verify_strong_ratio(z, Dyadic(k, exp), n).line()
                 for z in zoo() for k, n, ok, _, _ in step_oracle(z, exp)
                 if not ok]
        slopes = [verify_ratio(z, Dyadic(ka, exp), Dyadic(kb, exp)).line()
                  for z in zoo() for ka, kb, ok, _, _ in slope_oracle(z, exp)
                  if not ok]
        assert steps and slopes
        assert [v.detail for v in _chk_step_bound(exp).violations] == steps
        assert [v.detail for v in _chk_slope_bound(exp).violations] == slopes


class TestWorkCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        import dymart.tightness
        plain, calls = dymart.tightness.insertion_value, []

        def counting(x, zset):
            calls.append(x)
            return plain(x, zset)

        monkeypatch.setattr(dymart.tightness, "insertion_value", counting)
        return calls

    def test_step_bound_one_fz_per_grid_point(self, calls):
        # six sets, 2^8 grid points each; the single-point checks made
        # two evaluations per bound (21,516 at depth 8)
        assert _chk_step_bound(8).ok
        assert len(calls) == 6 * (1 << 8)

    def test_slope_bound_one_fz_per_grid_point(self, calls):
        assert _chk_slope_bound(8).ok
        assert len(calls) == 6 * (1 << 6)
