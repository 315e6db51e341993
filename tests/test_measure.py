from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart.dyadic import Dyadic, Word, all_words
from dymart.funcs import IdentityFn, TableStepFn
from dymart.measure import (CumulativeFn, DifferentialMeasure,
                            ProbabilityMeasure, ProductMeasure,
                            UniformMeasure, cumulative, cumulative_point,
                            differential, dual_roundtrip_check,
                            roundtrip_check, verify_measure)
from dymart.tightness import NormalizedInsertionFn as NormalizedInsertion
from dymart.tightness import ZeroInsertionFn

from helpers import (dual_roundtrip_by_points, roundtrip_by_words,
                     verify_measure_by_words, word_from_bits)

W = Word.parse
F = Fraction


def measure_zoo():
    return [UniformMeasure(), ProductMeasure(F(2, 3)), ProductMeasure(F(1, 5)),
            DifferentialMeasure(NormalizedInsertion("1"))]


def fn_zoo():
    ramp = TableStepFn(3, [F(0), F(1, 16), F(1, 8), F(1, 4), F(1, 2),
                           F(5, 8), F(3, 4), F(7, 8), F(1)], name="ramp")
    return [IdentityFn(), NormalizedInsertion("1"),
            NormalizedInsertion("0,2,4"), ramp]


class MisweighedUniform(ProbabilityMeasure):
    """The uniform measure with one word's mass off by 1/1000."""

    def __init__(self, bad):
        self.bad = bad
        self.name = f"misweighed:{bad}"

    def mass(self, w):
        v = F(1, 1 << len(w))
        return v + F(1, 1000) if w == self.bad else v


class DyadicUniform(ProbabilityMeasure):
    """The uniform measure with its masses as ``Dyadic``s."""

    name = "dyadic-uniform"

    def mass(self, w):
        return Dyadic(1, len(w))


class TestMeasures:
    def test_axioms(self):
        for nu in measure_zoo():
            assert verify_measure(nu, 8).ok, nu.name

    def test_biased_example(self):
        nu = ProductMeasure(F(2, 3))
        assert nu.mass(W("1")) == F(1, 3)
        assert nu.mass(W("00")) == F(4, 9)


class TestCumulative:
    def test_uniform_is_identity(self):
        nu = UniformMeasure()
        for x in all_words(10):
            assert cumulative(nu, x) == F(x.value())

    def test_total_is_a_fraction_whatever_the_mass_type(self):
        nu = DyadicUniform()
        for x in all_words(6):
            v = cumulative(nu, x)
            assert type(v) is Fraction and v == F(x.value()), x

    def test_biased_first_bit(self):
        assert cumulative(ProductMeasure(F(2, 3)), W("1")) == F(2, 3)

    def test_matches_brute_force_sum(self):
        for nu in measure_zoo():
            for x in all_words(7):
                brute = sum((Fraction(nu.mass(Word(k, len(x))))
                             for k in range(x.k)), F(0))
                assert cumulative(nu, x) == brute, (nu.name, x)

    def test_refinement_stability(self):
        # padding with zeros refines the grid but not the value
        for nu in measure_zoo():
            for x in all_words(6):
                padded = word_from_bits(list(x) + [0] * 3)
                assert cumulative(nu, x) == cumulative(nu, padded)

    def test_monotone_in_the_point(self):
        for nu in measure_zoo():
            vals = [cumulative(nu, Word(k, 10)) for k in range(1 << 10)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_point_form_endpoints(self):
        nu = ProductMeasure(F(2, 3))
        assert cumulative_point(nu, Dyadic(0)) == 0
        assert cumulative_point(nu, Dyadic(1)) == 1


class TestDifferential:
    def test_identity_gives_uniform(self):
        f = IdentityFn()
        for w in all_words(8):
            assert differential(f, w) == F(1, 1 << len(w))

    def test_normalized_insertion_values(self):
        f = NormalizedInsertion("1")
        assert differential(f, W("λ")) == 1
        # fz{1}(1/2) = 1/2, fz{1}(1) = 3/4; normalization scales by 4/3
        assert differential(f, W("1")) == F(4, 3) * (F(3, 4) - F(1, 2))

    def test_additivity(self):
        for f in fn_zoo():
            for w in all_words(10):
                assert differential(f, w) == \
                    differential(f, w.append(0)) + differential(f, w.append(1))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DifferentialMeasure(ZeroInsertionFn("1"))


class TestRoundTrips:
    def test_measure_side(self):
        for nu in measure_zoo():
            assert roundtrip_check(nu, 10).ok, nu.name

    def test_function_side(self):
        for f in fn_zoo():
            assert dual_roundtrip_check(f, 10).ok, f.name

    def test_composed_from_function_measure(self):
        nu = DifferentialMeasure(NormalizedInsertion("1"))
        assert roundtrip_check(nu, 8).ok

    def test_cumulative_oracle_is_monotone_fn(self):
        f = CumulativeFn(ProductMeasure(F(1, 3)))
        assert f.monotone and f.at_one() == 1
        grid = [f.at(Dyadic(k, 6)) for k in range(65)]
        assert all(a <= b for a, b in zip(grid, grid[1:]))


class TestRoundTripOracles:
    """The grid-sharing round trips against the word-by-word loops."""

    @pytest.mark.parametrize("depth", range(7))
    def test_measure_side_matches_oracle(self, depth):
        for nu in measure_zoo() + [ProductMeasure(F(1, 3)),
                                   MisweighedUniform(W("10")),
                                   MisweighedUniform(W("0111"))]:
            assert roundtrip_check(nu, depth) == \
                roundtrip_by_words(nu, depth), nu.name

    @pytest.mark.parametrize("exp", range(7))
    def test_function_side_matches_oracle(self, exp):
        fns = fn_zoo() + [CumulativeFn(nu) for nu in measure_zoo()] + \
            [CumulativeFn(ProductMeasure(F(1, 3)))]
        for f in fns:
            assert dual_roundtrip_check(f, exp) == \
                dual_roundtrip_by_points(f, exp), f.name

    @pytest.mark.parametrize("bad", [w for w in all_words(4) if len(w)],
                             ids=str)
    def test_misweighed_word_is_reported(self, bad):
        # a word ending in 1 is caught at itself; one ending in 0 at its
        # sibling, because the cumulative at the sibling's left end is
        # the telescoped sum that holds the wrong mass
        rep = roundtrip_check(MisweighedUniform(bad), 6)
        where = {v.where for v in rep.violations}
        flagged = bad if bad.k & 1 else Word(bad.k + 1, len(bad))
        assert str(flagged) in where
        assert rep == roundtrip_by_words(MisweighedUniform(bad), 6)


class ScrambledMeasure(ProbabilityMeasure):
    """Masses in [-1/4, 7/4], mass(λ) = 2 as a Dyadic: not a measure."""

    name = "scrambled"

    def mass(self, w):
        if not w.n:
            return Dyadic(2)
        return F((5 * w.k + 3 * w.n) % 9 - 1, 4)


class PlantedMeasure(ProbabilityMeasure):
    """``base`` with the masses of some words replaced; each mass is an
    ``int`` when it is integral and ``as_int`` is set, a ``Dyadic`` when it
    is dyadic and ``as_dyadic`` is set, else a ``Fraction``."""

    def __init__(self, base, planted, as_int, as_dyadic):
        self.base, self.planted = base, planted
        self.as_int, self.as_dyadic = as_int, as_dyadic
        self.name = f"planted:{base.name}"

    def mass(self, w):
        v = F(self.planted.get(w, self.base.mass(w)))
        if self.as_int and v.denominator == 1:
            return v.numerator
        if self.as_dyadic and not v.denominator & (v.denominator - 1):
            return Dyadic.from_fraction(v)
        return v


@st.composite
def planted_measures(draw):
    """(measure, depth): a zoo measure at depth 0..8 with up to three
    planted faults: a non-additive word, a mass above 1 or below 0, or a
    total other than 1."""
    depth = draw(st.integers(0, 8))
    base = draw(st.sampled_from(measure_zoo() + [ProductMeasure(F(1, 3))]))
    planted = {}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["additivity", "above", "below",
                                     "total"]))
        n = draw(st.integers(0, depth))
        w = Word(draw(st.integers(0, (1 << n) - 1)), n)
        off = draw(st.fractions(min_value=F(1, 1024), max_value=2,
                                max_denominator=1024))
        if kind == "total":
            w = Word(0, 0)
            planted[w] = 1 + off if draw(st.booleans()) else 1 - off
        elif kind == "additivity":
            planted[w] = F(base.mass(w)) + draw(st.sampled_from([off, -off]))
        else:
            planted[w] = 1 + off if kind == "above" else -off
    return PlantedMeasure(base, planted, draw(st.booleans()),
                          draw(st.booleans())), depth


class TestAxiomsOracle:
    @settings(max_examples=150, deadline=None)
    @given(planted_measures())
    def test_integer_sweep_is_the_word_by_word_check(self, case):
        nu, depth = case
        assert verify_measure(nu, depth) == verify_measure_by_words(nu, depth)

    @pytest.mark.parametrize("depth", [0, 2, 5, 8])
    def test_each_fault_is_reported(self, depth):
        # the root's total, a range fault and its parent's additivity; at
        # depth 0 only the total is checked
        w = Word(0, max(depth - 1, 1))
        nu = PlantedMeasure(UniformMeasure(), {Word(0, 0): F(1, 2), w: -1},
                            True, True)
        rep = verify_measure(nu, depth)
        assert rep == verify_measure_by_words(nu, depth)
        kinds = {v.kind for v in rep.violations}
        assert kinds == ({"total"} if depth == 0 else
                         {"total", "range", "additivity"})


class TestWorkCounts:
    @pytest.mark.parametrize("depth", [0, 1, 3, 8])
    def test_axioms_mass_once_per_word(self, depth):
        nu, words = ProductMeasure(F(2, 3)), []
        plain = nu.mass
        nu.mass = lambda w: words.append(w) or plain(w)
        assert verify_measure(nu, depth).ok
        # one level after another: every word of length <= depth, once
        assert len(words) == len(set(words)) == (2 << depth) - 1
        assert set(words) == set(all_words(depth))

    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_axioms_report_matches_word_by_word(self, depth):
        nu = ScrambledMeasure()
        rep = verify_measure(nu, depth)
        assert rep == verify_measure_by_words(nu, depth)
        assert rep.violations[0].line() == "total at λ: mass(λ) = 2/1"
        if depth == 5:
            assert {v.kind for v in rep.violations} == \
                {"total", "additivity", "range"}

    @pytest.mark.parametrize("depth", [0, 3, 8])
    def test_cumulative_once_per_grid_point(self, monkeypatch, depth):
        plain, points = CumulativeFn.at, []

        def counting(self, q):
            points.append(q)
            return plain(self, q)

        monkeypatch.setattr(CumulativeFn, "at", counting)
        assert roundtrip_check(ProductMeasure(F(2, 3)), depth).ok
        # 2^n + 1 grid points per level n = 0..depth, each asked once
        assert len(points) == sum((1 << n) + 1 for n in range(depth + 1))
