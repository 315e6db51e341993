"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints one "ACCEPT criterion-NN <label>: PASS (t s)" line (visible
with pytest -s, or in captured output).  Tolerances are either zero (exact
equality) or an explicit 2^-r from the criterion itself.
"""

import math
import re
import time
from fractions import Fraction

import pytest

from dymart import cli
from dymart.analytic import builtin_spec, eval_approx, find_root
from dymart.dyadic import Dyadic, Word, all_words, minimal_cover, parse_rational
from dymart.funcs import AffineFn, IdentityFn, TableStepFn, as_weak
from dymart.martingale import (allin_zeros, as_approx, conservative_transform,
                               pattern_bettor, uniform, verify_conservative,
                               verify_martingale)
from dymart.measure import (DifferentialMeasure, ProductMeasure,
                            UniformMeasure, dual_roundtrip_check,
                            roundtrip_check)
from dymart.patch import (patch_approx, patch_reference, patch_table,
                          strong_increase_check)
from dymart.pullback import (certify_bracket, pullback_approx, shift_stats,
                             squeeze_bound)
from dymart.tightness import (NormalizedInsertionFn, ZeroInsertionFn,
                              insert_zeros, z_bettor, zoo)

from helpers import (NoisyWeakFn, brute_force_cover, cos_interval,
                     exp_interval, in_interval, inner_max_by_scan,
                     ln1p_interval, sin_interval, verify_strong_ratio)

F = Fraction
W = Word.parse


def accept(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPT criterion-{num:02d} {label}: PASS ({elapsed:.1f}s)")


def builtin_zoo():
    return [uniform(), allin_zeros(), pattern_bettor("01"),
            pattern_bettor("110"), z_bettor("1"), z_bettor("0,2,4"),
            z_bettor("pow2"), z_bettor("tower")]


def test_criterion_01_martingale_identity():
    t0 = time.monotonic()
    marts = builtin_zoo()
    marts += [conservative_transform(d) for d in builtin_zoo()]
    for d in marts:
        rep = verify_martingale(d, 10)
        assert rep.checked == 2047, d.name
        assert rep.ok, (d.name, rep.violations[:3])
    accept(1, "fair-bet identity, depth 10, full zoo", t0, 10)


def test_criterion_02_conservative_bounds():
    t0 = time.monotonic()
    certified = [uniform(), pattern_bettor("01"), pattern_bettor("110")]
    certified += [conservative_transform(d) for d in builtin_zoo()]
    for d in certified:
        assert d.conservative
        rep = verify_conservative(d, 10)
        assert rep.ok, (d.name, rep.violations[:3])
    accept(2, "bet ratios in [1/2,3/2] and (3/2)^|w| cap", t0, 30)


def chain_pairs():
    return [
        (uniform(), IdentityFn(), True),
        (z_bettor("1"), ZeroInsertionFn("1", scaled=True), True),
        (conservative_transform(allin_zeros()), IdentityFn(), True),
        (pattern_bettor("01"), AffineFn(-1, Dyadic(1, 1)), True),
        (conservative_transform(z_bettor("0,2,4")),
         ZeroInsertionFn("0,2,4", scaled=True), True),
    ]


def test_criterion_03_chain_and_squeeze():
    t0 = time.monotonic()
    violations = 0
    for d, f, squeeze in chain_pairs():
        for x in all_words(5):
            stats = [shift_stats(d, f, x, n) for n in range(len(x) + 9)]
            for a, b in zip(stats, stats[1:]):
                if not (a.lower <= b.lower <= b.upper <= a.upper):
                    violations += 1
            for n, s in enumerate(stats):
                if inner_max_by_scan(d, f, x, n) > s.lower:
                    violations += 1
                if squeeze and s.upper - s.lower > squeeze_bound(len(x), n):
                    violations += 1
    assert violations == 0
    accept(3, "shift chain and conservative squeeze, |x|<=5, n<=|x|+8",
           t0, 60)


def test_criterion_04_pullback_end_to_end():
    t0 = time.monotonic()
    conservatives = [uniform(), pattern_bettor("01"),
                     conservative_transform(allin_zeros()),
                     conservative_transform(z_bettor("1"))]
    weak_id = as_weak(IdentityFn())
    for d in conservatives:
        for x in all_words(4):
            for r in (4, 8):
                v = pullback_approx(as_approx(d), weak_id, x, r)
                assert abs(v - d.at(x)) <= F(1, 1 << r), (d.name, x, r)

    f = ZeroInsertionFn("1", scaled=True)
    weak_f = as_weak(f)
    for d in (conservative_transform(z_bettor("1")), pattern_bettor("01")):
        for x in all_words(3):
            r = 4
            v = pullback_approx(as_approx(d), weak_f, x, r)
            ok, lo, hi = certify_bracket(d, f, x, r, v)
            assert ok, (d.name, x, v, lo, hi)
    accept(4, "pullback: identity recovery and exact shift bracket", t0, 300)


def test_criterion_05_greedy_cover():
    t0 = time.monotonic()
    for m in range(0, 7):
        denom = 1 << m
        for ka in range(denom + 1):
            for kb in range(ka, denom + 1):
                a, b = Dyadic(ka, m), Dyadic(kb, m)
                cover = list(minimal_cover(a, b, m))
                assert cover == brute_force_cover(a, b, m)
                lengths = [len(w) for w in cover]
                assert len(cover) <= 2 * m + 1
                assert all(n <= m for n in lengths)
                assert all(lengths.count(n) <= 2 for n in set(lengths))
                assert sum((F(1, 1 << n) for n in lengths), F(0)) == \
                    F(b) - F(a)
    accept(5, "greedy cover vs brute force, all grids m<=6", t0, 60)


def patch_zoo():
    return [
        TableStepFn(3, [F(0), F(1, 8), F(5, 8), F(3, 8), F(1, 2), F(11, 16),
                        F(3, 4), F(7, 8), F(1)], name="wiggle"),
        TableStepFn(2, [F(0), F(3, 4), F(1, 4), F(1, 2), F(1)],
                    name="sawtooth"),
        TableStepFn(3, [F(0), F(1, 4), F(1, 4), F(1, 8), F(3, 8), F(1, 2),
                        F(1, 2), F(5, 8), F(1)], name="dip"),
    ]


def test_criterion_06_monotone_patch():
    t0 = time.monotonic()
    tables = patch_zoo()
    assert all(not f.monotone for f in tables)
    for f in tables:
        g = patch_table(f, 10)
        assert all(a <= b for a, b in zip(g, g[1:])), f.name
        memo = {}
        noisy = NoisyWeakFn(f)
        for r in (4, 8, 12):
            for x in all_words(10):
                got = patch_approx(noisy, x, r)
                want = patch_reference(f, x.value(), memo)
                assert abs(got - want) <= F(1, 1 << r), (f.name, x, r)

    # certified slope instance: identity plus a far-away dip
    grid = 8
    x0 = Dyadic(85, 8)
    vals = []
    for k in range((1 << grid) + 1):
        v = F(k, 1 << grid)
        if 200 <= k <= 204:
            v += F(1, 16)
        elif 205 <= k <= 209:
            v -= F(1, 16)
        vals.append(v)
    f = TableStepFn(grid, vals, name="certified_dip")
    assert not f.monotone
    assert strong_increase_check(f, lambda q: F(f.at(q)), x0, F(1, 4),
                                 grid).ok
    memo = {}
    g_at = lambda q: patch_reference(f, q, memo)
    assert strong_increase_check(f, g_at, x0, F(1, 4), grid).ok
    assert g_at(x0) == F(f.at(x0))
    accept(6, "patch monotone, noise-tolerant approx, slope floor", t0, 120)


def test_criterion_07_series_evaluation():
    t0 = time.monotonic()
    oracles = {"exp": exp_interval, "sin": sin_interval,
               "cos": cos_interval, "geom": None}
    for name, oracle in oracles.items():
        spec = builtin_spec(name)
        shift = len(spec.anchor)
        for s in (4, 8, 12, 16):
            for k in range(16):
                a = Word(k, 4)
                t = F(k, 1 << (4 + shift))
                v = eval_approx(spec, a, s)
                if oracle is None:
                    want = 1 / (1 - t)  # geometric series, exact
                    assert abs(v - want) <= F(1, 1 << s), (name, k, s)
                else:
                    lo, hi = oracle(t)
                    assert hi - lo < F(1, 1 << 40)
                    assert in_interval(v, lo, hi, F(1, 1 << s)), (name, k, s)
    accept(7, "series evaluation within 2^-s of interval oracles", t0, 60)


def test_criterion_08_root_finding():
    t0 = time.monotonic()
    p = 16
    tol = F(1, 1 << p)

    root = find_root(builtin_spec("poly:-1/2,1"), (Dyadic(0), Dyadic(1)), p)
    assert abs(F(root) - F(1, 2)) <= tol

    root = find_root(builtin_spec("poly:-1/2,0,1"), (Dyadic(0), Dyadic(1)), p)
    ref = F(math.isqrt(2 ** 41), 1 << 21)
    assert abs(F(root) - ref) <= tol + F(1, 1 << 21)

    root = find_root(builtin_spec("exp").shifted(F(3, 2)),
                     (Dyadic(0), Dyadic(1)), p)
    lo, hi = ln1p_interval(F(1, 2))
    assert in_interval(F(root), lo, hi, tol)
    accept(8, "roots: 1/2, sqrt(1/2), ln(3/2) within 2^-16", t0, 30)


def test_criterion_09_census_bounds_and_capital():
    t0 = time.monotonic()
    # exact-equality instance first
    chk = verify_strong_ratio("1", Dyadic(0), 2)
    assert chk.ok and chk.lhs == F(1, 8) and chk.rhs == F(1, 8)

    # step bound, exhaustive at exponent 12
    exp = 12
    for z in zoo():
        fn = ZeroInsertionFn(z)
        scaled = [fn.at(Dyadic(k, exp)) for k in range(1 << exp)]
        common = max(v.denominator for v in scaled).bit_length() - 1
        nums = [int(v * (1 << common)) for v in scaled]
        for n in range(1, exp + 1):
            step = 1 << (exp - n)
            floor_num = 1 << (common - z.census(n) - n)
            for k in range(0, (1 << exp) - step):
                assert nums[k + step] - nums[k] >= floor_num, (z.name, k, n)

    # slope bound, exhaustive pairs at exponent 10
    exp = 10
    for z in zoo():
        fn = ZeroInsertionFn(z)
        vals = [fn.at(Dyadic(k, exp)) for k in range(1 << exp)]
        common = max(v.denominator for v in vals).bit_length() - 1
        nums = [int(v * (1 << common)) for v in vals]
        for ka in range(1 << exp):
            for kb in range(ka + 1, 1 << exp):
                gap = kb - ka
                n = exp - gap.bit_length() + 1
                # (f(y)-f(x)) / ((kb-ka)/2^exp) > 2^-(c(n)+1)
                lhs = (nums[kb] - nums[ka]) << (exp + z.census(n) + 1)
                rhs = gap << common
                assert lhs > rhs, (z.name, ka, kb)

    # capital identity along stretched sequences to n = 12
    seeds = [W("111111111111"), W("101010101010"), W("011010011001")]
    for z in zoo():
        d = z_bettor(z)
        for seed in seeds:
            s_z = insert_zeros(seed, z, 12)
            for n in range(13):
                assert d.at(s_z.prefix(n)) == F(1 << z.census(n - 1))
    accept(9, "census step/slope bounds exhaustive; capital identity", t0,
           120)


def test_criterion_10_measure_roundtrips():
    t0 = time.monotonic()
    measures = [UniformMeasure(), ProductMeasure(F(2, 3)),
                ProductMeasure(F(1, 5)),
                DifferentialMeasure(NormalizedInsertionFn("1"))]
    for nu in measures:
        assert roundtrip_check(nu, 10).ok, nu.name
    ramp = TableStepFn(3, [F(0), F(1, 16), F(1, 8), F(1, 4), F(1, 2),
                           F(5, 8), F(3, 4), F(7, 8), F(1)], name="ramp")
    fns = [IdentityFn(), NormalizedInsertionFn("1"),
           NormalizedInsertionFn("0,2,4"), ramp]
    for fn in fns:
        assert dual_roundtrip_check(fn, 10).ok, fn.name
    accept(10, "measure and function round trips, depth 10", t0, 60)


def test_criterion_11_determinism(capsys):
    t0 = time.monotonic()
    outputs = []
    for _ in range(2):
        code = cli.main(["verify", "--suite", "all", "--depth", "6"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0]

    rational = re.compile(r"-?\d+/\d+")
    sample_commands = [
        ["pullback", "--martingale", "uniform", "--function", "identity",
         "--word", "λ", "--precision", "10"],
        ["tightness", "demo", "--zset", "1", "--depth", "5"],
        ["measure", "cumulative", "--measure", "product:2/3", "--word", "1"],
        ["analytic", "eval", "--spec", "exp", "--word", "1",
         "--precision", "10"],
        ["trace", "--martingale", "conservative:zbettor:pow2", "--word",
         "00101", "--precision", "8"],
    ]
    for argv in sample_commands:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        tokens = rational.findall(out)
        assert tokens, argv
        for token in tokens:
            parse_rational(token)
    with capsys.disabled():
        accept(11, "byte-identical verify, all outputs parse as p/q", t0, 120)
