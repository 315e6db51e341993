"""Named invariant suites behind the ``verify`` command.

Each suite is an ordered list of (name, runner) pairs; a runner takes the
requested depth and returns a Report.  Output ordering is fixed and no
wall-clock data is included, so repeated runs are byte-identical.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernels
from .analytic import builtin_spec, derivative_spec, eval_approx, find_root
from .dyadic import Dyadic, Word, all_words, gamma, minimal_cover
from .funcs import IdentityFn, TableStepFn, as_weak
from .martingale import (Report, Violation, allin_zeros, as_approx,
                         conservative_transform, pattern_bettor,
                         savings_wrapper, uniform, verify_conservative,
                         verify_martingale)
from .measure import (DifferentialMeasure, ProductMeasure, UniformMeasure,
                      dual_roundtrip_check, roundtrip_check, verify_measure)
from .patch import patch_approx, patch_reference, patch_table, \
    strong_increase_check
from .pullback import (_cell_ranges, _delta_interval, certify_bracket,
                       inner_max, pullback_approx, shift_stats,
                       squeeze_bound)
from .tightness import (NormalizedInsertionFn, ZeroInsertionFn, z_bettor,
                        verify_ratio, verify_strong_ratio, zoo)

F = Fraction


def _report(title, checked, violations):
    return Report(title, checked, violations)


def _martingale_zoo():
    base = [uniform(), allin_zeros(), pattern_bettor("01"),
            pattern_bettor("110"), z_bettor("1"), z_bettor("0,2,4"),
            z_bettor("pow2"), z_bettor("tower")]
    return base + [conservative_transform(d) for d in base] + \
        [savings_wrapper(allin_zeros())]


def _shift_pairs():
    return [
        (uniform(), IdentityFn(), True),
        (z_bettor("1"), ZeroInsertionFn("1", scaled=True), True),
        (conservative_transform(allin_zeros()), IdentityFn(), True),
        (conservative_transform(z_bettor("0,2,4")),
         ZeroInsertionFn("0,2,4", scaled=True), True),
    ]


def _patch_tables():
    return [
        TableStepFn(3, [F(0), F(1, 8), F(5, 8), F(3, 8), F(1, 2), F(11, 16),
                        F(3, 4), F(7, 8), F(1)], name="wiggle"),
        TableStepFn(2, [F(0), F(3, 4), F(1, 4), F(1, 2), F(1)],
                    name="sawtooth"),
        TableStepFn(3, [F(0), F(1, 4), F(1, 4), F(1, 8), F(3, 8), F(1, 2),
                        F(1, 2), F(5, 8), F(1)], name="dip"),
    ]


# -- martingale suite --------------------------------------------------------

def _chk_martingale_identity(depth):
    violations = []
    checked = 0
    for d in _martingale_zoo():
        rep = verify_martingale(d, depth)
        checked += rep.checked
        violations.extend(rep.violations)
    return _report("fair-bet identity over the strategy zoo", checked,
                   violations)


def _chk_conservative_bounds(depth):
    violations = []
    checked = 0
    for d in _martingale_zoo():
        if d.conservative is None:
            continue
        rep = verify_conservative(d, depth)
        checked += rep.checked
        violations.extend(rep.violations)
    return _report("bet-ratio bounds for certified strategies", checked,
                   violations)


def _chk_domination(depth):
    violations = []
    checked = 0
    for base in (allin_zeros(), z_bettor("1"), pattern_bettor("01")):
        d = conservative_transform(base)
        root = base.at(Word(0, 0))
        for n in range(min(depth, 8) + 1):
            for k in range(1 << n):
                w = Word(k, n)
                checked += 1
                if d.at(w) ** 2 < base.at(w) * root:
                    violations.append(Violation(str(w), "domination",
                                                d.name))
    return _report("square-domination of the damped transform", checked,
                   violations)


# -- pullback suite ----------------------------------------------------------

def _chk_cover(depth):
    m = min(depth, 6)
    violations = []
    checked = 0
    for ka in range((1 << m) + 1):
        for kb in range(ka, (1 << m) + 1):
            a, b = Dyadic(ka, m), Dyadic(kb, m)
            cover = minimal_cover(a, b, m)
            checked += 1
            total = sum((F(1, 1 << len(w)) for w in cover), F(0))
            if total != F(b) - F(a) or len(cover) > 2 * m + 1:
                violations.append(Violation(f"[{a},{b}]", "cover", "shape"))
            pos = F(a)
            for w in cover:
                lo, hi = gamma(w)
                if F(lo) != pos or len(w) > m:
                    violations.append(Violation(str(w), "cover", "tiling"))
                pos = F(hi)
    return _report("greedy cover tiles exactly", checked, violations)


def _chk_chain(depth):
    top = min(depth, 3)
    violations = []
    checked = 0
    for d, f, conservative in _shift_pairs():
        for x in all_words(top):
            stats = [shift_stats(d, f, x, n) for n in range(len(x) + 7)]
            for n, (a, b) in enumerate(zip(stats, stats[1:])):
                checked += 1
                if not (a.lower <= b.lower and b.upper <= a.upper
                        and b.lower <= b.upper):
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "chain", "monotonicity"))
            for n, s in enumerate(stats):
                checked += 1
                if inner_max(d, f, x, n) > s.lower:
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "chain", "inner-cell bound"))
                if conservative and \
                        s.upper - s.lower > squeeze_bound(len(x), n):
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "squeeze", "gap too wide"))
    return _report("shift chain and conservative gap bound", checked,
                   violations)


def _scan_cells(d, f, x, n):
    """(lower, upper, inner max) at depth n from every cell in order, by
    integers scaled to 2^-(n * max_dexp) and a fresh path cursor: the
    literal counterpart of the block walk, for product forms."""
    lo, hi = _delta_interval(f, x)
    inner_a, inner_b, touch_a, touch_b = _cell_ranges(lo, hi, n)
    pf = d.product_form
    desc = pf.descriptor()
    cursor = kernels.PathCursor(desc, pf.classes)
    top = n * desc[4]
    inner = boundary = best = 0
    for k in range(touch_a, touch_b):
        num, dexp = cursor.value(k, n)
        v = num << (top - dexp)
        if inner_a <= k < inner_b:
            inner += v
            best = max(best, v)
        else:
            boundary += v
    unit = d.initial * F(1 << len(x), 1 << (n + top))
    return inner * unit, (inner + boundary) * unit, best * unit


def _chk_methods_agree(depth):
    violations = []
    checked = 0
    for d, f, _ in _shift_pairs():
        for x in [Word(0, 0), Word(1, 1), Word(1, 2)]:
            for n in (0, 4, min(depth + 6, 11)):
                checked += 1
                s = shift_stats(d, f, x, n)
                if (s.lower, s.upper, inner_max(d, f, x, n)) != \
                        _scan_cells(d, f, x, n):
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "methods", "disagree"))
    return _report("enumeration equals aligned-block collapse", checked,
                   violations)


def _chk_pullback_identity(depth):
    violations = []
    checked = 0
    weak = as_weak(IdentityFn())
    for d in (uniform(), conservative_transform(allin_zeros())):
        for x in all_words(min(depth, 3)):
            for r in (4, 8):
                checked += 1
                v = pullback_approx(as_approx(d), weak, x, r)
                if abs(v - d.at(x)) > F(1, 1 << r):
                    violations.append(Violation(f"{d.name} x={x} r={r}",
                                                "pullback", f"v={v}"))
    return _report("pullback through identity recovers the strategy",
                   checked, violations)


def _chk_pullback_bracket(depth):
    violations = []
    checked = 0
    d = conservative_transform(z_bettor("1"))
    f = ZeroInsertionFn("1", scaled=True)
    for x in all_words(min(depth, 2)):
        r = 4
        checked += 1
        v = pullback_approx(as_approx(d), as_weak(f), x, r)
        ok, lo, hi = certify_bracket(d, f, x, r, v)
        if not ok:
            violations.append(Violation(f"x={x}", "bracket",
                                        f"{v} outside [{lo}, {hi}]"))
    return _report("pullback value sits in the exact shift bracket",
                   checked, violations)


# -- patch suite -------------------------------------------------------------

def _chk_patch_monotone(depth):
    exp = min(depth, 8)
    violations = []
    checked = 0
    for f in _patch_tables():
        g = patch_table(f, exp)
        checked += len(g) - 1
        for k, (a, b) in enumerate(zip(g, g[1:])):
            if a > b:
                violations.append(Violation(f"{f.name} k={k}", "monotone",
                                            f"{a} > {b}"))
    return _report("patched tables are monotone", checked, violations)


def _chk_patch_approx(depth):
    violations = []
    checked = 0
    r = 8
    for f in _patch_tables():
        memo = {}
        weak = as_weak(f)
        for x in all_words(min(depth, 7)):
            checked += 1
            got = patch_approx(weak, x, r)
            want = patch_reference(f, x.value(), memo)
            if abs(got - want) > F(1, 1 << r):
                violations.append(Violation(f"{f.name} x={x}", "approx",
                                            f"{got} vs {want}"))
    return _report("one-pass patch approximation within tolerance", checked,
                   violations)


def _chk_patch_slope(depth):
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
    memo = {}
    rep = strong_increase_check(f, lambda q: patch_reference(f, q, memo),
                                x0, F(1, 4), grid)
    return _report("slope floor survives patching", rep.checked,
                   rep.violations)


# -- analytic suite ----------------------------------------------------------

def _chk_series_constants(depth):
    violations = []
    checked = 0
    for name in ("exp", "sin", "cos", "ln1p", "geom"):
        checked += 1
        try:
            builtin_spec(name).validate()
        except ValueError as exc:
            violations.append(Violation(name, "constants", str(exc)))
    return _report("series constants validate", checked, violations)


def _chk_series_eval(depth):
    violations = []
    checked = 0
    # self-consistency at increasing precision: coarse values must agree
    # with the s=24 evaluation within their own tolerance
    for name in ("exp", "sin", "cos", "geom"):
        spec = builtin_spec(name)
        for k in (0, 5, 10, 15):
            a = Word(k, 4)
            fine = eval_approx(spec, a, 24)
            for s in (4, 8):
                checked += 1
                v = eval_approx(spec, a, s)
                if abs(v - fine) > F(1, 1 << s) + F(1, 1 << 24):
                    violations.append(Violation(f"{name} a={a} s={s}",
                                                "eval", f"{v} vs {fine}"))
    return _report("series evaluation self-consistent across precisions",
                   checked, violations)


def _chk_series_derivative(depth):
    violations = []
    checked = 0
    spec = builtin_spec("exp")
    dspec = derivative_spec(spec)
    for k in (0, 7, 15):
        a = Word(k, 4)
        checked += 1
        if abs(eval_approx(spec, a, 10) - eval_approx(dspec, a, 10)) > \
                2 * F(1, 1 << 10):
            violations.append(Violation(f"a={a}", "derivative",
                                        "exp deviates from its derivative"))
    return _report("derivative series of exp matches exp", checked,
                   violations)


def _chk_root(depth):
    violations = []
    checked = 1
    root = find_root(builtin_spec("poly:-1/2,1"), (Dyadic(0), Dyadic(1)), 12)
    if root != Dyadic(1, 1):
        violations.append(Violation("poly:-1/2,1", "root", str(root)))
    return _report("bisection pins the linear root", checked, violations)


# -- tightness suite ---------------------------------------------------------

def _chk_step_bound(depth):
    exp = min(depth, 8)
    violations = []
    checked = 0
    for z in zoo():
        for n in range(1, exp + 1):
            for k in range(1 << exp):
                x = Dyadic(k, exp)
                if not x + Dyadic(1, n) < Dyadic(1):
                    continue
                checked += 1
                chk = verify_strong_ratio(z, x, n)
                if not chk.ok:
                    violations.append(Violation(f"z={z.name} x={x} n={n}",
                                                "step", chk.line()))
    return _report("insertion-map step bound, exhaustive grid", checked,
                   violations)


def _chk_slope_bound(depth):
    exp = min(depth, 6)
    violations = []
    checked = 0
    for z in zoo():
        for ka in range(1 << exp):
            for kb in range(ka + 1, (1 << exp) + 1):
                if kb == 1 << exp:
                    continue
                checked += 1
                chk = verify_ratio(z, Dyadic(ka, exp), Dyadic(kb, exp))
                if not chk.ok:
                    violations.append(Violation(
                        f"z={z.name} {ka}/{1 << exp},{kb}/{1 << exp}",
                        "slope", chk.line()))
    return _report("insertion-map slope bound, exhaustive pairs", checked,
                   violations)


def _chk_capital(depth):
    from .tightness import insert_zeros
    violations = []
    checked = 0
    seed = Word.parse("1111111111111111")
    for z in zoo():
        d = z_bettor(z)
        s_z = insert_zeros(seed, z, min(depth, 12))
        for n in range(len(s_z) + 1):
            checked += 1
            if d.at(s_z.prefix(n)) != F(1 << z.census(n - 1)):
                violations.append(Violation(f"z={z.name} n={n}", "capital",
                                            "census identity broken"))
    return _report("bettor capital equals census power along stretched "
                   "sequences", checked, violations)


# -- measure suite -----------------------------------------------------------

def _measure_zoo():
    return [UniformMeasure(), ProductMeasure(F(2, 3)), ProductMeasure(F(1, 5)),
            DifferentialMeasure(NormalizedInsertionFn("1"))]


def _chk_measure_axioms(depth):
    violations = []
    checked = 0
    for nu in _measure_zoo():
        rep = verify_measure(nu, min(depth, 8))
        checked += rep.checked
        violations.extend(rep.violations)
    return _report("measure axioms over the zoo", checked, violations)


def _chk_measure_roundtrip(depth):
    violations = []
    checked = 0
    for nu in _measure_zoo():
        rep = roundtrip_check(nu, min(depth, 8))
        checked += rep.checked
        violations.extend(rep.violations)
    return _report("measure -> cumulative -> increments round trip", checked,
                   violations)


def _chk_function_roundtrip(depth):
    violations = []
    checked = 0
    for fn in (IdentityFn(), NormalizedInsertionFn("1"),
               NormalizedInsertionFn("0,2,4")):
        rep = dual_roundtrip_check(fn, min(depth, 8))
        checked += rep.checked
        violations.extend(rep.violations)
    return _report("function -> increments -> cumulative round trip",
                   checked, violations)


SUITES = {
    "martingale": [
        ("identity", _chk_martingale_identity),
        ("conservative_bounds", _chk_conservative_bounds),
        ("domination", _chk_domination),
    ],
    "pullback": [
        ("greedy_cover", _chk_cover),
        ("shift_chain", _chk_chain),
        ("methods_agree", _chk_methods_agree),
        ("identity_pullback", _chk_pullback_identity),
        ("bracket", _chk_pullback_bracket),
    ],
    "patch": [
        ("monotone", _chk_patch_monotone),
        ("approx", _chk_patch_approx),
        ("slope_floor", _chk_patch_slope),
    ],
    "analytic": [
        ("constants", _chk_series_constants),
        ("eval", _chk_series_eval),
        ("derivative", _chk_series_derivative),
        ("root", _chk_root),
    ],
    "tightness": [
        ("step_bound", _chk_step_bound),
        ("slope_bound", _chk_slope_bound),
        ("capital", _chk_capital),
    ],
    "measure": [
        ("axioms", _chk_measure_axioms),
        ("roundtrip", _chk_measure_roundtrip),
        ("function_roundtrip", _chk_function_roundtrip),
    ],
}


def run_suite(name, depth):
    """Run one suite (or "all"); returns (ok, lines)."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    ok = True
    lines = []
    for suite in names:
        for check, runner in SUITES[suite]:
            rep = runner(depth)
            status = "PASS" if rep.ok else "FAIL"
            ok = ok and rep.ok
            lines.append(f"{status} {suite}.{check}: {rep.title} "
                         f"[{rep.checked} checks]")
            for v in rep.violations[:10]:
                lines.append(f"    {v.line()}")
            if len(rep.violations) > 10:
                lines.append(f"    ... {len(rep.violations) - 10} more")
    return ok, lines
