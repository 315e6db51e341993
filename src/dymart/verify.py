"""Named invariant suites behind the ``verify`` command.

Each suite is an ordered list of (name, runner) pairs; a runner takes the
requested depth and returns a Report.  Output ordering is fixed and no
wall-clock data is included, so repeated runs are byte-identical.

The module itself loads only what every suite uses (``dyadic`` and
``report``); each check imports the modules it runs inside its body, so
``verify --suite X`` loads only suite X's modules.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import (EMPTY, Dyadic, Word, all_words, common_numerators,
                     level_numerators, minimal_cover)
from .report import Report, Violation

F = Fraction


def _merged(title, reports):
    """One Report with the checks and violations of the given reports."""
    checked, violations = 0, []
    for rep in reports:
        checked += rep.checked
        violations.extend(rep.violations)
    return Report(title, checked, violations)


def _martingale_zoo():
    from .martingale import (allin_zeros, conservative_transform,
                             pattern_bettor, savings_wrapper, uniform)
    from .tightness import z_bettor
    base = [uniform(), allin_zeros(), pattern_bettor("01"),
            pattern_bettor("110"), z_bettor("1"), z_bettor("0,2,4"),
            z_bettor("pow2"), z_bettor("tower")]
    return base + [conservative_transform(d) for d in base] + \
        [savings_wrapper(allin_zeros())]


def _shift_pairs():
    from .funcs import IdentityFn
    from .martingale import allin_zeros, conservative_transform, uniform
    from .tightness import ZeroInsertionFn, z_bettor
    return [
        (uniform(), IdentityFn(), True),
        (z_bettor("1"), ZeroInsertionFn("1", scaled=True), True),
        (conservative_transform(allin_zeros()), IdentityFn(), True),
        (conservative_transform(z_bettor("0,2,4")),
         ZeroInsertionFn("0,2,4", scaled=True), True),
    ]


def _patch_tables():
    from .funcs import TableStepFn
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
    from .martingale import verify_martingale
    return _merged("fair-bet identity over the strategy zoo",
                   (verify_martingale(d, depth) for d in _martingale_zoo()))


def _chk_conservative_bounds(depth):
    from .martingale import verify_conservative
    return _merged("bet-ratio bounds for certified strategies",
                   (verify_conservative(d, depth) for d in _martingale_zoo()
                    if d.conservative))


def _domination(base, depth):
    """d(w)^2 >= base(w) base(λ) for the damped transform d of ``base``
    on all |w| <= min(depth, 8), one ``exact`` of each per word.  With
    each level of d over D and of base over B, and base(λ) = r/s, a word
    fails when d_num^2 B s < base_num r D^2."""
    from .martingale import conservative_transform
    violations = []
    checked = 0
    d = conservative_transform(base)
    [r], s = common_numerators([base.exact(EMPTY)])
    for n in range(min(depth, 8) + 1):
        dom, dom_den = level_numerators(d.exact, n)
        sub, sub_den = level_numerators(base.exact, n)
        lhs, rhs = sub_den * s, r * dom_den * dom_den
        checked += len(dom)
        for k, (v, b) in enumerate(zip(dom, sub)):
            if v * v * lhs < b * rhs:
                violations.append(Violation(str(Word(k, n)), "domination",
                                            d.name))
    return Report("square-domination of the damped transform", checked,
                  violations)


def _domination_bases():
    from .martingale import allin_zeros, pattern_bettor
    from .tightness import z_bettor
    return [allin_zeros(), z_bettor("1"), pattern_bettor("01")]


def _chk_domination(depth):
    return _merged("square-domination of the damped transform",
                   (_domination(base, depth) for base in _domination_bases()))


# -- pullback suite ----------------------------------------------------------

def _chk_cover(depth):
    m = min(depth, 6)
    violations = []
    checked = 0
    for ka in range((1 << m) + 1):
        for kb in range(ka, (1 << m) + 1):
            a, b = Dyadic(ka, m), Dyadic(kb, m)
            # listed once: a Cover makes its words on every pass
            cover = list(minimal_cover(a, b, m))
            checked += 1
            # tiles and total as integers at scale 2^s; s = m unless a
            # word is longer than m, which the tiling test flags
            s = max([m] + [len(w) for w in cover])
            total = sum(1 << (s - len(w)) for w in cover)
            if total != (kb - ka) << (s - m) or len(cover) > 2 * m + 1:
                violations.append(Violation(f"[{a},{b}]", "cover", "shape"))
            pos = ka << (s - m)
            for w in cover:
                lo = w.k << (s - len(w))
                if lo != pos or len(w) > m:
                    violations.append(Violation(str(w), "cover", "tiling"))
                pos = lo + (1 << (s - len(w)))
    return Report("greedy cover tiles exactly", checked, violations)


def _chk_chain(depth):
    """lower(x;n) <= lower(x;n+1) <= upper(x;n+1) <= upper(x;n), the
    inner-cell bound and the conservative gap bound for every x with
    |x| <= min(depth, 3) and n <= |x| + 6.  D_x is derived once per x and
    shared by every depth's ``shift_stats``; the largest inside cell is
    read from the depth's level of d, swept once per strategy."""
    from .pullback import _cell_ranges, _delta_interval, _shift_stats, \
        squeeze_bound
    top = min(depth, 3)
    violations = []
    checked = 0
    for d, f, conservative in _shift_pairs():
        levels = [level_numerators(d.exact, n) for n in range(top + 7)]
        for x in all_words(top):
            ends = _delta_interval(f, x)
            stats = [_shift_stats(d, ends, len(x), n)
                     for n in range(len(x) + 7)]
            for n, (a, b) in enumerate(zip(stats, stats[1:])):
                checked += 1
                if not (a.lower <= b.lower and b.upper <= a.upper
                        and b.lower <= b.upper):
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "chain", "monotonicity"))
            for n, (s, (nums, den)) in enumerate(zip(stats, levels)):
                checked += 1
                inner_a, inner_b, _, _ = _cell_ranges(*ends, n)
                best = max(nums[inner_a:inner_b], default=0)
                if F(best << len(x), den << n) > s.lower:
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "chain", "inner-cell bound"))
                if conservative and \
                        s.upper - s.lower > squeeze_bound(len(x), n):
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "squeeze", "gap too wide"))
    return Report("shift chain and conservative gap bound", checked,
                  violations)


def _chk_methods_agree(depth):
    """The walk's (lower, upper) against the sums of the inside and the
    touching cells of the depth's level of d, swept once per strategy."""
    from .pullback import _cell_ranges, _delta_interval, _shift_stats
    violations = []
    checked = 0
    for d, f, _ in _shift_pairs():
        levels = [(n, level_numerators(d.exact, n))
                  for n in (0, 4, min(depth + 6, 11))]
        for x in [Word(0, 0), Word(1, 1), Word(1, 2)]:
            ends = _delta_interval(f, x)
            for n, (nums, den) in levels:
                checked += 1
                s = _shift_stats(d, ends, len(x), n)
                inner_a, inner_b, touch_a, touch_b = _cell_ranges(*ends, n)
                unit = F(1 << len(x), den << n)
                if (s.lower, s.upper) != (sum(nums[inner_a:inner_b]) * unit,
                                          sum(nums[touch_a:touch_b]) * unit):
                    violations.append(Violation(f"{d.name} x={x} n={n}",
                                                "methods", "disagree"))
    return Report("enumeration equals aligned-block collapse", checked,
                  violations)


def _pullback_pair(d, weak, x, r):
    """The pullback value through ``as_approx(d)``, whose product form
    answers the cover from the block walk, and the value through an
    ``at()``-backed approximator, which queries the cover word by word."""
    from .martingale import ApproxMartingale, as_approx
    from .pullback import pullback_approx
    backed = ApproxMartingale(d.name, lambda w, p: d.at(w),
                              conservative=d.conservative)
    return (pullback_approx(as_approx(d), weak, x, r),
            pullback_approx(backed, weak, x, r))


def _chk_pullback_identity(depth):
    from .funcs import IdentityFn, as_weak
    from .martingale import allin_zeros, conservative_transform, uniform
    violations = []
    checked = 0
    weak = as_weak(IdentityFn())
    for d in (uniform(), conservative_transform(allin_zeros())):
        for x in all_words(min(depth, 3)):
            for r in (4, 8):
                checked += 1
                v, by_words = _pullback_pair(d, weak, x, r)
                where = f"{d.name} x={x} r={r}"
                if v != by_words:
                    violations.append(Violation(
                        where, "pullback", f"v={v}, word by word {by_words}"))
                if abs(by_words - d.at(x)) > F(1, 1 << r):
                    violations.append(Violation(where, "pullback",
                                                f"v={by_words}"))
    return Report("pullback through identity recovers the strategy",
                  checked, violations)


def _chk_pullback_bracket(depth):
    from .funcs import as_weak
    from .martingale import conservative_transform
    from .pullback import certify_bracket
    from .tightness import ZeroInsertionFn, z_bettor
    violations = []
    checked = 0
    d = conservative_transform(z_bettor("1"))
    f = ZeroInsertionFn("1", scaled=True)
    for x in all_words(min(depth, 2)):
        r = 4
        checked += 1
        v, by_words = _pullback_pair(d, as_weak(f), x, r)
        if v != by_words:
            violations.append(Violation(f"x={x}", "bracket",
                                        f"v={v}, word by word {by_words}"))
        ok, lo, hi = certify_bracket(d, f, x, r, by_words)
        if not ok:
            violations.append(Violation(f"x={x}", "bracket",
                                        f"{by_words} outside [{lo}, {hi}]"))
    return Report("pullback value sits in the exact shift bracket",
                  checked, violations)


# -- patch suite -------------------------------------------------------------

def _chk_patch_monotone(depth):
    from .patch import patch_table
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
    return Report("patched tables are monotone", checked, violations)


def _chk_patch_approx(depth):
    from .funcs import as_weak
    from .patch import patch_approx, patch_table
    violations = []
    checked = 0
    r = 8
    exp = min(depth, 7)
    for f in _patch_tables():
        g = patch_table(f, exp)
        weak = as_weak(f)
        for x in all_words(exp):
            checked += 1
            got = patch_approx(weak, x, r)
            want = g[x.k << (exp - x.n)]
            if abs(got - want) > F(1, 1 << r):
                violations.append(Violation(f"{f.name} x={x}", "approx",
                                            f"{got} vs {want}"))
    return Report("one-pass patch approximation within tolerance", checked,
                  violations)


def _chk_patch_slope(depth):
    from .funcs import TableStepFn
    from .patch import patch_table, strong_increase_check
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
    g = patch_table(f, grid)
    rep = strong_increase_check(f, lambda q: g[q.num << (grid - q.exp)],
                                x0, F(1, 4), grid)
    return Report("slope floor survives patching", rep.checked,
                  rep.violations)


# -- analytic suite ----------------------------------------------------------

def _chk_series_constants(depth):
    from .analytic import builtin_spec
    violations = []
    checked = 0
    for name in ("exp", "sin", "cos", "ln1p", "geom"):
        checked += 1
        try:
            builtin_spec(name).validate()
        except ValueError as exc:
            violations.append(Violation(name, "constants", str(exc)))
    return Report("series constants validate", checked, violations)


def _chk_series_eval(depth):
    from .analytic import builtin_spec, eval_approx
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
    return Report("series evaluation self-consistent across precisions",
                  checked, violations)


def _chk_series_derivative(depth):
    from .analytic import builtin_spec, derivative_spec, eval_approx
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
    return Report("derivative series of exp matches exp", checked,
                  violations)


def _chk_root(depth):
    from .analytic import builtin_spec, find_root
    violations = []
    checked = 1
    root = find_root(builtin_spec("poly:-1/2,1"), (Dyadic(0), Dyadic(1)), 12)
    if root != Dyadic(1, 1):
        violations.append(Violation("poly:-1/2,1", "root", str(root)))
    return Report("bisection pins the linear root", checked, violations)


# -- tightness suite ---------------------------------------------------------

def _chk_step_bound(depth):
    from .tightness import GridImage, zoo
    exp = min(depth, 8)
    violations = []
    checked = 0
    for z in zoo():
        grid = GridImage(z, exp)
        for k, n, ok in grid.steps():
            checked += 1
            if not ok:
                where = f"z={z.name} x={Dyadic(k, exp)} n={n}"
                lhs, rhs = grid.step_sides(k, n)
                violations.append(Violation(
                    where, "step", f"step bound {where}: {lhs} < {rhs}"))
    return Report("insertion-map step bound, exhaustive grid", checked,
                  violations)


def _chk_slope_bound(depth):
    from .tightness import GridImage, zoo
    exp = min(depth, 6)
    violations = []
    checked = 0
    for z in zoo():
        grid = GridImage(z, exp)
        for ka, kb, ok in grid.slopes():
            checked += 1
            if not ok:
                lhs, rhs = grid.slope_sides(ka, kb)
                violations.append(Violation(
                    f"z={z.name} {ka}/{1 << exp},{kb}/{1 << exp}", "slope",
                    f"slope bound z={z.name} x={Dyadic(ka, exp)} "
                    f"y={Dyadic(kb, exp)}: {lhs} < {rhs}"))
    return Report("insertion-map slope bound, exhaustive pairs", checked,
                  violations)


def _chk_capital(depth):
    from .tightness import insert_zeros, z_bettor, zoo
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
    return Report("bettor capital equals census power along stretched "
                  "sequences", checked, violations)


# -- measure suite -----------------------------------------------------------

def _measure_zoo():
    from .measure import DifferentialMeasure, ProductMeasure, UniformMeasure
    from .tightness import NormalizedInsertionFn
    return [UniformMeasure(), ProductMeasure(F(2, 3)), ProductMeasure(F(1, 5)),
            DifferentialMeasure(NormalizedInsertionFn("1"))]


def _chk_measure_axioms(depth):
    from .measure import verify_measure
    return _merged("measure axioms over the zoo",
                   (verify_measure(nu, min(depth, 8))
                    for nu in _measure_zoo()))


def _chk_measure_roundtrip(depth):
    from .measure import roundtrip_check
    return _merged("measure -> cumulative -> increments round trip",
                   (roundtrip_check(nu, min(depth, 8))
                    for nu in _measure_zoo()))


def _chk_function_roundtrip(depth):
    from .funcs import IdentityFn
    from .measure import dual_roundtrip_check
    from .tightness import NormalizedInsertionFn
    return _merged("function -> increments -> cumulative round trip",
                   (dual_roundtrip_check(fn, min(depth, 8))
                    for fn in (IdentityFn(), NormalizedInsertionFn("1"),
                               NormalizedInsertionFn("0,2,4"))))


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
