"""Command-line front end.

All numeric output is exact-rational "p/q" text; decimal rendering is
opt-in (--decimal D) and labeled approximate.  Given identical inputs the
output is byte-identical across runs: no clocks, no randomness, fixed
iteration orders.

Commands:
  verify                invariant suites (martingale, pullback, patch,
                        analytic, tightness, measure, all)
  pullback              approximate pullback value, optionally per-prefix
                        trace with exact shift brackets
  patch                 monotone-patch evaluation
  analytic eval|root    certified series evaluation / sign-change root
  tightness demo|bounds capital trace and exact census-bound tables
  measure cumulative|differential|roundtrip
  trace                 capital along the prefixes of a word
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import config as cfg
from .analytic import PowerSeriesSpec, eval_approx, find_root
from .dyadic import Dyadic, Word, parse_rational
from .errors import DepthGuardError, DymartError
from .funcs import as_weak
from .martingale import as_approx, capital_trace
from .measure import cumulative, differential, roundtrip_check
from .patch import patch_approx
from .pullback import certify_bracket, pullback_approx
from .tightness import insert_zeros, verify_ratio, verify_strong_ratio, \
    z_bettor
from .verify import run_suite


def fmt(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q, digits):
    """Exact long-division decimal expansion, truncated toward zero."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole = q.numerator // q.denominator
    rem = q.numerator - whole * q.denominator
    out = []
    for _ in range(digits):
        rem *= 10
        out.append(str(rem // q.denominator))
        rem -= (rem // q.denominator) * q.denominator
    return f"{sign}{whole}.{''.join(out)}"


class Output:
    def __init__(self, path=None, decimal=None):
        self.lines = []
        self.path = path
        self.decimal = decimal

    def line(self, text):
        self.lines.append(text)

    def value(self, q, label=None):
        prefix = f"{label} = " if label else ""
        self.lines.append(prefix + fmt(q))
        if self.decimal:
            self.lines.append(f"# approx {decimal_str(q, self.decimal)} "
                              f"({self.decimal} digits, truncated)")

    def csv(self, header, rows):
        self.lines.append(header)
        self.lines.extend(",".join(row) for row in rows)

    def flush(self):
        text = "\n".join(self.lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _merge_config(args):
    path = getattr(args, "config", None)
    if not path:
        return args
    defaults = cfg.load_config(path)
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)
    return args


def _need(args, name):
    value = getattr(args, name, None)
    if value is None:
        raise DymartError(f"missing --{name} (flag or config key)")
    return value


def _depth(value, flag, limit=None):
    """A depth-like knob as an int in [0, limit] (no upper limit when
    None).  Where the work doubles with each step, the limit sits at a few
    seconds of work, so a larger value fails at once instead of running
    for minutes or hours."""
    depth = int(value)
    if depth < 0:
        raise DepthGuardError(f"{flag} must be nonnegative, got {depth}")
    if limit is not None and depth > limit:
        raise DepthGuardError(f"{flag} {depth} is above the limit {limit}; "
                              "the work doubles with each step")
    return depth


def _weak(oracle):
    return oracle.as_weak() if hasattr(oracle, "as_weak") else as_weak(oracle)


def cmd_verify(args, out):
    ok, lines = run_suite(args.suite, _depth(args.depth, "--depth", 12))
    for line in lines:
        out.line(line)
    return 0 if ok else 1


def cmd_pullback(args, out):
    mart = cfg.parse_martingale(_need(args, "martingale"))
    fn = cfg.parse_function(_need(args, "function"))
    if not fn.monotone:
        raise DymartError(f"{fn.name} is not monotone; the pullback needs a "
                          "monotone function")
    word = cfg.parse_word(_need(args, "word"))
    r = int(_need(args, "precision"))
    approx = as_approx(mart)
    weak = _weak(fn)
    if args.trace:
        rows = []
        for p in word.prefixes():
            v = pullback_approx(approx, weak, p, r)
            _, lo, hi = certify_bracket(mart, fn, p, r, v)
            rows.append((str(p), str(len(p)), fmt(v), fmt(lo), fmt(hi)))
        out.csv("word,prefix_len,v,lower_bracket,upper_bracket", rows)
    else:
        out.value(pullback_approx(approx, weak, word, r))
    return 0


def cmd_patch(args, out):
    fn = cfg.parse_function(_need(args, "function"))
    word = cfg.parse_word(_need(args, "word"))
    out.value(patch_approx(_weak(fn), word, int(_need(args, "precision"))))
    return 0


def cmd_analytic(args, out):
    spec = cfg.parse_series(_need(args, "spec"))
    if args.action == "eval":
        word = cfg.parse_word(_need(args, "word"))
        r = int(_need(args, "precision"))
        if isinstance(spec, PowerSeriesSpec):
            out.value(eval_approx(spec, word, r))
        else:
            out.value(spec.at(word.value()))
        return 0
    # root
    if args.offset is not None:
        if not isinstance(spec, PowerSeriesSpec):
            raise DymartError("--offset applies to series specs only")
        spec = spec.shifted(parse_rational(args.offset))
    lo_text, _, hi_text = _need(args, "interval").partition(",")
    lo, hi = Dyadic.parse(lo_text), Dyadic.parse(hi_text)
    root = find_root(spec, (lo, hi), int(_need(args, "precision")))
    out.value(root)
    out.line(f"# binary {root.binary()}")
    return 0


def cmd_tightness(args, out):
    zset = cfg.parse_zset(_need(args, "zset"))
    if args.action == "demo":
        depth = _depth(args.depth, "--depth")
        bettor = z_bettor(zset)
        stretched = insert_zeros(Word((1 << depth) - 1, depth), zset, depth)
        out.line("# capital trace along the stretched all-ones word")
        rows = [(str(n), str(stretched.prefix(n)),
                 fmt(bettor.at(stretched.prefix(n))))
                for n in range(depth + 1)]
        out.csv("n,word,capital", rows)
        step_exp, slope_exp = min(depth, 4), min(depth, 4)
    else:
        step_exp = _depth(args.step_exp, "--step-exp", 12)
        slope_exp = _depth(args.slope_exp, "--slope-exp", 9)

    ok = True
    out.line("# step bounds: image increment over 2^-n steps vs census floor")
    rows = []
    for n in range(1, step_exp + 1):
        for k in range(1 << step_exp):
            x = Dyadic(k, step_exp)
            if not x + Dyadic(1, n) < Dyadic(1):
                continue
            chk = verify_strong_ratio(zset, x, n)
            ok = ok and chk.ok
            rows.append((fmt(Fraction(x)), str(n), fmt(chk.lhs),
                         fmt(chk.rhs), str(chk.ok)))
    out.csv("x,n,lhs,rhs,ok", rows)

    out.line("# slope bounds: difference quotients vs census floor")
    rows = []
    denom = 1 << slope_exp
    for ka in range(denom):
        for kb in range(ka + 1, denom):
            chk = verify_ratio(zset, Dyadic(ka, slope_exp),
                               Dyadic(kb, slope_exp))
            ok = ok and chk.ok
            rows.append((f"{ka}/{denom}", f"{kb}/{denom}", fmt(chk.lhs),
                         fmt(chk.rhs), str(chk.ok)))
    out.csv("x,y,lhs,rhs,ok", rows)
    return 0 if ok else 1


def cmd_measure(args, out):
    if args.action == "cumulative":
        nu = cfg.parse_measure(_need(args, "measure"))
        out.value(cumulative(nu, cfg.parse_word(_need(args, "word"))))
        return 0
    if args.action == "differential":
        fn = cfg.parse_function(_need(args, "function"))
        out.value(differential(fn, cfg.parse_word(_need(args, "word"))))
        return 0
    nu = cfg.parse_measure(_need(args, "measure"))
    rep = roundtrip_check(nu, _depth(args.depth, "--depth", 14))
    for line in rep.lines():
        out.line(line)
    return 0 if rep.ok else 1


def cmd_trace(args, out):
    mart = cfg.parse_martingale(_need(args, "martingale"))
    word = cfg.parse_word(_need(args, "word"))
    values = capital_trace(as_approx(mart), word, int(args.precision))
    rows = [(str(i), str(word.prefix(i)), fmt(v))
            for i, v in enumerate(values)]
    out.csv("prefix_len,word,capital", rows)
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value defaults file")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write output to this path")
    common.add_argument("--decimal", type=int, default=argparse.SUPPRESS,
                        help="also print N-digit decimal approximations")
    parser = argparse.ArgumentParser(
        prog="dymart",
        description="exact dyadic-rational martingale toolkit",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = sub_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all",
                   help="martingale|pullback|patch|analytic|tightness|"
                        "measure|all")
    p.add_argument("--depth", default="8")

    p = sub_parser("pullback", help="pullback value or per-prefix trace")
    p.add_argument("--martingale")
    p.add_argument("--function")
    p.add_argument("--word", help="input word x (λ for the empty word)")
    p.add_argument("--precision")
    p.add_argument("--trace", action="store_true")

    p = sub_parser("patch", help="monotone-patch evaluation")
    p.add_argument("--function")
    p.add_argument("--word")
    p.add_argument("--precision")

    p = sub_parser("analytic", help="series evaluation and roots")
    p.add_argument("action", choices=("eval", "root"))
    p.add_argument("--spec")
    p.add_argument("--word", help="word relative to the spec's anchor")
    p.add_argument("--interval", help="root bracket, e.g. 0,1")
    p.add_argument("--precision")
    p.add_argument("--offset", help="find a root of f - offset")

    p = sub_parser("tightness", help="insertion-family demos and bounds")
    p.add_argument("action", choices=("demo", "bounds"))
    p.add_argument("--zset")
    p.add_argument("--depth", default="5")
    p.add_argument("--step-exp", default="6", dest="step_exp")
    p.add_argument("--slope-exp", default="5", dest="slope_exp")

    p = sub_parser("measure", help="measure/function bridge")
    p.add_argument("action", choices=("cumulative", "differential",
                                      "roundtrip"))
    p.add_argument("--measure")
    p.add_argument("--function")
    p.add_argument("--word")
    p.add_argument("--depth", default="10")

    p = sub_parser("trace", help="capital along a word's prefixes")
    p.add_argument("--martingale")
    p.add_argument("--word")
    p.add_argument("--precision", default="10")
    return parser


HANDLERS = {
    "verify": cmd_verify,
    "pullback": cmd_pullback,
    "patch": cmd_patch,
    "analytic": cmd_analytic,
    "tightness": cmd_tightness,
    "measure": cmd_measure,
    "trace": cmd_trace,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        out = Output(getattr(args, "output", None),
                     getattr(args, "decimal", None))
        code = HANDLERS[args.command](args, out)
        out.flush()
        return code
    except (DymartError, ValueError, OSError, RecursionError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
