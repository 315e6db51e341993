"""Command-line front end.

All numeric output is exact-rational "p/q" text; decimal rendering is
opt-in (--decimal D) and labeled approximate.  Given identical inputs the
output is byte-identical across runs: no clocks, no randomness, fixed
iteration orders.

Each command is one fresh interpreter, so start-up is part of its cost:
a handler imports the modules it runs inside its body, and the module
itself loads only ``argparse``, ``fractions``, ``dyadic`` and ``errors``.
``verify --suite X`` loads only the modules suite X runs: the analytic
suite loads ``analytic`` alone, the patch suite ``patch`` and ``funcs``,
the measure suite ``measure``, ``tightness`` and ``funcs``, and only the
martingale, pullback and tightness suites load the strategies
(``martingale`` and its kernel).  ``analytic`` and the analytic suite are
the only ones that load ``dataclasses`` (through ``PowerSeriesSpec``).

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

from .dyadic import Dyadic, Word, fmt_rational, parse_rational
from .errors import DepthGuardError, DymartError


def decimal_str(q, digits):
    """Exact long-division decimal expansion, truncated toward zero: one
    ``divmod`` per chunk of at most 1000 digits, so the pieces held before
    the join take about one byte a digit."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    den = q.denominator
    whole, rem = divmod(abs(q.numerator), den)
    chunks = []
    while digits > 0:
        c = min(digits, 1000)
        chunk, rem = divmod(rem * 10 ** c, den)
        chunks.append(str(chunk).zfill(c))
        digits -= c
    return f"{sign}{whole}.{''.join(chunks)}"


class Output:
    def __init__(self, path=None, decimal=None):
        self.lines = []
        self.path = path
        self.decimal = decimal

    def line(self, text):
        self.lines.append(text)

    def value(self, q):
        self.lines.append(fmt_rational(q))
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


def _merge_config(args, argv, parser, command):
    """``args`` with the ``--config`` file's keys as the command's defaults.

    A key names a long option of the command, with ``-`` and ``_`` alike; a
    flag's key reads true|false|yes|no|1|0.  The command line beats the
    file and the file beats a built-in default: the file's keys become
    ``command``'s defaults and argv is parsed again.  The options common to
    every command have no default, so a key for one of them fills it only
    when argv left it out.  File values stay text and pass the same guards
    as the command line's.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    from . import config as cfg
    options = {opt[2:].replace("-", "_"): action
               for opt, action in command._option_string_actions.items()
               if opt.startswith("--") and opt != "--help"}
    defaults, common = {}, {}
    for key, value in cfg.load_config(path).items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise DymartError(f"{path}: {key!r} is not a long option of "
                              f"{args.command}")
        if action.dest == "config":
            raise DymartError(f"{path}: {key!r} cannot be set in a config "
                              "file")
        if action.dest in defaults or action.dest in common:
            raise DymartError(f"{path}: {key!r} sets "
                              f"{action.option_strings[0]} a second time")
        if action.nargs == 0:
            value = cfg.parse_flag(value, key, path)
        if action.default is argparse.SUPPRESS:
            common[action.dest] = value
        else:
            defaults[action.dest] = value
    command.set_defaults(**defaults)
    args = parser.parse_args(argv)
    for dest, value in common.items():
        if not hasattr(args, dest):
            setattr(args, dest, value)
    return args


def _need(args, name):
    value = getattr(args, name, None)
    if value is None:
        raise DymartError(f"missing --{name} (flag or config key)")
    return value


def _depth(value, flag, limit=None,
           growth="the work doubles with each step"):
    """A depth-like knob as an int in [0, limit], or any nonnegative int
    when there is no limit.  A limit sits at a few seconds of work (or
    megabytes of output), so a larger value fails at once instead of
    running for minutes or hours; ``growth`` says why."""
    depth = int(value)
    if depth < 0:
        raise DepthGuardError(f"{flag} must be nonnegative, got {depth}")
    if limit is not None and depth > limit:
        raise DepthGuardError(f"{flag} {depth} is above the limit {limit}; "
                              f"{growth}")
    return depth


def _precision(args):
    return _depth(_need(args, "precision"), "--precision")


def cmd_verify(args, out):
    from .verify import run_suite
    ok, lines = run_suite(args.suite, _depth(args.depth, "--depth", 12))
    for line in lines:
        out.line(line)
    return 0 if ok else 1


def cmd_pullback(args, out):
    from . import config as cfg
    from .funcs import as_weak
    from .martingale import as_approx
    from .pullback import certify_bracket, pullback_approx
    mart = cfg.parse_martingale(_need(args, "martingale"))
    fn = cfg.parse_function(_need(args, "function"))
    if not fn.monotone:
        raise DymartError(f"{fn.name} is not monotone; the pullback needs a "
                          "monotone function")
    word = Word.parse(_need(args, "word"))
    r = _precision(args)
    approx = as_approx(mart)
    weak = as_weak(fn)
    if args.trace:
        rows = []
        for p in word.prefixes():
            v = pullback_approx(approx, weak, p, r)
            _, lo, hi = certify_bracket(mart, fn, p, r, v)
            rows.append((str(p), str(len(p)), fmt_rational(v),
                         fmt_rational(lo), fmt_rational(hi)))
        out.csv("word,prefix_len,v,lower_bracket,upper_bracket", rows)
    else:
        out.value(pullback_approx(approx, weak, word, r))
    return 0


def cmd_patch(args, out):
    from . import config as cfg
    from .funcs import as_weak
    from .patch import patch_approx
    fn = cfg.parse_function(_need(args, "function"))
    word = Word.parse(_need(args, "word"))
    out.value(patch_approx(as_weak(fn), word, _precision(args)))
    return 0


def cmd_analytic(args, out):
    from . import config as cfg
    from .analytic import PowerSeriesSpec, eval_approx, find_root
    spec = cfg.parse_series(_need(args, "spec"))
    if args.offset is not None:
        if not isinstance(spec, PowerSeriesSpec):
            raise DymartError("--offset applies to series specs only")
        spec = spec.shifted(parse_rational(args.offset))
    if args.action == "eval":
        word = Word.parse(_need(args, "word"))
        r = _precision(args)
        if isinstance(spec, PowerSeriesSpec):
            out.value(eval_approx(spec, word, r))
        else:
            out.value(spec.at(word.value()))
        return 0
    lo_text, _, hi_text = _need(args, "interval").partition(",")
    lo, hi = Dyadic.parse(lo_text), Dyadic.parse(hi_text)
    root = find_root(spec, (lo, hi), _precision(args))
    out.value(root)
    out.line(f"# binary {root.binary()}")
    return 0


def cmd_tightness(args, out):
    from . import config as cfg
    from .tightness import GridImage, insert_zeros, z_bettor
    zset = cfg.parse_zset(_need(args, "zset"))
    if args.action == "demo":
        depth = _depth(args.depth, "--depth", 4096,
                       "the output grows with the square of the depth")
        bettor = z_bettor(zset)
        stretched = insert_zeros(Word((1 << depth) - 1, depth), zset, depth)
        out.line("# capital trace along the stretched all-ones word")
        rows = [(str(n), str(stretched.prefix(n)),
                 fmt_rational(bettor.at(stretched.prefix(n))))
                for n in range(depth + 1)]
        out.csv("n,word,capital", rows)
        step_exp, slope_exp = min(depth, 4), min(depth, 4)
    else:
        step_exp = _depth(args.step_exp, "--step-exp", 12)
        slope_exp = _depth(args.slope_exp, "--slope-exp", 9)

    ok = True
    out.line("# step bounds: image increment over 2^-n steps vs census floor")
    grid = GridImage(zset, step_exp)
    rows = []
    for k, n, good in grid.steps():
        ok = ok and good
        lhs, rhs = grid.step_sides(k, n)
        rows.append((fmt_rational(Fraction(k, 1 << step_exp)), str(n),
                     fmt_rational(lhs), fmt_rational(rhs), str(good)))
    out.csv("x,n,lhs,rhs,ok", rows)

    out.line("# slope bounds: difference quotients vs census floor")
    grid = GridImage(zset, slope_exp)
    rows = []
    denom = 1 << slope_exp
    for ka, kb, good in grid.slopes():
        ok = ok and good
        lhs, rhs = grid.slope_sides(ka, kb)
        rows.append((f"{ka}/{denom}", f"{kb}/{denom}", fmt_rational(lhs),
                     fmt_rational(rhs), str(good)))
    out.csv("x,y,lhs,rhs,ok", rows)
    return 0 if ok else 1


def cmd_measure(args, out):
    from . import config as cfg
    from .measure import cumulative, differential, roundtrip_check
    if args.action == "cumulative":
        nu = cfg.parse_measure(_need(args, "measure"))
        out.value(cumulative(nu, Word.parse(_need(args, "word"))))
        return 0
    if args.action == "differential":
        fn = cfg.parse_function(_need(args, "function"))
        out.value(differential(fn, Word.parse(_need(args, "word"))))
        return 0
    nu = cfg.parse_measure(_need(args, "measure"))
    rep = roundtrip_check(nu, _depth(args.depth, "--depth", 14))
    for line in rep.lines():
        out.line(line)
    return 0 if rep.ok else 1


def cmd_trace(args, out):
    from . import config as cfg
    from .martingale import as_approx, capital_trace
    mart = cfg.parse_martingale(_need(args, "martingale"))
    word = Word.parse(_need(args, "word"))
    values = capital_trace(as_approx(mart), word, _precision(args))
    rows = [(str(i), str(word.prefix(i)), fmt_rational(v))
            for i, v in enumerate(values)]
    out.csv("prefix_len,word,capital", rows)
    return 0


def build_parser():
    """The ``dymart`` parser and its command parsers by name."""
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
    p.add_argument("--offset", help="evaluate, or find a root of, f - offset")

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
    return parser, sub.choices


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
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, argv, parser, commands[args.command])
        decimal = getattr(args, "decimal", None)
        if decimal is not None:
            decimal = _depth(decimal, "--decimal", 10 ** 6,
                             "each digit is one more long-division step")
        out = Output(getattr(args, "output", None), decimal)
        code = HANDLERS[args.command](args, out)
        out.flush()
        return code
    except (DymartError, ValueError, OSError, RecursionError,
            ArithmeticError, MemoryError) as exc:
        # a MemoryError from the allocator carries no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
