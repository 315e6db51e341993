"""Seeded workloads: instance generation, the timed op and its answer check.

Every workload is a fixed *batch* of ops drawn from the seed.  The batch has
a fixed mix (how many ops per precision, per strategy kind, per root kind),
so two seeds give different instances with the same shape of work.  The
program receives only the generated inputs: spec strings, words and
precisions, parsed the way the CLI parses them.

Why these four workloads:

- pullback-exact: certified pullback values with exact-backed approximators
  (the CLI path).  kernels.cell_value (O(m^2) factor steps on m-bit
  integers), the greedy cover and the Fraction sums do nearly all the work,
  so a faster product-form walk shows here.  Images are non-dyadic
  fz_norm maps; identity and fz_scaled images give one-word covers and
  would measure nothing.
- pullback-blackbox: the same instance family reached only through the
  ApproxMartingale/WeakFn contracts, with answers off by a deterministic
  +-2^-r.  Half the strategies are savings wrappers with no product form.
  This is the per-word query path, where the ExactMartingale memo matters;
  a gain on pullback-exact that slows the contract path shows here.
- analytic-roots: certified roots.  A fixed minority of poly specs have
  dyadic roots, where certified_sign climbs to s = (p+2)*256 and sums
  thousands of zero terms; the rest have transcendental or irrational
  roots and finish fast.  An exact-zero shortcut should move the tail and
  wall time and leave the median alone.
- cli-mix: child processes of the CLI covering all seven commands plus
  malformed inputs.  The only workload that pays process start-up, runs
  the verify suites, patch, tightness and measure, and formats stdout.
"""

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import enclose

WORKLOADS = ("pullback-exact", "pullback-blackbox", "analytic-roots",
             "cli-mix")

# image sets whose fz_norm endpoints have long, dense binary expansions:
# over random words the greedy cover holds at least 0.94 m words in nine
# cases of ten, so each op does about the same work for its (|x|, r)
IMAGE_SETS = ("3,4", "0,3,4", "1,2", "0,1,2", "2,3,4", "5,6", "0,5,6",
              "1,2,3", "2,3", "0,2,3", "1,5,6", "2,5,6", "4,5,6", "3,5,6",
              "1,4,6")
ZSETS = ("1", "2", "1,3", "0,2", "2,4", "1,2,5", "3,6", "0,4")

# (label, r, count): r = precision of the pullback value.  The few r256
# and r512 ops dominate the batch time; the r128 ops set the median and
# the tail.  The batch is small enough to repeat several times in a run.
PULLBACK_EXACT_MIX = {
    "full": [("r512", 512, 1), ("r256", 256, 3), ("r128", 128, 28)],
    "tiny": [("r32", 32, 2), ("r16", 16, 4), ("r8", 8, 6)],
}
# (label, r, savings?, count).  Half the ops are savings wrappers.  The
# counts put the median and the tail inside the sav.r64/cons.r128 band,
# not on a boundary between bands.  No savings op at r256: its cost
# swings 1.5-2.8 s with the seed, too much for one op of the batch.
PULLBACK_BLACKBOX_MIX = {
    "full": [("sav.r128", 128, True, 3), ("sav.r64", 64, True, 12),
             ("cons.r256", 256, False, 3), ("cons.r128", 128, False, 2),
             ("cons.r64", 64, False, 10)],
    "tiny": [("sav.r16", 16, True, 2), ("sav.r8", 8, True, 2),
             ("cons.r16", 16, False, 2), ("cons.r8", 8, False, 2)],
}
# (label, p, dyadic?, count).  The twelve dyadic-root ops are the slowest
# by a wide margin, so the tail (ten ops above it) falls in the
# dyadic.p16 band and the median among the other roots.
ANALYTIC_MIX = {
    "full": [("dyadic.p32", 32, True, 4), ("dyadic.p24", 24, True, 4),
             ("dyadic.p16", 16, True, 4), ("other.p32", 32, False, 10),
             ("other.p24", 24, False, 10), ("other.p16", 16, False, 10)],
    "tiny": [("dyadic.p6", 6, True, 2), ("other.p8", 8, False, 3),
             ("other.p6", 6, False, 3)],
}
CLI_DEPTH = {"full": 8, "tiny": 3}
CLI_WORKDIR = "perfbench/out/cli-inputs"     # relative to the checkout


def _rng(workload, seed, size):
    return random.Random(f"{workload}:{size}:{seed}")


def _word(rng, lo, hi):
    """Random word of length lo..hi that is neither 0^n nor 1^n (those put
    an image endpoint at exactly 0 or 1)."""
    while True:
        n = rng.randint(lo, hi)
        k = rng.randrange(1 << n)
        if 0 < k < (1 << n) - 1:
            return format(k, f"0{n}b")


def _strategy(rng, kind=None):
    kind = kind or rng.choice(("pattern", "zbettor"))
    if kind == "pattern":
        return kind, f"pattern:{_word(rng, 2, 4)}"
    return kind, f"zbettor:{rng.choice(ZSETS)}"


def _fz(bits, members):
    """fz(0.bits) = sum over set bits i of 2^-(i + c(i) + 1), c(i) the
    number of insertion positions <= i."""
    total, c = Fraction(0), 0
    for i, bit in enumerate(bits):
        c += i in members
        if bit == "1":
            total += Fraction(1, 1 << (i + c + 1))
    return total


def _fz_at_one(members):
    """The limit of fz at 1 for a finite insertion set."""
    horizon = max(members) + 1
    tail = Fraction(1, 1 << (horizon + len(members)))
    return _fz("1" * horizon, members) + tail


def both_ends_non_dyadic(word, zset):
    """True when fz_norm maps both ends of the word's interval to
    non-dyadic points.  A dyadic end halves the cover, and with it the
    op's work, so such draws are redrawn."""
    members = {int(z) for z in zset.split(",")}
    scale = _fz_at_one(members)
    succ = format(int(word, 2) + 1, f"0{len(word)}b")
    ends = (_fz(word, members) / scale, _fz(succ, members) / scale)
    return all(q.denominator & (q.denominator - 1) for q in ends)


def pullback_instances(seed, size, blackbox):
    workload = "pullback-blackbox" if blackbox else "pullback-exact"
    rng = _rng(workload, seed, size)
    out = []
    if blackbox:
        mix = PULLBACK_BLACKBOX_MIX[size]
    else:
        mix = [(label, r, False, count)
               for label, r, count in PULLBACK_EXACT_MIX[size]]
    for label, r, savings, count in mix:
        for i in range(count):
            kind, inner = _strategy(rng, ("pattern", "zbettor")[i % 2])
            name = f"conservative:{inner}"
            if savings:
                name = f"savings:{name}"
            while True:
                zset, word = rng.choice(IMAGE_SETS), _word(rng, 2, 8)
                if both_ends_non_dyadic(word, zset):
                    break
            out.append({
                "group": label, "r": r, "kind": kind, "savings": savings,
                "martingale": name, "function": f"fz_norm:{zset}",
                "word": word, "salt": rng.randrange(1 << 30),
            })
    rng.shuffle(out)
    return out


def _dyadic_root_instance(rng, p, linear):
    # root a = k / 2^j strictly inside (0, 1), k odd.  Bisection lands on
    # it after j halvings and then meets it again, at full escalation, in
    # each of the last p - j rounds; a fixed j = p - 4 gives every op of a
    # precision the same cost.
    j = max(1, p - 4)
    k = rng.randrange(1, 1 << j, 2)
    a = Fraction(k, 1 << j)
    if linear:
        coeffs = [-a, Fraction(1)]                      # t - a
    else:
        c = Fraction(rng.randint(1, 6), 4)              # (t - a)(t + c)
        coeffs = [-a * c, c - a, Fraction(1)]
    return {"family": "poly", "coeffs": [str(q) for q in coeffs],
            "offset": None, "interval": "0,1", "root": str(a)}


def _is_square(q):
    return all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


OTHER_FAMILIES = ("exp", "sin", "cos", "ln1p", "poly")


def _other_root_instance(rng, family):
    if family == "exp":          # e^t = q, q in (1, e)
        q = Fraction(rng.randint(17, 42), 16)
    elif family == "sin":        # sin t = q, q in (0, sin 1)
        q = Fraction(rng.randint(2, 26), 32)
    elif family == "cos":        # cos t = q, q in (cos 1, 1)
        q = Fraction(rng.randint(36, 62), 64)
    elif family == "ln1p":       # ln(1+t) = q on [0, 1/2], q in (0, ln 3/2)
        q = Fraction(rng.randint(2, 25), 64)
    if family != "poly":
        return {"family": family, "coeffs": None, "offset": str(q),
                "interval": "0,1/2" if family == "ln1p" else "0,1",
                "root": None}
    # t^2 + b t - c with an irrational root in (0, 1)
    while True:
        b = Fraction(rng.randint(0, 8), 8)
        c = Fraction(rng.randint(1, 63), 64)
        if c < 1 + b and not _is_square(b * b + 4 * c):
            break
    coeffs = [-c, b, Fraction(1)]
    return {"family": "poly", "coeffs": [str(x) for x in coeffs],
            "offset": None, "interval": "0,1", "root": None}


def analytic_instances(seed, size):
    rng = _rng("analytic-roots", seed, size)
    out = []
    for label, p, dyadic, count in ANALYTIC_MIX[size]:
        for i in range(count):
            inst = (_dyadic_root_instance(rng, p, linear=i % 2 == 0)
                    if dyadic else _other_root_instance(
                        rng, OTHER_FAMILIES[i % len(OTHER_FAMILIES)]))
            if inst["family"] == "poly":
                inst["spec"] = "poly:" + ",".join(inst["coeffs"])
            else:
                inst["spec"] = inst["family"]
            inst.update(group=label, p=p, dyadic=dyadic)
            out.append(inst)
    rng.shuffle(out)
    return out


def _table_text(rng, grid, monotone):
    """A step table in the CLI's 'word p/q' format on the 2^-grid grid."""
    den = 1 << (grid + 2)
    vals = sorted(rng.randint(0, den) for _ in range(1 << grid))
    if not monotone:
        i = rng.randrange(1, len(vals))
        vals[i - 1], vals[i] = vals[i], max(0, vals[i - 1] - 1)
    lines = [f"{format(k, f'0{grid}b')} {v}/{den}" for k, v in enumerate(vals)]
    lines.append(f"1 {den}/{den}")
    return "\n".join(lines) + "\n"


def _light_commands(rng, files, depth):
    """One of each quick command: pullback (plain and --trace), patch on
    each table, analytic eval and root, tightness, measure and trace."""
    light = []

    def pullback(trace):
        r = rng.choice((16, 24)) if trace else rng.choice((32, 64))
        argv = ["pullback", "--martingale",
                f"conservative:{_strategy(rng)[1]}",
                "--function", f"fz_norm:{rng.choice(IMAGE_SETS)}",
                "--word", _word(rng, 2, 3 if trace else 5),
                "--precision", str(r)]
        return argv + ["--trace"] if trace else argv

    light += [pullback(False), pullback(False), pullback(True)]
    light += [["patch", "--function", f"table:{path}", "--word",
               _word(rng, 3, 6), "--precision", str(rng.choice((8, 12, 16)))]
              for path in files]
    light += [["analytic", "eval", "--spec", spec, "--word", _word(rng, 2, 5),
               "--precision", str(rng.choice((32, 64)))]
              for spec in rng.sample(("exp", "sin", "cos"), 2)]
    root = _other_root_instance(rng, rng.choice(("exp", "sin", "cos",
                                                 "poly")))
    argv = ["analytic", "root", "--spec",
            "poly:" + ",".join(root["coeffs"]) if root["coeffs"]
            else root["family"], "--interval", root["interval"],
            "--precision", str(rng.choice((16, 24)))]
    light.append(argv + (["--offset", root["offset"]] if root["offset"]
                         else []))
    light.append(["tightness", "bounds", "--zset",
                  rng.choice(("pow2", "tower", "1,3", "0,2,4")),
                  "--step-exp", str(rng.randint(4, 6)),
                  "--slope-exp", str(rng.randint(3, 5))])
    measure = rng.choice(("uniform", f"product:{rng.randint(1, 7)}/8",
                          f"from_function:fz_norm:{rng.choice(IMAGE_SETS)}"))
    light.append(["measure", "roundtrip", "--measure", measure, "--depth",
                  str(min(depth, rng.randint(6, 8)))])
    light.append(["measure", "cumulative", "--measure",
                  f"product:{rng.randint(1, 7)}/8", "--word",
                  _word(rng, 2, 8)])
    light += [["trace", "--martingale", _strategy(rng)[1], "--word",
               _word(rng, 4, 10), "--precision", "8"] for _ in range(2)]
    return light


def cli_instances(seed, size, workdir):
    """The batch of CLI invocations plus the input files they read.

    Returns (commands, files) where files maps a path relative to the
    checkout root to its text.
    """
    rng = _rng("cli-mix", seed, size)
    depth = CLI_DEPTH[size]
    files = {}
    for i, monotone in enumerate((True, False)):
        files[f"{workdir}/table{i}.tbl"] = _table_text(rng, 3, monotone)
    cmds = []

    def add(group, argv, expect=0):
        cmds.append({"group": group, "command": argv[0], "argv": argv,
                     "expect": expect})

    # the six verify suites are the slowest commands; the quick ones,
    # about one interpreter start each, set the median and the tail
    for suite in ("martingale", "pullback", "patch", "analytic",
                  "tightness", "measure"):
        add("verify", ["verify", "--suite", suite, "--depth", str(depth)])
    light = _light_commands(rng, files, depth)
    # two commands run twice, for the byte-identical check
    light += rng.sample(light, 2)
    for argv in light:
        add("quick", argv)
    malformed = [
        ["pullback", "--martingale", f"nosuch:{rng.randint(0, 9)}",
         "--function", "identity", "--word", "0", "--precision", "4"],
        ["analytic", "root", "--spec", "poly:-1/2,1", "--interval",
         "1,0", "--precision", str(rng.randint(4, 12))],
        ["patch", "--function", f"table:{workdir}/missing.tbl",
         "--word", "01", "--precision", "4"],
        ["measure", "cumulative", "--measure", "product:x/3", "--word", "1"],
        ["frobnicate", "--depth", "3"],
    ]
    for argv in rng.sample(malformed, 3):
        add("malformed", argv, expect=2)
    rng.shuffle(cmds)
    return cmds, files


def instances(workload, seed, size, workdir=CLI_WORKDIR):
    """The seeded batch for a workload (plain data, JSON-serialisable)."""
    if workload == "pullback-exact":
        return pullback_instances(seed, size, blackbox=False)
    if workload == "pullback-blackbox":
        return pullback_instances(seed, size, blackbox=True)
    if workload == "analytic-roots":
        return analytic_instances(seed, size)
    if workload == "cli-mix":
        return cli_instances(seed, size, workdir)[0]
    raise ValueError(f"unknown workload {workload!r}")


def mix(workload, insts):
    """The shape of a batch: counts per group and the shares that matter."""
    groups = {}
    for inst in insts:
        groups[inst["group"]] = groups.get(inst["group"], 0) + 1
    out = {"ops": len(insts), "groups": dict(sorted(groups.items()))}
    if workload == "pullback-blackbox":
        out["savings_share"] = sum(i["savings"] for i in insts) / len(insts)
    if workload == "analytic-roots":
        out["dyadic_share"] = sum(i["dyadic"] for i in insts) / len(insts)
    return out


# -- ops ---------------------------------------------------------------------

def _jitter(salt, w, r):
    """Deterministic +-2^-r, the sign hashed from (salt, word, precision)."""
    h = (salt * 0x9E3779B97F4A7C15 + w.k * 0xBF58476D1CE4E5B9
         + len(w) * 0x94D049BB133111EB + r) & ((1 << 64) - 1)
    h ^= h >> 31
    return Fraction(1 if (h * 0xD6E8FEB86659FD93 >> 40) & 1 else -1, 1 << r)


def blackbox_pair(mart, fn, salt):
    """Contract-only approximators: exact value +- 2^-r, nothing else."""
    from dymart.dyadic import Word
    from dymart.funcs import WeakFn
    from dymart.martingale import ApproxMartingale
    top = Word(0, 0)
    d_hat = ApproxMartingale(
        f"blackbox:{mart.name}",
        lambda w, r: mart.at(w) + _jitter(salt, w, r),
        conservative=mart.conservative)
    f_hat = WeakFn(
        f"blackbox:{fn.name}",
        lambda w, r: Fraction(fn.at(w.value())) + _jitter(salt + 1, w, r),
        query_one_fn=lambda r: Fraction(fn.at_one()) + _jitter(salt + 2,
                                                               top, r))
    return d_hat, f_hat


class PullbackOp:
    """One certified pullback value: pullback_approx then certify_bracket."""

    def __init__(self, blackbox):
        from dymart import config, dyadic, funcs, martingale, pullback
        self.blackbox = blackbox
        self.config, self.dyadic, self.funcs = config, dyadic, funcs
        self.martingale, self.pullback = martingale, pullback

    def __call__(self, inst):
        mart = self.config.parse_martingale(inst["martingale"])
        fn = self.config.parse_function(inst["function"])
        x = self.dyadic.Word.parse(inst["word"])
        r = inst["r"]
        if self.blackbox:
            d_hat, f_hat = blackbox_pair(mart, fn, inst["salt"])
        else:
            d_hat, f_hat = self.martingale.as_approx(mart), \
                self.funcs.as_weak(fn)
        value = self.pullback.pullback_approx(d_hat, f_hat, x, r)
        _, lo, hi = self.pullback.certify_bracket(mart, fn, x, r, value)
        return value, lo, hi

    @staticmethod
    def check(inst, result):
        value, lo, hi = result
        if not lo <= value <= hi:
            return f"value {value} outside the exact bracket [{lo}, {hi}]"
        return None


class RootOp:
    """One certified root: find_root on a seeded spec."""

    def __init__(self):
        from dymart import analytic, config, dyadic
        self.analytic, self.config, self.dyadic = analytic, config, dyadic

    def __call__(self, inst):
        spec = self.config.parse_series(inst["spec"])
        if inst["offset"]:
            spec = spec.shifted(self.dyadic.parse_rational(inst["offset"]))
        lo_text, hi_text = inst["interval"].split(",")
        interval = (self.dyadic.Dyadic.parse(lo_text),
                    self.dyadic.Dyadic.parse(hi_text))
        return self.analytic.find_root(spec, interval, inst["p"])

    @staticmethod
    def check(inst, root):
        if not enclose.root_enclosed(inst, root):
            return (f"root {root} does not enclose a sign change at "
                    f"2^-{inst['p']}")
        return None


_NUMBER = re.compile(r"[-+]?\d[\d.eE+/-]*")
_EXACT = re.compile(r"-?\d+(/\d+)?\Z")


def check_cli_output(inst, code, out, err):
    """Expected exit code, exact p/q numbers, no traceback."""
    if code != inst["expect"]:
        return f"exit {code}, expected {inst['expect']}: {err[-300:]!r}"
    if "Traceback" in err:
        return "traceback on stderr"
    if inst["expect"] == 2:
        return None if err.startswith(("error:", "usage:")) else \
            f"malformed input without a message: {err[:200]!r}"
    if not out:
        return "empty stdout"
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        for token in _NUMBER.findall(line):
            if not _EXACT.match(token):
                return f"number {token!r} is not an exact p/q"
    return None


def child_env(root):
    """The environment for a child interpreter: the checkout's src/ first
    on PYTHONPATH, UTF-8 stdio."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH")
                                       else []))
    return env


class CliOp:
    """One CLI invocation, as a child process or in-process.

    UTF-8 stdio keeps the child's output bytes independent of the
    caller's locale.
    """

    def __init__(self, root, in_process=False):
        self.root = root
        self.in_process = in_process
        self.env = child_env(root)
        if in_process:
            from dymart import cli
            self.cli = cli

    def __call__(self, inst):
        if self.in_process:
            return self._in_process(inst["argv"])
        proc = subprocess.run(
            [sys.executable, "-m", "dymart.cli", *inst["argv"]],
            cwd=self.root, env=self.env, capture_output=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr.decode(
            "utf-8", "replace")

    def _in_process(self, argv):
        import contextlib
        import io
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode("utf-8"), err.getvalue()

    @staticmethod
    def check(inst, result):
        code, out, err = result
        return check_cli_output(inst, code, out.decode("utf-8", "replace"),
                                err)


def make_op(workload, root, in_process=False):
    if workload == "pullback-exact":
        return PullbackOp(blackbox=False)
    if workload == "pullback-blackbox":
        return PullbackOp(blackbox=True)
    if workload == "analytic-roots":
        return RootOp()
    if workload == "cli-mix":
        return CliOp(root, in_process)
    raise ValueError(f"unknown workload {workload!r}")
