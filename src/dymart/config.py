"""Textual specs for every named object, plus flat key=value config files.

Spec grammars (all ASCII, deterministic):

- words:       "λ" | "lambda" | "" | string over {0,1}
- rationals:   "p" | "p/q"
- position set "empty" | "1,3,5" | "pow2" | "tower"
- martingale:  uniform | allin_zeros | pattern:<word> | zbettor:<zset>
               | conservative:<inner> | savings:<inner>
- function:    identity | affine:<j>,<a> | fz:<zset> | fz_scaled:<zset>
               | fz_norm:<zset> | table:<path> | cumulative:<measure>
               | @<config file>
- series:      exp | sin | cos | ln1p | geom | poly:<c0,c1,...>
               | @<config file with kind=series or kind=quotient>
- measure:     uniform | product:<p/q> | from_function:<function>

Config files are flat "key = value" text, UTF-8, '#' comments; keys match
the CLI's long option names and provide defaults the command line
overrides.  A flag's value reads true|false|yes|no|1|0, in any case.

Each spec family imports the module that owns it where the family is
resolved, so a command loads only the modules its specs name.
"""

from __future__ import annotations

from .dyadic import Dyadic, Word, parse_rational
from .errors import ParseError


# largest |j| in affine:<j>,<a>: the values 2^j x + a carry about |j| bits,
# and the work of every command that takes a function grows with them
AFFINE_MAX_EXP = 4096


def parse_flag(value, key, path):
    """The flag ``key = value`` of the config file at ``path``."""
    flag = {"true": True, "yes": True, "1": True,
            "false": False, "no": False, "0": False}.get(value.lower())
    if flag is None:
        raise ParseError(f"{path}: {key!r} must be one of "
                         f"true|false|yes|no|1|0, got {value!r}")
    return flag


def load_config(path):
    """Flat key=value file -> dict; reports the offending line on errors."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}",
                                 line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError("empty key", line=lineno)
            if key in out:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            out[key] = value
    return out


def parse_zset(text):
    from .tightness import CensusSet
    return CensusSet.parse(text)


def parse_martingale(text):
    from .martingale import by_name
    return by_name(text)


def parse_function(text):
    """Resolve a function spec to an exact oracle."""
    if text == "identity":
        from .funcs import IdentityFn
        return IdentityFn()
    if text.startswith("affine:"):
        from .funcs import AffineFn
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ParseError(f"affine needs j,a: {text!r}")
        j = int(parts[0])
        if abs(j) > AFFINE_MAX_EXP:
            raise ParseError(f"affine exponent must be between "
                             f"-{AFFINE_MAX_EXP} and {AFFINE_MAX_EXP}, "
                             f"got {j}")
        return AffineFn(j, Dyadic.parse(parts[1]))
    if text.startswith(("fz:", "fz_scaled:", "fz_norm:")):
        from .tightness import NormalizedInsertionFn, ZeroInsertionFn
        family, _, zset = text.partition(":")
        zset = parse_zset(zset)
        if family == "fz_norm":
            return NormalizedInsertionFn(zset)
        return ZeroInsertionFn(zset, scaled=family == "fz_scaled")
    if text.startswith("table:"):
        from .funcs import TableStepFn
        return TableStepFn.load(text.split(":", 1)[1])
    if text.startswith("cumulative:"):
        from .measure import CumulativeFn
        return CumulativeFn(parse_measure(text.split(":", 1)[1]))
    if text.startswith("@"):
        return _function_from_config(load_config(text[1:]), text[1:])
    raise ParseError(f"unknown function spec {text!r}")


def parse_series(text):
    """Resolve an evaluator spec: a PowerSeriesSpec or an exact quotient."""
    if text.startswith("@"):
        return _evaluator_from_file(text[1:])
    from .analytic import builtin_spec
    return builtin_spec(text)


def parse_measure(text):
    from .measure import DifferentialMeasure, ProductMeasure, UniformMeasure
    if text == "uniform":
        return UniformMeasure()
    if text.startswith("product:"):
        return ProductMeasure(parse_rational(text.split(":", 1)[1]))
    if text.startswith("from_function:"):
        return DifferentialMeasure(parse_function(text.split(":", 1)[1]))
    raise ParseError(f"unknown measure spec {text!r}")


def _require(cfg, key, path):
    if key not in cfg:
        raise ParseError(f"{path}: missing {key!r}")
    return cfg[key]


def _rat_list(text):
    return [parse_rational(part) for part in text.split(",")]


def _evaluator_from_file(path):
    cfg = load_config(path)
    kind = _require(cfg, "kind", path)
    if kind == "series":
        from .analytic import builtin_spec, series
        coeffs = _require(cfg, "coeffs", path)
        # a built-in spec (exp, poly:<c0,c1,...>) or an explicit p/q list
        if coeffs[:1].isalpha():
            base = builtin_spec(coeffs)
            exact, polynomial = base.exact_coeff, base.polynomial
        else:
            base, exact, polynomial = None, None, tuple(_rat_list(coeffs))
        center = parse_rational(cfg.get("center", "0"))
        if center != 0:
            raise ParseError(f"{path}: only center=0 series are shipped")
        def inherit(key, fallback, parse=parse_rational):
            if key in cfg:
                return parse(cfg[key])
            if base is not None:
                return fallback(base)
            raise ParseError(f"{path}: explicit coefficients need {key!r}")

        spec = series(
            f"series[{path}]", exact,
            inherit("C", lambda b: b.term_bound),
            inherit("r", lambda b: b.radius),
            inherit("eps", lambda b: b.margin),
            anchor=inherit("anchor", lambda b: b.anchor, Word.parse),
            tail_from=inherit("tail_from", lambda b: b.tail_monotone_from,
                              int),
            polynomial=polynomial,
        )
        spec.validate()
        return spec
    if kind in ("table", "f_Z", "quotient"):
        return _function_from_config(cfg, path)
    raise ParseError(f"{path}: unknown kind {kind!r}")


def _function_from_config(cfg, path):
    """The point function of the parsed config file at ``path``."""
    kind = _require(cfg, "kind", path)
    if kind == "table":
        from .funcs import TableStepFn
        return TableStepFn.load(_require(cfg, "file", path))
    if kind == "f_Z":
        from .tightness import ZeroInsertionFn
        zset = parse_zset(_require(cfg, "zset", path))
        scaled = parse_flag(cfg.get("scaled", "0"), "scaled", path)
        return ZeroInsertionFn(zset, scaled=scaled)
    if kind == "quotient":
        from .funcs import QuotientFn
        return QuotientFn(_rat_list(_require(cfg, "num", path)),
                          _rat_list(_require(cfg, "den", path)),
                          parse_rational(_require(cfg, "den_floor", path)),
                          name=f"quotient[{path}]")
    raise ParseError(f"{path}: kind {kind!r} is not a point-function kind")
