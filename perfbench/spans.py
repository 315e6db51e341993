"""Span tracing around the package's layer boundaries, installed from here.

A Tracer replaces selected functions and methods of the loaded ``dymart``
modules with wrappers that record a span (key, start, end, parent) per
call, then restores every patched attribute.  Spans live in flat arrays
and are written out when the run ends.  Spans are numbered in start order
on one thread, so the descendants of span i are exactly the ids in
(i, stop[i]).

A target that no longer exists is recorded as absent; nothing fails.
"""

import dataclasses
import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

# (span key, module, attribute path).  Module-level functions are patched
# in every loaded dymart module that binds the same object, so calls made
# through cli/verify imports are seen too.  The _shiftcore_py entries are
# the pure kernels behind the kernels dispatchers; subtree_sum calls them
# directly.
TARGETS = (
    ("pullback.value", "dymart.pullback", "pullback_approx"),
    ("pullback.bracket", "dymart.pullback", "certify_bracket"),
    ("dyadic.cover", "dymart.pullback", "minimal_cover"),
    ("kernels.cell_value", "dymart.kernels", "cell_value"),
    ("kernels.cell_value", "dymart._shiftcore_py", "cell_value"),
    ("kernels.subtree_sum", "dymart.kernels", "subtree_sum"),
    ("kernels.range_sum_max", "dymart.kernels", "range_sum_max"),
    ("kernels.range_sum_max", "dymart._shiftcore_py", "range_sum_max"),
    ("martingale.at", "dymart.martingale", "ExactMartingale.at"),
    ("martingale.d_query", "dymart.martingale", "ApproxMartingale.query"),
    ("funcs.f_query", "dymart.funcs", "WeakFn.query"),
    ("funcs.f_query", "dymart.funcs", "WeakFn.query_one"),
    ("analytic.sign", "dymart.analytic", "certified_sign"),
    ("analytic.eval", "dymart.analytic", "eval_point"),
    ("cli.main", "dymart.cli", "main"),
)
SUITES_TARGET = ("dymart.verify", "SUITES")

# keys whose nested calls are separate calls (at() of a savings wrapper
# calls at() of the strategy it wraps); for every other key a nested span
# of the same key is the dispatcher handing the call to the pure kernel
NESTED_CALLS_COUNT = {"martingale.at"}


def _import(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _fraction(point):
    """A grid point, Dyadic or rational as an exact Fraction."""
    value = getattr(point, "value", point)
    return Fraction(value.numerator, value.denominator)


def ceil_lg(q):
    """Smallest integer t with 2^t >= q > 0."""
    t = q.numerator.bit_length() - q.denominator.bit_length() - 1
    while Fraction(2) ** t < q:
        t += 1
    return t


def series_terms(spec, s):
    """Terms the schedule prescribes at precision s: l (s + k + 1) with
    k = ceil lg(C (r+eps)/eps) and l the least l with ((r+eps)/r)^l >= 2."""
    c, r, eps = (Fraction(spec.term_bound), Fraction(spec.radius),
                 Fraction(spec.margin))
    k = ceil_lg(c * (r + eps) / eps)
    ratio = (r + eps) / r
    ell, acc = 1, ratio
    while acc < 2:
        acc *= ratio
        ell += 1
    return ell * (s + k + 1)


class Tracer:
    def __init__(self):
        self.keys = []                 # key per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stop = array("q")         # one past the last descendant
        self.arg = array("q")          # precision, n or size per span
        self.weight = array("d")       # factor to reference host speed
        self.attrs = {}                # span id -> dict, for rare spans
        self.stack = []
        self.max_bits = 0
        self.patched = []              # (holder, attribute, original)
        self.wrappers = set()
        self.absent = []
        self.suites_saved = None
        self.suite_keys = set()        # verify.<suite>.<check> wrapped
        self.clock = time.perf_counter

    # -- recording ---------------------------------------------------------

    def open(self, key):
        sid = len(self.keys)
        self.keys.append(key)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stop.append(0)
        self.arg.append(0)
        self.weight.append(1.0)
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = self.clock()
        self.stop[sid] = len(self.keys)
        self.stack.pop()

    def mark(self):
        return len(self.keys)

    def scale(self, first, last, factor):
        """Time spans first..last-1 at reference host speed."""
        self.weight[first:last] = array("d", [factor]) * (last - first)

    # -- call data ---------------------------------------------------------

    def _note_pullback_value(self, sid, args, kwargs, result):
        x, r = _arg(args, kwargs, 2, "x"), _arg(args, kwargs, 3, "r")
        self.attrs[sid] = {"n": len(x), "r": r}

    def _note_pullback_bracket(self, sid, args, kwargs, result):
        self.attrs[sid] = {"r": _arg(args, kwargs, 3, "r")}

    def _note_dyadic_cover(self, sid, args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        total = sum((Fraction(1, 1 << len(w)) for w in result), Fraction(0))
        self.arg[sid] = len(result)
        self.attrs[sid] = {"tiles": total == _fraction(b) - _fraction(a)}

    def _note_kernels_cell_value(self, sid, args, kwargs, result):
        self.arg[sid] = _arg(args, kwargs, 2, "n")
        self.max_bits = max(self.max_bits, result[0].bit_length())

    def _note_kernels_subtree_sum(self, sid, args, kwargs, result):
        self.max_bits = max(self.max_bits, result[0].bit_length())

    def _note_kernels_range_sum_max(self, sid, args, kwargs, result):
        a, b = _arg(args, kwargs, 3, "a"), _arg(args, kwargs, 4, "b")
        self.arg[sid] = max(0, b - a)

    def _note_martingale_d_query(self, sid, args, kwargs, result):
        self.arg[sid] = _arg(args, kwargs, 2, "r")

    def _note_funcs_f_query(self, sid, args, kwargs, result):
        # query(self, w, r) or query_one(self, r)
        self.arg[sid] = kwargs["r"] if "r" in kwargs else args[-1]

    def _note_cli_main(self, sid, args, kwargs, result):
        argv = _arg(args, kwargs, 0, "argv") or []
        self.attrs[sid] = {"command": argv[0] if argv else ""}

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, key, fn):
        if key == "analytic.eval":
            return self._eval_wrapper(fn)
        tracer = self
        note = getattr(self, "_note_" + key.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if note is not None:
                note(sid, args, kwargs, result)
            return result
        self.wrappers.add(wrapper)
        return wrapper

    def _eval_wrapper(self, fn):
        """eval_point on a copy of the spec whose coefficient approximator
        counts the term queries (those at positive precision)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, t, s, *args, **kwargs):
            queried = set()
            expected = None
            try:
                inner = spec.coeff_approx

                def counting(n, r):
                    if r > 0:
                        queried.add(n)
                    return inner(n, r)
                counted = dataclasses.replace(spec, coeff_approx=counting)
                expected = series_terms(spec, s)
            except (AttributeError, TypeError):
                counted = spec
            sid = tracer.open("analytic.eval")
            try:
                result = fn(counted, t, s, *args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.arg[sid] = s
            tracer.attrs[sid] = {"terms": len(queried), "expected": expected}
            return result
        self.wrappers.add(wrapper)
        return wrapper

    # -- install / restore -------------------------------------------------

    def _patch(self, holder, attr, wrapped):
        self.patched.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapped)

    def install(self):
        self.absent = []
        for key, module_name, path in TARGETS:
            module = _import(module_name)
            owner_name, _, attr = path.rpartition(".")
            holder = getattr(module, owner_name, None) if owner_name \
                else module
            original = vars(holder).get(attr) if holder is not None \
                else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if original in self.wrappers:
                continue
            wrapped = self._wrapper(key, original)
            if owner_name:
                self._patch(holder, attr, wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "dymart" or name.startswith("dymart."):
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, wrapped)
        suites = getattr(_import(SUITES_TARGET[0]), SUITES_TARGET[1], None)
        if not isinstance(suites, dict):
            self.absent.append(".".join(SUITES_TARGET))
            return
        self.suites_saved = {name: list(checks)
                             for name, checks in suites.items()}
        for suite, checks in suites.items():
            checks[:] = [(check, self._wrapper(f"verify.{suite}.{check}",
                                               runner))
                         for check, runner in checks]
            self.suite_keys |= {f"verify.{suite}.{check}"
                                for check, _ in checks}

    def restore(self):
        for holder, attr, original in reversed(self.patched):
            setattr(holder, attr, original)
        self.patched = []
        if self.suites_saved is not None:
            suites = getattr(sys.modules[SUITES_TARGET[0]], SUITES_TARGET[1])
            for name, checks in self.suites_saved.items():
                suites[name][:] = checks
            self.suites_saved = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- budgets -----------------------------------------------------------

    def children(self, sid):
        return [c for c in range(sid + 1, self.stop[sid])
                if self.parent[c] == sid]

    def budget_violations(self, first, last):
        """The paper's cost claims, checked on spans first..last-1:

        per pullback value, exactly 2 f-queries at m+2, one d-query at m per
        cover word, |cover| <= 2m+1 and the cover tiles [a, b] exactly; per
        series evaluation, the term count its schedule prescribes.
        """
        out = []
        for sid in range(first, last):
            key = self.keys[sid]
            if key == "pullback.value" and sid in self.attrs:
                out.extend(self._pullback_budget(sid))
            elif key == "analytic.eval" and sid in self.attrs:
                a = self.attrs[sid]
                if a["expected"] is not None and a["terms"] != a["expected"]:
                    out.append(f"eval_point at s={self.arg[sid]} made "
                               f"{a['terms']} term queries, the schedule "
                               f"says {a['expected']}")
        return out

    def _pullback_budget(self, sid):
        a = self.attrs[sid]
        m = 4 * (a["n"] + a["r"] + 2)
        f_prec, d_prec, covers = [], [], []
        for c in self.children(sid):
            key = self.keys[c]
            if key == "funcs.f_query":
                f_prec.append(self.arg[c])
            elif key == "martingale.d_query":
                d_prec.append(self.arg[c])
            elif key == "dyadic.cover":
                covers.append(c)
        where = f"pullback |x|={a['n']} r={a['r']} m={m}"
        out = []
        if len(f_prec) != 2 or any(p != m + 2 for p in f_prec):
            out.append(f"{where}: f-queries at {f_prec}, want 2 at {m + 2}")
        if any(p != m for p in d_prec):
            out.append(f"{where}: d-queries not all at precision {m}")
        if len(d_prec) > 2 * m + 1:
            out.append(f"{where}: {len(d_prec)} d-queries > 2m+1")
        for c in covers:
            if self.arg[c] != len(d_prec):
                out.append(f"{where}: {len(d_prec)} d-queries for a "
                           f"{self.arg[c]}-word cover")
            if not self.attrs[c]["tiles"]:
                out.append(f"{where}: cover does not sum to b - a")
        return out

    # -- per-layer totals --------------------------------------------------

    def totals(self):
        """Per-layer totals over every recorded span.

        Time is summed over outermost spans of a key, so a dispatcher and
        the kernel it calls count once.  Self time is a span's duration
        minus the durations of its direct children.  Durations are scaled
        by the weight set through scale().
        """
        t = defaultdict(float)
        keys, parent, arg = self.keys, self.parent, self.arg
        durs = array("d", ((e - s) * w for s, e, w in
                           zip(self.start, self.end, self.weight)))
        child_time = defaultdict(float)
        for sid, p in enumerate(parent):
            if p >= 0:
                child_time[p] += durs[sid]
        for sid, key in enumerate(keys):
            p = parent[sid]
            nested = p >= 0 and keys[p] == key
            dur = durs[sid]
            if nested and key not in NESTED_CALLS_COUNT:
                continue
            t[key + ".calls"] += 1
            t[key + ".arg"] += arg[sid]
            if not nested:
                t[key + ".s"] += dur
            if key == "martingale.at" and self.stop[sid] == sid + 1:
                t["martingale.at.leaf"] += 1
            if key in ("pullback.value", "pullback.bracket"):
                r = self.attrs.get(sid, {}).get("r")
                t[f"{key}.s.r{r}"] += dur
                if key == "pullback.value":
                    t[f"{key}.self.r{r}"] += dur - child_time[sid]
            elif key == "analytic.eval":
                t["analytic.max_s"] = max(t["analytic.max_s"], arg[sid])
                t["analytic.terms"] += self.attrs.get(sid, {}).get("terms", 0)
            elif key == "cli.main":
                t[f"cli.{self.attrs.get(sid, {}).get('command')}.s"] += dur
        t["kernels.max_bits"] = self.max_bits
        return t

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Spans as gzipped CSV, times in microseconds from the first span;
        the first line is JSON naming the columns and the absent targets."""
        t0 = self.start[0] if self.keys else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["key", "start_us", "end_us",
                                             "parent", "arg"],
                                 "absent": self.absent}) + "\n")
            for sid, key in enumerate(self.keys):
                fh.write(f"{key},{round((self.start[sid] - t0) * 1e6)},"
                         f"{round((self.end[sid] - t0) * 1e6)},"
                         f"{self.parent[sid]},{self.arg[sid]}\n")
