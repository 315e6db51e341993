#!/usr/bin/env python3
"""Layered benchmark for dymart.

One run measures one seeded workload for about --seconds seconds and prints,
as its last stdout line, one JSON object with "correct", "attempted",
"failed" and "metrics".  With --trace 0 the metrics are the end-to-end ones
(wall_s, op_p50_ms, op_tail_ms, setup_s, peak_rss_mb); with --trace 1 the
same workload runs again under span wrappers (spans.py) and the metrics are
per-layer totals per batch.

    python3 perfbench/run.py --workload pullback-exact --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out BENCH.json
    python3 perfbench/run.py --compare OLD.json NEW.json

A run works on a fixed batch of ops drawn from the seed (workloads.py) and
repeats it while the time lasts.  Every op is checked on every repeat.
wall_s is the median over repeats of the batch time (ops and checks),
each op's latency is its median over repeats, and op_p50_ms / op_tail_ms
are taken over those per-op latencies; the tail is the highest percentile
that still has ten ops above it (the record names the percentile and the
sample counts).  setup_s is the median over seven fresh interpreters, run
between the batches, of the time from start to the first timed op.
peak_rss_mb is this process's peak, or the largest child's for cli-mix.
Load comes from this one process, pinned to one CPU with its children;
cli-mix runs one child at a time.

Times are reported at reference host speed.  The host this was built on
runs the same code 1.5-2x slower for stretches of seconds to minutes, for
reasons outside the program.  So every timed interval sits between two
runs of a fixed calibration loop (calibration_s) and is scaled by
REF_CAL_S over their mean.  The values as measured are kept in each
result file under "raw_metrics" and printed next to the scaled ones.

The program is imported from the checkout's src/ directory; a checkout
without it is an error (exit 2) and prints no result.  Results, spans and
CLI input files go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
SETUP_PROBE_S = 0.2        # rough cost of one probe, reserved in the budget
TAIL_ABOVE = 10

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PULLBACK_RS = (64, 128, 256, 512)
CLI_COMMANDS = ("verify", "pullback", "patch", "analytic", "tightness",
                "measure", "trace")
VERIFY_CHECKS = {
    "martingale": ("identity", "conservative_bounds", "domination"),
    "pullback": ("greedy_cover", "shift_chain", "methods_agree",
                 "identity_pullback", "bracket"),
    "patch": ("monotone", "approx", "slope_floor"),
    "analytic": ("constants", "eval", "derivative", "root"),
    "tightness": ("step_bound", "slope_bound", "capital"),
    "measure": ("axioms", "roundtrip", "function_roundtrip"),
}


def per_layer_spec():
    """(metric, unit, span key it is read from or None) in output order.

    Every metric is a total per batch unless its unit says otherwise.
    """
    per = "count/batch"
    sec = "s/batch"
    out = [
        ("kernels.cell_value_calls", per, "kernels.cell_value"),
        ("kernels.factor_steps", per, "kernels.cell_value"),
        ("kernels.cell_value_s", sec, "kernels.cell_value"),
        ("kernels.subtree_sum_s", sec, "kernels.subtree_sum"),
        ("kernels.max_bits", "bits", "kernels.cell_value"),
        ("kernels.scan_cells", per, "kernels.range_sum_max"),
        ("kernels.range_sum_max_s", sec, "kernels.range_sum_max"),
    ]
    for kind in ("value_s", "bracket_s", "accumulate_self_s"):
        key = "pullback.bracket" if kind == "bracket_s" else "pullback.value"
        out += [(f"pullback.{kind}.r{r}", sec, key) for r in PULLBACK_RS]
    out += [
        ("dyadic.cover_s", sec, "dyadic.cover"),
        ("dyadic.cover_words", per, "dyadic.cover"),
        ("martingale.d_queries", per, "martingale.d_query"),
        ("martingale.d_query_s", sec, "martingale.d_query"),
        ("martingale.at_calls", per, "martingale.at"),
        ("martingale.memo_hit_share", "share", "martingale.at"),
        ("funcs.f_queries", per, "funcs.f_query"),
        ("funcs.f_query_s", sec, "funcs.f_query"),
        ("analytic.sign_calls", per, "analytic.sign"),
        ("analytic.eval_calls", per, "analytic.eval"),
        ("analytic.escalations", per, "analytic.eval"),
        ("analytic.max_s", "bits", "analytic.eval"),
        ("analytic.terms", per, "analytic.eval"),
        ("analytic.eval_s", sec, "analytic.eval"),
        ("analytic.root_s.dyadic", sec, None),
        ("analytic.root_s.nondyadic", sec, None),
        ("cli.startup_s", "s", None),
    ]
    out += [(f"cli.{c}_s", sec, "cli.main") for c in CLI_COMMANDS]
    out += [(f"verify.{s}.{c}_s", sec, f"verify.{s}.{c}")
            for s, checks in VERIFY_CHECKS.items() for c in checks]
    out.append(("trace.overhead", "ratio", None))
    return out


# -- small statistics ---------------------------------------------------------

def p50(values):
    """The median by nearest rank: an observed value, never an average."""
    return sorted(values)[(len(values) - 1) // 2]


def tail(values):
    """(value, percentile, ops above) at the highest percentile that still
    has TAIL_ABOVE values above it; the maximum for tiny batches."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, \
        TAIL_ABOVE


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss
    return rss / (1 << 20) if sys.platform == "darwin" else rss / (1 << 10)


# -- environment --------------------------------------------------------------

def import_program():
    """Import dymart from the checkout; exit 2 when it is not there."""
    if not (SRC / "dymart" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'dymart'}; run from a full "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dymart
    if Path(dymart.__file__).resolve().parent != (SRC / "dymart").resolve():
        print(f"error: imported dymart from {dymart.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        sys.exit(2)


def stamp():
    from dymart import kernels
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "dymart").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": getattr(kernels, "BACKEND", "absent"),
        "dymart_pure": os.environ.get("DYMART_PURE", ""),
        "platform": platform.platform(),
    }


# -- set-up -------------------------------------------------------------------

def setup(workload, seed, size, in_process):
    """Imports, instance generation and input files: everything before the
    first timed op."""
    op = workloads.make_op(workload, str(ROOT), in_process)
    if workload == "cli-mix":
        insts, files = workloads.cli_instances(seed, size,
                                              workloads.CLI_WORKDIR)
        for rel, text in files.items():
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    else:
        insts = workloads.instances(workload, seed, size)
    return op, insts


def scaled(fn):
    """Run fn() between two calibrations; returns (result, raw seconds,
    seconds at reference speed)."""
    before = calibration_s()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, raw * 2 * REF_CAL_S / (before + calibration_s())


def probe_setup(args):
    """Start-to-first-op time of one fresh interpreter (imports, instance
    generation, input files), raw and at reference speed."""
    def probe():
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--trace", str(args.trace)],
            cwd=ROOT, env=workloads.child_env(str(ROOT)),
            capture_output=True, text=True, timeout=150)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
            raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
        return float(lines[1]) - t0
    ready, raw, at_ref = scaled(probe)
    return ready, ready * at_ref / raw


def probe_startup():
    """A fresh interpreter importing dymart.cli: median over several, at
    reference speed."""
    return statistics.median(
        scaled(lambda: subprocess.run(
            [sys.executable, "-c", "import dymart.cli"], cwd=ROOT,
            env=workloads.child_env(str(ROOT)), check=True,
            timeout=150))[2]
        for _ in range(SETUP_PROBES))


# -- host speed ---------------------------------------------------------------

_CAL_BASE = 3 ** 300
_CAL_MASK = (1 << 600) - 1
# the calibration loop's time on the 2-vCPU host this benchmark was tuned
# on, in a quiet moment; a scale only, so reference-speed times read as
# seconds on that host
REF_CAL_S = 0.00025


def calibration_s():
    """Fastest of three runs of a fixed loop of big-integer and interpreter
    work (about 0.25 ms each); its time tracks the host's momentary speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc = (acc + (_CAL_BASE * (i | 1) >> 5)) & _CAL_MASK
        best = min(best, time.perf_counter() - t0)
    return best


# -- the timed loop -----------------------------------------------------------

class Batches:
    """Runs the batch repeatedly; records latencies, failures and output
    repeats (cli-mix stdout must be byte-identical across repeats).

    Each op is timed between two calibrations.  Its time at reference speed
    is its measured time scaled by REF_CAL_S over the mean of the two:
    on a shared host the speed swings by 1.5x and more within seconds,
    and the scaling takes that swing out of the comparison between runs.
    """

    def __init__(self, workload, op, insts):
        self.workload, self.op, self.insts = workload, op, insts
        self.attempted = 0
        self.failures = []
        self.outputs = {}

    def run_one(self, tracer=None):
        """One pass over the batch.  Returns per op (raw latency, latency
        at reference speed) and the batch time raw and at reference speed
        (ops and their checks, without the calibrations)."""
        ops, wall, wall_ref = [], 0.0, 0.0
        cal = calibration_s()
        for i, inst in enumerate(self.insts):
            first = tracer.mark() if tracer else 0
            t0 = time.perf_counter()
            try:
                result = self.op(inst)
                error = None
            except Exception as exc:      # a failed op, reported, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if error is None:
                error = self.op.check(inst, result)
            if error is None and self.workload == "cli-mix":
                error = self._repeat_check(inst, result)
            if error is None and tracer is not None:
                broken = tracer.budget_violations(first, tracer.mark())
                if broken:
                    error = "budget: " + "; ".join(broken[:3])
            total = time.perf_counter() - t0
            cal_next = calibration_s()
            scale = 2 * REF_CAL_S / (cal + cal_next)
            cal = cal_next
            if tracer is not None:
                tracer.scale(first, tracer.mark(), scale)
            ops.append((latency, latency * scale))
            wall += total
            wall_ref += total * scale
            self.attempted += 1
            if error is not None:
                self.failures.append({"op": i, "inst": inst, "error": error})
        return ops, wall, wall_ref

    def _repeat_check(self, inst, result):
        key = tuple(inst["argv"])
        out = result[1]
        if self.outputs.setdefault(key, out) != out:
            return "stdout differs from an earlier run of the same command"
        return None

    def run(self, until, between):
        """Whole batches while the next one is predicted to end by `until`
        (perf_counter time), calling `between` after each; at least one."""
        reps, took = [], []
        while True:
            t0 = time.perf_counter()
            reps.append(self.run_one())
            took.append(time.perf_counter() - t0)
            between()
            if time.perf_counter() + statistics.median(took) > until:
                return reps

    def run_pairs(self, until, tracer):
        """Untraced and traced batches in turn, at least one pair."""
        untraced, traced = [], []
        while True:
            t0 = time.perf_counter()
            untraced.append(self.run_one())
            with tracer:
                traced.append(self.run_one(tracer))
            now = time.perf_counter()
            if now + (now - t0) > until:
                return untraced, traced


# -- metrics ------------------------------------------------------------------

def op_metrics(reps, at_ref):
    """wall_s, op_p50_ms, op_tail_ms and the tail's percentile, from the
    median over repeats of the batch time and of each op's latency."""
    k = 1 if at_ref else 0
    per_op = [statistics.median(op[k] for op in op_reps)
              for op_reps in zip(*(ops for ops, _, _ in reps))]
    tail_value, tail_pct, above = tail(per_op)
    wall = statistics.median(rep[2 if at_ref else 1] for rep in reps)
    return {"wall_s": wall, "op_p50_ms": 1e3 * p50(per_op),
            "op_tail_ms": 1e3 * tail_value}, tail_pct, above, per_op


def end_to_end(workload, reps, probes):
    metrics, tail_pct, above, per_op = op_metrics(reps, at_ref=True)
    raw, _, _, _ = op_metrics(reps, at_ref=False)
    metrics["setup_s"] = statistics.median(ref for _, ref in probes)
    metrics["peak_rss_mb"] = peak_rss_mb(children=workload == "cli-mix")
    raw["setup_s"] = statistics.median(r for r, _ in probes)
    detail = {"ops": len(per_op), "reps": len(reps),
              "samples": len(per_op) * len(reps),
              "tail_percentile": tail_pct, "tail_ops_above": above,
              "raw_metrics": raw,
              "per_op_ms": [round(1e3 * v, 3) for v in per_op]}
    return metrics, detail


def per_layer(tracer, workload, insts, traced, startup_s, overhead):
    """Per-layer metrics per traced batch, plus the names measured by no
    span because their wrapped target is gone."""
    reps = len(traced)
    t = tracer.totals()
    present = {key for key, module, path in spans.TARGETS
               if f"{module}.{path}" not in tracer.absent} | tracer.suite_keys
    absent_keys = ({key for key, _, _ in spans.TARGETS}
                   | {f"verify.{s}.{c}" for s, cs in VERIFY_CHECKS.items()
                      for c in cs}) - present
    root_s = {True: 0.0, False: 0.0}
    for ops, _, _ in traced:
        for inst, (_, at_ref) in zip(insts, ops):
            root_s[bool(inst.get("dyadic"))] += at_ref
    at_calls = t["martingale.at.calls"]
    raw = {
        "kernels.cell_value_calls": t["kernels.cell_value.calls"],
        "kernels.factor_steps": t["kernels.cell_value.arg"],
        "kernels.cell_value_s": t["kernels.cell_value.s"],
        "kernels.subtree_sum_s": t["kernels.subtree_sum.s"],
        "kernels.scan_cells": t["kernels.range_sum_max.arg"],
        "kernels.range_sum_max_s": t["kernels.range_sum_max.s"],
        "dyadic.cover_s": t["dyadic.cover.s"],
        "dyadic.cover_words": t["dyadic.cover.arg"],
        "martingale.d_queries": t["martingale.d_query.calls"],
        "martingale.d_query_s": t["martingale.d_query.s"],
        "martingale.at_calls": at_calls,
        "funcs.f_queries": t["funcs.f_query.calls"],
        "funcs.f_query_s": t["funcs.f_query.s"],
        "analytic.sign_calls": t["analytic.sign.calls"],
        "analytic.eval_calls": t["analytic.eval.calls"],
        "analytic.escalations": t["analytic.eval.calls"]
        - t["analytic.sign.calls"],
        "analytic.terms": t["analytic.terms"],
        "analytic.eval_s": t["analytic.eval.s"],
    }
    if workload == "analytic-roots":
        raw["analytic.root_s.dyadic"] = root_s[True]
        raw["analytic.root_s.nondyadic"] = root_s[False]
    for r in PULLBACK_RS:
        raw[f"pullback.value_s.r{r}"] = t[f"pullback.value.s.r{r}"]
        raw[f"pullback.bracket_s.r{r}"] = t[f"pullback.bracket.s.r{r}"]
        raw[f"pullback.accumulate_self_s.r{r}"] = \
            t[f"pullback.value.self.r{r}"]
    for c in CLI_COMMANDS:
        raw[f"cli.{c}_s"] = t[f"cli.{c}.s"]
    for s, checks in VERIFY_CHECKS.items():
        for c in checks:
            raw[f"verify.{s}.{c}_s"] = t[f"verify.{s}.{c}.s"]
    metrics, absent = {}, []
    for name, unit, key in per_layer_spec():
        if key in absent_keys:
            absent.append(name)
        if unit.endswith("/batch"):
            value = raw.get(name, 0.0) / reps
        elif name == "kernels.max_bits":
            value = t["kernels.max_bits"]
        elif name == "analytic.max_s":
            value = t["analytic.max_s"]
        elif name == "martingale.memo_hit_share":
            value = t["martingale.at.leaf"] / at_calls if at_calls else 0.0
        elif name == "cli.startup_s":
            value = startup_s
        elif name == "trace.overhead":
            value = overhead
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


# -- one workload -------------------------------------------------------------

def run_workload(args):
    start = time.perf_counter()
    until = start + args.seconds
    in_process = bool(args.trace)
    op, insts = setup(args.workload, args.seed, args.size, in_process)
    batches = Batches(args.workload, op, insts)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "stamp": stamp(),
              "mix": workloads.mix(args.workload, insts)}
    if not args.trace:
        # set-up probes go between batches, so machine speed drifting
        # during the run reaches them as it reaches the ops
        probes = [probe_setup(args)]
        reps = batches.run(until - SETUP_PROBE_S * SETUP_PROBES,
                           lambda: probes.append(probe_setup(args)))
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args))
        metrics, detail = end_to_end(args.workload, reps, probes)
        record.update(detail, setup_samples_s=probes,
                      rep_times_s=[wall for _, wall, _ in reps])
        units = dict(END_TO_END)
    else:
        startup_s = probe_startup() if args.workload == "cli-mix" else 0.0
        tracer = spans.Tracer()
        untraced, traced = batches.run_pairs(until, tracer)
        overhead = statistics.median(ref for _, _, ref in traced) / \
            statistics.median(ref for _, _, ref in untraced)
        metrics, absent = per_layer(tracer, batches.workload, insts, traced,
                                    startup_s, overhead)
        units = {name: m["unit"] for name, m in metrics.items()}
        metrics = {name: m["value"] for name, m in metrics.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        tracer.dump(span_file)
        record.update({"reps_untraced": len(untraced),
                       "reps_traced": len(traced), "absent": absent,
                       "absent_targets": tracer.absent,
                       "spans": len(tracer.keys),
                       "span_file": str(span_file.relative_to(ROOT))})
    record.update({"attempted": batches.attempted,
                   "failed": len(batches.failures),
                   "failures": batches.failures[:20],
                   "metrics": {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}})
    return record


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    s = record["stamp"]
    print(f"# {record['workload']} seed={record['seed']} trace="
          f"{record['trace']} sha={s['git_sha'][:12]} src={s['src_sha256']} "
          f"python={s['python']} nproc={s['nproc']} backend={s['backend']} "
          f"DYMART_PURE={s['dymart_pure'] or '-'}")
    print(f"# mix {json.dumps(record['mix'], sort_keys=True)}")
    if record["trace"]:
        print(f"# reps untraced={record['reps_untraced']} traced="
              f"{record['reps_traced']} spans={record['spans']} "
              f"absent={record['absent'] or '-'}")
    else:
        print(f"# ops={record['ops']} reps={record['reps']} samples="
              f"{record['samples']} tail=p{record['tail_percentile']:.1f} "
              f"({record['tail_ops_above']} ops above)")
    raw = record.get("raw_metrics", {})
    if raw:
        print(f"# {'metric':<34} {'at ref speed':>16} {'as measured':>17}")
    for name, m in record["metrics"].items():
        measured = f"{raw[name]:>16.6g}" if name in raw else ""
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']:<5}{measured}")
    print(f"ops failed/attempted: {record['failed']}/{record['attempted']}")
    for failure in record["failures"][:5]:
        print(f"# FAILED op {failure['op']}: {failure['error'][:300]}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


# -- all workloads, and comparison --------------------------------------------

def run_all(args):
    """Every workload, untraced then traced, one child process at a time."""
    combined = {"seed": args.seed, "seconds": args.seconds,
                "size": args.size, "workloads": {}}
    ok = True
    for workload in workloads.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--size", args.size],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} trace={trace} exited "
                                 f"{proc.returncode}")
            path = OUT / result_name(workload, args.seed, trace)
            record = json.loads(path.read_text(encoding="utf-8"))
            ok = ok and record["failed"] == 0
            entry["e2e" if trace == 0 else "layers"] = record
        combined["workloads"][workload] = entry
        combined["stamp"] = entry["e2e"]["stamp"]
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n",
                                  encoding="utf-8")
    print()
    print_table({w: e["e2e"] for w, e in combined["workloads"].items()})
    return 0 if ok else 1


def result_name(workload, seed, trace):
    return f"{workload}-seed{seed}-trace{trace}.json"


def print_table(records):
    names = [n for n, _ in END_TO_END]
    print(f"{'workload':<18} " + " ".join(f"{n:>14}" for n in names)
          + "  failed/attempted")
    for workload, rec in records.items():
        cells = [f"{rec['metrics'][n]['value']:>12.4g}"
                 f"{rec['metrics'][n]['unit']:>2}" for n in names]
        print(f"{workload:<18} " + " ".join(cells)
              + f"  {rec['failed']}/{rec['attempted']}")


def load_results(path):
    """{workload: untraced record} and the stamp, from a combined file or a
    single-run result."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "workloads" in data:
        return data["stamp"], {w: e["e2e"]
                               for w, e in data["workloads"].items()}
    if data.get("trace"):
        raise SystemExit(f"{path}: a traced run has no end-to-end metrics")
    return data["stamp"], {data["workload"]: data}


def compare(old_path, new_path):
    old_stamp, old = load_results(old_path)
    new_stamp, new = load_results(new_path)
    for key in ("backend", "dymart_pure"):
        if old_stamp.get(key) != new_stamp.get(key):
            print(f"error: refusing to compare {key}={old_stamp.get(key)!r} "
                  f"with {key}={new_stamp.get(key)!r}", file=sys.stderr)
            return 2
    for label, st in (("base", old_stamp), ("new", new_stamp)):
        print(f"# {label}: sha={st['git_sha'][:12]} src={st['src_sha256']} "
              f"python={st['python']} nproc={st['nproc']} "
              f"backend={st['backend']}")
    names = [n for n, _ in END_TO_END]
    print(f"{'workload':<18} " + " ".join(
        f"{n + ' base -> new (new/base)':>40}" for n in names))
    for workload in sorted(set(old) & set(new)):
        cells = []
        for n in names:
            a = old[workload]["metrics"][n]["value"]
            b = new[workload]["metrics"][n]["value"]
            unit = new[workload]["metrics"][n]["unit"]
            cells.append(f"{f'{a:.4g} -> {b:.4g} {unit} (x{b / a:.3f})':>40}")
        print(f"{workload:<18} " + " ".join(cells))
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload:<18} only in {'base' if workload in old else 'new'}")
    return 0


# -- entry point --------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small precisions, for the self-tests")
    parser.add_argument("--out", help="also write the result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    import_program()
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so the calibration
        # loop runs where the measured work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_probe:
        setup(args.workload, args.seed, args.size, bool(args.trace))
        print(f"READY {time.monotonic()!r}")
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    OUT.mkdir(parents=True, exist_ok=True)
    text = json.dumps(record, indent=1, default=str) + "\n"
    (OUT / result_name(args.workload, args.seed, args.trace)).write_text(
        text, encoding="utf-8")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
