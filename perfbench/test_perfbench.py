"""Self-tests for the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import enclose  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- seeded instances ---------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_instances(workload):
    assert workloads.instances(workload, 7, "full") == \
        workloads.instances(workload, 7, "full")
    if workload == "cli-mix":
        assert workloads.cli_instances(7, "full", "w")[1] == \
            workloads.cli_instances(7, "full", "w")[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_instances_with_the_same_mix(workload):
    a = workloads.instances(workload, 7, "full")
    b = workloads.instances(workload, 8, "full")
    assert a != b
    assert workloads.mix(workload, a) == workloads.mix(workload, b)


def test_mix_shares():
    bb = workloads.instances("pullback-blackbox", 3, "full")
    assert workloads.mix("pullback-blackbox", bb)["savings_share"] == 0.5
    roots = workloads.instances("analytic-roots", 3, "full")
    share = workloads.mix("analytic-roots", roots)["dyadic_share"]
    assert 0 < share < 0.5
    exact = workloads.instances("pullback-exact", 3, "full")
    assert {i["r"] for i in exact} == {128, 256, 512}
    assert {i["r"] for i in bb} == {64, 128, 256}
    assert {i["p"] for i in roots} == {16, 24, 32}
    assert all(2 <= len(i["word"]) <= 8 for i in exact + bb)
    commands = {i["command"] for i in workloads.instances("cli-mix", 3,
                                                          "full")}
    assert set(run.CLI_COMMANDS) <= commands


def test_image_endpoints_match_the_package():
    from dymart.dyadic import Word
    from dymart.tightness import NormalizedInsertionFn
    for zset in workloads.IMAGE_SETS:
        members = {int(z) for z in zset.split(",")}
        fn = NormalizedInsertionFn(zset)
        for word in ("01", "110", "0010111"):
            mine = workloads._fz(word, members) / \
                workloads._fz_at_one(members)
            assert mine == fn.at(Word.parse(word).value())


# -- tracing ------------------------------------------------------------------

def _bindings():
    import dymart.cli  # noqa: F401  load every module the tracer patches
    import dymart.verify
    out = {}
    for name, mod in sys.modules.items():
        if name == "dymart" or name.startswith("dymart."):
            out.update({(name, k): v for k, v in vars(mod).items()
                        if callable(v)})
            for k, v in vars(mod).items():
                if isinstance(v, type) and v.__module__ == name:
                    out.update({(name, k, a): f for a, f in vars(v).items()})
    suites = {s: list(c) for s, c in dymart.verify.SUITES.items()}
    return out, suites


def test_wrappers_restore_everything_they_patch():
    from dymart import martingale, pullback
    before, suites_before = _bindings()
    original = pullback.pullback_approx
    tracer = spans.Tracer()
    with tracer:
        assert pullback.pullback_approx is not original
        assert vars(martingale.ExactMartingale)["at"] in tracer.wrappers
        assert tracer.patched and not tracer.absent
    after, suites_after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert suites_after == suites_before
    assert all(a is b for s in suites_before
               for a, b in zip(suites_after[s], suites_before[s]))


def test_missing_target_is_absent_not_fatal(monkeypatch):
    from dymart import pullback
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("pullback.gone", "dymart.pullback", "no_such_function"),
        ("gone.method", "dymart.martingale", "ExactMartingale.no_such"),
        ("gone.module", "dymart.no_such_module", "f")))
    tracer = spans.Tracer()
    with tracer:
        assert pullback.pullback_approx in tracer.wrappers
    assert tracer.absent == ["dymart.pullback.no_such_function",
                             "dymart.martingale.ExactMartingale.no_such",
                             "dymart.no_such_module.f"]
    assert pullback.pullback_approx not in tracer.wrappers


def test_budget_check_counts_queries_per_pullback_value():
    from dymart import config, dyadic, funcs, martingale, pullback
    mart = config.parse_martingale("conservative:pattern:011")
    fn = config.parse_function("fz_norm:1,2")
    x, r = dyadic.Word.parse("0110"), 16
    m = pullback.grid_exponent(len(x), r)
    tracer = spans.Tracer()
    with tracer:
        pullback.pullback_approx(martingale.as_approx(mart),
                                 funcs.as_weak(fn), x, r)
    assert tracer.budget_violations(0, tracer.mark()) == []
    totals = tracer.totals()
    assert totals["funcs.f_query.calls"] == 2
    assert 0 < totals["martingale.d_query.calls"] <= 2 * m + 1
    assert totals["martingale.d_query.calls"] == totals["dyadic.cover.arg"]

    # a third f-query under the same value breaks the budget
    value = next(i for i, k in enumerate(tracer.keys)
                 if k == "pullback.value")
    broken = spans.Tracer()
    sid = broken.open("pullback.value")
    broken.attrs[sid] = dict(tracer.attrs[value])
    for _ in range(3):
        broken.arg[broken.open("funcs.f_query")] = m + 2
        broken.close(broken.mark() - 1)
    broken.close(sid)
    assert any("f-queries" in v
               for v in broken.budget_violations(0, broken.mark()))


def test_series_term_budget():
    from dymart import analytic
    spec = analytic.builtin_spec("exp")
    for s in (8, 40):
        assert spans.series_terms(spec, s) == \
            analytic.eval_schedule(spec, s)[0]
    tracer = spans.Tracer()
    with tracer:
        analytic.eval_point(spec, Fraction(1, 3), 20)
    assert tracer.budget_violations(0, tracer.mark()) == []
    assert tracer.totals()["analytic.terms"] == spans.series_terms(spec, 20)


# -- answer checks ------------------------------------------------------------

def test_root_enclosure_accepts_true_roots_and_rejects_others():
    exp = {"family": "exp", "offset": "3/2", "coeffs": None, "p": 16,
           "root": None}
    ln_3_2 = Fraction(26573, 65536)         # ln(3/2) = 0.405465...
    assert enclose.root_enclosed(exp, ln_3_2)
    assert not enclose.root_enclosed(exp, ln_3_2 + Fraction(3, 65536))
    lin = {"family": "poly", "offset": None, "coeffs": ["-3/8", "1"],
           "p": 10, "root": "3/8"}
    assert enclose.root_enclosed(lin, Fraction(3, 8))
    assert not enclose.root_enclosed(lin, Fraction(3, 8) + Fraction(1, 512))
    for name, t in (("sin", Fraction(1, 3)), ("cos", Fraction(2, 3)),
                    ("ln1p", Fraction(1, 4))):
        lo, hi = enclose.series_enclosure(name, t, 20)
        assert lo <= hi and hi - lo < Fraction(1, 10 ** 12)


def test_cli_output_check():
    ok = {"expect": 0}
    assert workloads.check_cli_output(ok, 0, "v = 3/8\n# approx 0.375\n",
                                      "") is None
    assert workloads.check_cli_output(ok, 0, "v = 0.375\n", "") is not None
    assert workloads.check_cli_output(ok, 1, "v = 3/8\n", "") is not None
    bad = {"expect": 2}
    assert workloads.check_cli_output(bad, 2, "", "error: nope\n") is None
    assert workloads.check_cli_output(
        bad, 2, "", "Traceback (most recent call last):\n") is not None


# -- whole runs ---------------------------------------------------------------

def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    spec = _bench_json()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = _run("--workload", workload, "--seed", "5", "--seconds",
                    "0.5", "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = _bench_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.per_layer_spec()]
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_checkout_without_the_program_fails_without_a_result():
    bare = ROOT / "perfbench" / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = _run("--workload", "pullback-exact", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_committed_baseline_compares_and_backends_must_match(capsys):
    baselines = sorted((HERE / "baseline").glob("BENCH_*.json"))
    assert baselines
    base = json.loads(baselines[0].read_text(encoding="utf-8"))
    assert set(base["workloads"]) == set(workloads.WORKLOADS)
    assert all(e["e2e"]["failed"] == 0 and e["layers"]["failed"] == 0
               for e in base["workloads"].values())
    assert run.compare(baselines[0], baselines[0]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert all(any(r.startswith(w) for r in rows)
               for w in workloads.WORKLOADS)
    other = ROOT / "perfbench" / "out" / "selftest-other-backend.json"
    base["stamp"]["backend"] = "cython"
    other.parent.mkdir(parents=True, exist_ok=True)
    other.write_text(json.dumps(base), encoding="utf-8")
    assert run.compare(baselines[0], other) == 2
    other.unlink()
