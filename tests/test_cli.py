import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dymart import cli
from dymart.dyadic import parse_rational
from dymart.errors import ParseError
from dymart import config as cfg
from helpers import decimal_by_digits, exp_interval, in_interval
from test_golden import COMMANDS, GOLDEN, STEP_TABLE

F = Fraction

RAT = re.compile(r"-?\d+/\d+")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestScalarCommands:
    def test_pullback_uniform_identity(self, capsys):
        code, out, _ = run(capsys, "pullback", "--martingale", "uniform",
                           "--function", "identity", "--word", "λ",
                           "--precision", "10")
        assert code == 0
        # cover of the whole interval is {λ}, so the value is exactly 1
        assert out.strip() == "1/1"

    def test_pullback_trace_columns(self, capsys):
        code, out, _ = run(capsys, "pullback", "--martingale",
                           "conservative:zbettor:1", "--function",
                           "fz_scaled:1", "--word", "10", "--precision", "4",
                           "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,prefix_len,v,lower_bracket,upper_bracket"
        assert len(lines) == 4
        for line in lines[1:]:
            word, n, v, lo, hi = line.split(",")
            assert parse_rational(lo) <= parse_rational(v) <= \
                parse_rational(hi)

    def test_patch_value(self, capsys):
        code, out, _ = run(capsys, "patch", "--function", "fz:1", "--word",
                           "011", "--precision", "8")
        assert code == 0 and out.strip() == "3/16"

    def test_analytic_eval_exp(self, capsys):
        code, out, _ = run(capsys, "analytic", "eval", "--spec", "exp",
                           "--word", "1", "--precision", "10")
        assert code == 0
        v = parse_rational(out.strip())
        assert abs(v - F(1648721, 10 ** 6)) < F(1, 100)  # e^0.5 ballpark

    def test_analytic_root_sqrt_half(self, capsys):
        code, out, _ = run(capsys, "analytic", "root", "--spec",
                           "poly:-1/2,0,1", "--interval", "0,1",
                           "--precision", "20")
        assert code == 0
        v = parse_rational(out.strip().splitlines()[0])
        ref = F(math.isqrt(2 ** 41), 1 << 21)
        assert abs(v - ref) <= F(1, 1 << 20) + F(1, 1 << 21)

    def test_analytic_root_with_offset(self, capsys):
        code, out, _ = run(capsys, "analytic", "root", "--spec", "exp",
                           "--interval", "0,1", "--precision", "12",
                           "--offset", "3/2")
        assert code == 0
        v = parse_rational(out.strip().splitlines()[0])
        assert abs(v - F(405465, 10 ** 6)) < F(1, 1000)  # ln(3/2) ballpark

    def test_analytic_root_wide_bracket(self, capsys, tmp_path):
        # t - 1 on [0, 2^100]: 103 halvings down to the width 2^-3 of p = 4
        spec = tmp_path / "line.cfg"
        spec.write_text("kind = quotient\nnum = -1,1\nden = 1\n"
                        "den_floor = 1\n")
        code, out, _ = run(capsys, "analytic", "root", "--spec", f"@{spec}",
                           "--interval", f"0,{1 << 100}", "--precision", "4")
        assert code == 0 and out == "1/1\n# binary 1\n"

    @pytest.mark.parametrize("word,p", [("1", 10), ("011", 40), ("λ", 64)])
    def test_analytic_eval_with_offset(self, capsys, word, p):
        # the value of f - offset, within 2^-p of exp's interval minus 3/2
        from dymart.analytic import builtin_spec
        from dymart.dyadic import Word
        code, out, _ = run(capsys, "analytic", "eval", "--spec", "exp",
                           "--word", word, "--precision", str(p),
                           "--offset", "3/2")
        assert code == 0
        t = (builtin_spec("exp").anchor + Word.parse(word)).value()
        lo, hi = exp_interval(t, terms=80)
        assert in_interval(parse_rational(out.strip()), lo - F(3, 2),
                           hi - F(3, 2), F(1, 1 << p))

    def test_measure_cumulative(self, capsys):
        code, out, _ = run(capsys, "measure", "cumulative", "--measure",
                           "product:2/3", "--word", "1")
        assert code == 0 and out.strip() == "2/3"

    def test_measure_differential(self, capsys):
        code, out, _ = run(capsys, "measure", "differential", "--function",
                           "identity", "--word", "0110")
        assert code == 0 and out.strip() == "1/16"

    def test_measure_roundtrip_exit_code(self, capsys):
        code, out, _ = run(capsys, "measure", "roundtrip", "--measure",
                           "from_function:fz_norm:1", "--depth", "6")
        assert code == 0
        assert "pass" in out

    def test_trace_zbettor(self, capsys):
        code, out, _ = run(capsys, "trace", "--martingale", "zbettor:1",
                           "--word", "10100", "--precision", "5")
        assert code == 0
        caps = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
        assert caps == ["1/1", "1/1", "2/1", "2/1", "2/1", "2/1"]

    def test_tightness_demo_capital_column(self, capsys):
        code, out, _ = run(capsys, "tightness", "demo", "--zset", "1",
                           "--depth", "5")
        assert code == 0
        lines = out.strip().splitlines()
        start = lines.index("n,word,capital") + 1
        caps = [line.split(",")[2] for line in lines[start:start + 6]]
        assert caps == ["1/1", "1/1", "2/1", "2/1", "2/1", "2/1"]


def _big_int(text):
    """int(text) for a decimal string of any length, 1000 digits at a time
    (int() refuses more than 4300 digits on recent Pythons)."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestOutputModes:
    def test_value_beyond_int_digit_limit(self, capsys):
        # an exact value whose denominator has more decimal digits than
        # Python's default integer-to-string limit of 4300
        from dymart.funcs import as_weak
        from dymart.martingale import as_approx
        from dymart.pullback import pullback_approx
        argv = ("pullback", "--martingale", "conservative:pattern:011",
                "--function", "fz_norm:0,2,4", "--word", "0110",
                "--precision", "2048")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        num, den = out.strip().split("/")
        assert len(den) > 4300
        want = pullback_approx(as_approx(cfg.parse_martingale(argv[2])),
                               as_weak(cfg.parse_function(argv[4])),
                               cfg.parse_word(argv[6]), 2048)
        assert F(_big_int(num), _big_int(den)) == want

    def test_decimal_is_labeled(self, capsys):
        code, out, _ = run(capsys, "measure", "cumulative", "--measure",
                           "uniform", "--word", "101", "--decimal", "4")
        assert code == 0
        assert out.splitlines()[0] == "5/8"
        assert "approx 0.6250" in out and "truncated" in out

    def test_decimal_limit(self, capsys):
        # a million digits of 5/8 print; one more fails before any work
        argv = ("measure", "cumulative", "--measure", "uniform", "--word",
                "101", "--decimal")
        code, out, _ = run(capsys, *argv, "1000000")
        assert code == 0
        assert out.splitlines()[1] == \
            f"# approx 0.625{'0' * 999997} (1000000 digits, truncated)"
        code, out, err = run(capsys, *argv, "1000001")
        assert code == 2 and out == ""
        assert err.startswith("error: --decimal 1000001 is above the limit "
                              "1000000") and err.count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(-40, 40), st.integers(-10 ** 40, 10 ** 40)),
           st.one_of(st.integers(1, 50), st.integers(1, 10 ** 20)),
           st.one_of(st.sampled_from([0, 1, 5, 999, 1000, 1001, 2500]),
                     st.integers(0, 60)))
    def test_decimal_equals_digit_by_digit(self, num, den, digits):
        # negative values and zero whole parts included, and digit counts
        # on both sides of a chunk boundary
        q = F(num, den)
        assert cli.decimal_str(q, digits) == decimal_by_digits(q, digits)

    def test_decimal_peak_memory(self):
        # a million digits of 1/3 peak near 3 MB; one string per digit
        # peaked near 58 MB (Python 3.11)
        tracemalloc.start()
        try:
            text = cli.decimal_str(F(1, 3), 10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == "0." + "3" * 10 ** 6
        assert peak < 10 * 2 ** 20, peak

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, "--output", str(target), "measure",
                           "cumulative", "--measure", "uniform", "--word",
                           "11")
        assert code == 0 and out == ""
        assert target.read_text() == "3/4\n"

    def test_all_numbers_parse_back(self, capsys):
        commands = [
            ("pullback", "--martingale", "uniform", "--function", "identity",
             "--word", "01", "--precision", "6"),
            ("tightness", "bounds", "--zset", "pow2", "--step-exp", "3",
             "--slope-exp", "3"),
            ("trace", "--martingale", "conservative:allin_zeros", "--word",
             "0011", "--precision", "8"),
        ]
        for argv in commands:
            _, out, _ = run(capsys, *argv)
            for token in RAT.findall(out):
                parse_rational(token)  # must not raise

    def test_config_file_defaults(self, capsys, tmp_path):
        conf = tmp_path / "run.cfg"
        conf.write_text("# demo config\nmartingale = uniform\n"
                        "function = identity\nword = 01\nprecision = 6\n")
        code, out, _ = run(capsys, "pullback", "--config", str(conf))
        assert code == 0
        v = parse_rational(out.strip())
        assert abs(v - 1) <= F(1, 64)

    def test_config_parse_error_has_line(self, tmp_path):
        conf = tmp_path / "bad.cfg"
        conf.write_text("martingale = uniform\nnonsense line\n")
        with pytest.raises(ParseError) as err:
            cfg.load_config(str(conf))
        assert "line 2" in str(err.value)


class TestDeterminism:
    def test_verify_twice_is_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "tightness",
                             "--depth", "6")
        code2, out2, _ = run(capsys, "verify", "--suite", "tightness",
                             "--depth", "6")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_injected_cover_fault_fails_verify(self, capsys, monkeypatch):
        import dymart.pullback
        import dymart.verify
        real = dymart.verify.minimal_cover

        def broken(a, b, m=None):
            cover = real(a, b, m)
            return list(cover)[:-1] if len(cover) > 1 else cover

        monkeypatch.setattr(dymart.verify, "minimal_cover", broken)
        monkeypatch.setattr(dymart.pullback, "minimal_cover", broken)
        code, out, _ = run(capsys, "verify", "--suite", "pullback")
        assert code == 1
        assert "FAIL pullback.greedy_cover" in out
        assert "FAIL pullback.bracket" in out

    def test_injected_walk_fault_fails_verify(self, capsys, monkeypatch):
        # a block walk that drops the last reply of every cover: its value
        # no longer equals the at()-backed one, word by word, although the
        # dropped word is often far below the 2^-r tolerance
        import dymart.martingale
        cls = dymart.martingale.ProductFormApprox
        real = cls.cover_replies

        def broken(self, cover, m):
            return iter(list(real(self, cover, m))[:-1])

        monkeypatch.setattr(cls, "cover_replies", broken)
        code, out, _ = run(capsys, "verify", "--suite", "pullback")
        assert code == 1
        assert "FAIL pullback.identity_pullback" in out
        assert "FAIL pullback.bracket" in out
        assert "PASS pullback.greedy_cover" in out

    def test_injected_fz_fault_fails_tightness(self, capsys, monkeypatch):
        # fz(1/2) := 0 wherever fz is evaluated; each failing point is
        # reported with both sides of its bound, as the sweep compared them
        import dymart.tightness
        from dymart.dyadic import Dyadic
        real = dymart.tightness.insertion_value

        def broken(x, zset):
            return Dyadic(0) if x.value() == Dyadic(1, 1) else real(x, zset)

        monkeypatch.setattr(dymart.tightness, "insertion_value", broken)
        code, out, _ = run(capsys, "verify", "--suite", "tightness")
        assert code == 1
        lines = out.splitlines()
        step = lines.index("FAIL tightness.step_bound: insertion-map step "
                           "bound, exhaustive grid [10758 checks]")
        assert lines[step + 1:step + 3] == [
            "    step at z=empty x=0/1 n=1: step bound z=empty x=0/1 n=1: "
            "0 < 1/2",
            "    step at z=empty x=1/4 n=2: step bound z=empty x=1/4 n=2: "
            "-1/4 < 1/4"]
        slope = lines.index("FAIL tightness.slope_bound: insertion-map slope "
                            "bound, exhaustive pairs [12096 checks]")
        assert lines[slope + 1:slope + 3] == [
            "    slope at z=empty 0/64,32/64: slope bound z=empty x=0/1 "
            "y=1/2: 0 < 1/2",
            "    slope at z=empty 1/64,32/64: slope bound z=empty x=1/64 "
            "y=1/2: -1/31 < 1/2"]
        assert "PASS tightness.capital" in out

        code, out, _ = run(capsys, "tightness", "bounds", "--zset", "1",
                           "--step-exp", "2", "--slope-exp", "2")
        assert code == 1
        assert "0/1,1,0/1,1/4,False" in out.splitlines()
        assert "0/4,2/4,0/1,1/4,False" in out.splitlines()


class TestErrors:
    @pytest.mark.parametrize("exc", [RecursionError("too deep"),
                                     ZeroDivisionError("Fraction(1, 0)"),
                                     OverflowError("too large")])
    def test_runtime_errors_exit_2_without_traceback(self, capsys,
                                                     monkeypatch, exc):
        def fail(args, out):
            raise exc

        monkeypatch.setitem(cli.HANDLERS, "trace", fail)
        code, out, err = run(capsys, "trace", "--martingale", "uniform",
                             "--word", "0", "--precision", "4")
        assert code == 2 and out == ""
        assert err == f"error: {exc}\n"

    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("cannot grow the level"),
         "error: cannot grow the level\n")], ids=["bare", "with_text"])
    def test_memory_error_exits_2_without_traceback(self, capsys,
                                                    monkeypatch, exc, line):
        # the allocator raises a bare MemoryError, with no text of its own
        def fail(args, out):
            raise exc

        monkeypatch.setitem(cli.HANDLERS, "verify", fail)
        code, out, err = run(capsys, "verify", "--suite", "martingale",
                             "--depth", "2")
        assert code == 2 and out == ""
        assert err == line

    @pytest.mark.parametrize("argv", [
        ("verify", "--depth", "-1"),
        ("verify", "--suite", "martingale", "--depth", "13"),
        ("measure", "roundtrip", "--measure", "uniform", "--depth", "-3"),
        ("measure", "roundtrip", "--measure", "uniform", "--depth", "15"),
        ("tightness", "bounds", "--zset", "pow2", "--step-exp", "-1"),
        ("tightness", "bounds", "--zset", "pow2", "--step-exp", "13"),
        ("tightness", "bounds", "--zset", "pow2", "--slope-exp", "-2"),
        ("tightness", "bounds", "--zset", "pow2", "--slope-exp", "10"),
        ("tightness", "demo", "--zset", "1", "--depth", "-2"),
        ("tightness", "demo", "--zset", "1", "--depth", "4097"),
    ], ids=" ".join)
    def test_depth_out_of_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --") and err.count("\n") == 1
        assert ("nonnegative" in err) == argv[-1].startswith("-")

    @pytest.mark.parametrize("argv", [
        ("pullback", "--martingale", "uniform", "--function", "identity",
         "--word", "0", "--precision", "-1"),
        ("pullback", "--martingale", "uniform", "--function", "identity",
         "--word", "0", "--trace", "--precision", "-1"),
        ("analytic", "eval", "--spec", "exp", "--word", "1", "--precision",
         "-2"),
        ("analytic", "root", "--spec", "poly:-1/2,1", "--interval", "0,1",
         "--precision", "-1"),
        ("patch", "--function", "identity", "--word", "01", "--precision",
         "-1"),
        ("trace", "--martingale", "uniform", "--word", "01", "--precision",
         "-1"),
        ("analytic", "eval", "--spec", "exp", "--word", "1", "--precision",
         "4", "--decimal", "-3"),
    ], ids=" ".join)
    def test_negative_precision_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        flag, value = argv[-2:]
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be nonnegative, got {value}\n"

    def test_decimal_from_config(self, capsys, tmp_path):
        # a config value arrives as text and goes through the same guard
        conf = tmp_path / "dec.cfg"
        conf.write_text("decimal = 3\n")
        code, out, _ = run(capsys, "analytic", "eval", "--spec", "exp",
                           "--word", "1", "--precision", "8", "--config",
                           str(conf))
        assert code == 0
        assert out.splitlines()[1] == "# approx 1.648 (3 digits, truncated)"
        conf.write_text("decimal = -1\n")
        code, out, err = run(capsys, "analytic", "eval", "--spec", "exp",
                             "--word", "1", "--precision", "8", "--config",
                             str(conf))
        assert code == 2 and out == ""
        assert err == "error: --decimal must be nonnegative, got -1\n"

    @pytest.mark.parametrize("argv", [
        ("pullback", "--martingale", "conservative:zbettor:1", "--function",
         "fz_norm:0,65537", "--word", "0110", "--precision", "8"),
        ("trace", "--martingale", "zbettor:65537", "--word", "10100",
         "--precision", "5"),
    ], ids=" ".join)
    def test_position_above_bound_exit_2(self, capsys, argv):
        # the value at 1 of fz_norm sums every position up to the largest
        # member, so an unbounded member would run for unbounded time
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("error: positions must be at most 65536 (the largest "
                       "member of tower), got 65537\n")

    @pytest.mark.parametrize("zset", ["tower", "0,65536"])
    def test_position_at_bound_is_accepted(self, capsys, zset):
        code, out, _ = run(capsys, "tightness", "demo", "--zset", zset,
                           "--depth", "3")
        assert code == 0 and out.startswith("# capital trace")

    def test_depth_zero_is_accepted(self, capsys):
        code, out, _ = run(capsys, "measure", "roundtrip", "--measure",
                           "uniform", "--depth", "0")
        assert code == 0 and "pass" in out
        code, _, _ = run(capsys, "tightness", "bounds", "--zset", "1",
                         "--step-exp", "0", "--slope-exp", "0")
        assert code == 0

    def test_unknown_martingale(self, capsys):
        code, _, err = run(capsys, "pullback", "--martingale", "gambler",
                           "--function", "identity", "--word", "0",
                           "--precision", "4")
        assert code == 2 and "unknown martingale" in err

    def test_non_monotone_function_rejected(self, capsys, tmp_path):
        table = tmp_path / "f.tbl"
        table.write_text("00 0/1\n01 3/4\n10 1/4\n11 1/2\n1 1/1\n")
        code, _, err = run(capsys, "pullback", "--martingale", "uniform",
                           "--function", f"table:{table}", "--word", "0",
                           "--precision", "4")
        assert code == 2 and "not monotone" in err

    def test_non_dyadic_word_value_rejected(self, capsys):
        code, _, err = run(capsys, "analytic", "root", "--spec",
                           "poly:-1/2,1", "--interval", "0,1/3",
                           "--precision", "8")
        assert code == 2 and "not a dyadic" in err

    def test_series_config_file(self, capsys, tmp_path):
        spec = tmp_path / "half.cfg"
        spec.write_text("kind = series\ncoeffs = -1/2,1\nC = 2\nr = 1\n"
                        "eps = 1\nanchor = λ\ntail_from = 2\n")
        code, out, _ = run(capsys, "analytic", "root", "--spec",
                           f"@{spec}", "--interval", "0,1", "--precision",
                           "12")
        assert code == 0
        assert parse_rational(out.splitlines()[0]) == F(1, 2)

    @pytest.mark.parametrize("word", ["λ", "1", "0101"])
    def test_series_file_with_named_base_matches_spec(self, capsys, tmp_path,
                                                      word):
        spec = tmp_path / "exp.cfg"
        spec.write_text("kind = series\ncoeffs = exp\n")
        argv = ("analytic", "eval", "--word", word, "--precision", "24")
        assert run(capsys, *argv, "--spec", f"@{spec}") == \
            run(capsys, *argv, "--spec", "exp")

    @pytest.mark.parametrize("key, value, field", [
        ("C", "2", "term_bound"),
        ("eps", "1/8", "margin"),
        ("anchor", "01", "anchor"),
    ])
    def test_series_file_overrides_a_named_field(self, capsys, tmp_path,
                                                 key, value, field):
        import dataclasses
        from dymart.analytic import builtin_spec, eval_approx
        from dymart.dyadic import Word, fmt_rational
        spec = tmp_path / "ln1p.cfg"
        spec.write_text(f"kind = series\ncoeffs = ln1p\n{key} = {value}\n")
        code, out, _ = run(capsys, "analytic", "eval", "--spec", f"@{spec}",
                           "--word", "011", "--precision", "20")
        parsed = Word.parse(value) if field == "anchor" else F(value)
        changed = dataclasses.replace(builtin_spec("ln1p"),
                                      **{field: parsed})
        assert code == 0
        assert out == fmt_rational(
            eval_approx(changed, Word.parse("011"), 20)) + "\n"

    @pytest.mark.parametrize("argv", [
        ("eval", "--word", "1", "--precision", "4"),
        ("root", "--interval", "0,1", "--precision", "20"),
    ], ids=["eval", "root"])
    def test_series_file_with_poly_base_matches_spec(self, capsys, tmp_path,
                                                     argv):
        # a poly: spec with more than one coefficient is a built-in spec,
        # not an explicit coefficient list
        spec = tmp_path / "poly.cfg"
        spec.write_text("kind = series\ncoeffs = poly:-1/2,0,1\n")
        file_run = run(capsys, "analytic", *argv, "--spec", f"@{spec}")
        assert file_run[0] == 0
        assert file_run == run(capsys, "analytic", *argv, "--spec",
                               "poly:-1/2,0,1")

    @pytest.mark.parametrize("value, scaled", [
        ("true", True), ("True", True), ("YES", True), ("1", True),
        ("false", False), ("False", False), ("No", False), ("0", False),
        ("maybe", None), ("", None),
    ])
    def test_f_z_file_scaled_flag(self, capsys, tmp_path, value, scaled):
        # scaled reads the one table of flag spellings --config uses; the
        # word 11 reaches the value at 1, where fz and fz_scaled differ
        spec = tmp_path / "fz.cfg"
        spec.write_text(f"kind = f_Z\nzset = 1\nscaled = {value}\n")
        argv = ("pullback", "--martingale", "conservative:zbettor:1",
                "--word", "11", "--precision", "4")
        code, out, err = run(capsys, *argv, "--function", f"@{spec}")
        if scaled is None:
            assert code == 2 and out == ""
            assert err == (f"error: {spec}: 'scaled' must be one of "
                           f"true|false|yes|no|1|0, got {value!r}\n")
        else:
            family = "fz_scaled" if scaled else "fz"
            assert (code, out, err) == run(capsys, *argv, "--function",
                                           f"{family}:1")

    def test_series_file_explicit_coefficients_need_C(self, capsys,
                                                      tmp_path):
        spec = tmp_path / "noc.cfg"
        spec.write_text("kind = series\ncoeffs = -1/2,1\nr = 1\neps = 1\n")
        code, out, err = run(capsys, "analytic", "eval", "--spec",
                             f"@{spec}", "--word", "1", "--precision", "8")
        assert code == 2 and out == ""
        assert err == f"error: {spec}: explicit coefficients need 'C'\n"

    def test_series_file_negative_tail_from(self, capsys, tmp_path):
        # refused by name before any term is read: a negative start would
        # index the term list from its end
        spec = tmp_path / "neg.cfg"
        spec.write_text("kind = series\ncoeffs = exp\ntail_from = -5\n")
        code, out, err = run(capsys, "analytic", "eval", "--spec",
                             f"@{spec}", "--word", "1", "--precision", "8")
        assert code == 2 and out == ""
        assert err == (f"error: series[{spec}]: tail_monotone_from = -5 "
                       "is negative\n")

    def test_quotient_config_file(self, capsys, tmp_path):
        spec = tmp_path / "quot.cfg"
        # f(t) = 1 / (1 + t), certified away from zero on [0, 1]
        spec.write_text("kind = quotient\nnum = 1\nden = 1,1\n"
                        "den_floor = 1\n")
        code, out, _ = run(capsys, "analytic", "eval", "--spec",
                           f"@{spec}", "--word", "1", "--precision", "10")
        assert code == 0 and out.strip() == "2/3"

    @pytest.mark.parametrize("parse,kind", [
        ("parse_series", "quotient"), ("parse_series", "f_Z"),
        ("parse_series", "series"), ("parse_function", "quotient"),
        ("parse_function", "f_Z")])
    def test_config_file_read_once(self, monkeypatch, tmp_path, parse,
                                   kind):
        fields = {"quotient": "num = 1\nden = 1,1\nden_floor = 1\n",
                  "f_Z": "zset = 1\n", "series": "coeffs = exp\n"}
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"kind = {kind}\n{fields[kind]}")
        real, reads = cfg.load_config, []

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(cfg, "load_config", counting)
        getattr(cfg, parse)(f"@{spec}")
        assert reads == [str(spec)]

    @pytest.mark.parametrize("action", ["eval", "root"])
    def test_offset_with_quotient_exit_2(self, capsys, tmp_path, action):
        spec = tmp_path / "quot.cfg"
        spec.write_text("kind = quotient\nnum = 1\nden = 1,1\n"
                        "den_floor = 1\n")
        code, out, err = run(capsys, "analytic", action, "--spec",
                             f"@{spec}", "--word", "1", "--interval", "0,1",
                             "--precision", "10", "--offset", "1/2")
        assert code == 2 and out == ""
        assert err == "error: --offset applies to series specs only\n"

    @pytest.mark.parametrize("j", [4097, -4097])
    def test_affine_exponent_out_of_range_exit_2(self, capsys, j):
        code, out, err = run(capsys, "measure", "differential", "--function",
                             f"affine:{j},0", "--word", "1")
        assert code == 2 and out == ""
        assert err == ("error: affine exponent must be between -4096 and "
                       f"4096, got {j}\n")

    def test_affine_exponent_at_bound_is_accepted(self, capsys):
        code, out, _ = run(capsys, "measure", "differential", "--function",
                           "affine:-4096,0", "--word", "1")
        assert code == 0 and parse_rational(out.strip()) == F(1, 1 << 4097)

    @pytest.mark.parametrize("value", ["0.75", "75e-2", "1e3"])
    def test_table_value_outside_grammar_exit_2(self, capsys, tmp_path,
                                                value):
        table = tmp_path / "dec.tbl"
        table.write_text(f"00 0/1\n01 1/4\n10 {value}\n11 3/4\n1 1/1\n")
        code, out, err = run(capsys, "measure", "differential", "--function",
                             f"table:{table}", "--word", "01")
        assert code == 2 and out == ""
        assert err == f"error: line 3: cannot parse rational {value!r}\n"

    def test_table_file_loads(self, capsys, tmp_path):
        table = tmp_path / "mono.tbl"
        table.write_text("# grid 2^-2\n00 0/1\n01 1/4\n10 1/2\n11 3/4\n"
                         "1 1/1\n")
        code, out, _ = run(capsys, "measure", "differential", "--function",
                           f"table:{table}", "--word", "01")
        assert code == 0 and out.strip() == "1/4"

    def test_table_word_of_another_length_exit_2(self, capsys, tmp_path):
        # the first word sets the table's length; a shorter one later is
        # refused on its own line, not dropped
        table = tmp_path / "mixed.tbl"
        table.write_text("00 0\n01 1/4\n10 1/2\n11 3/4\n0 7/8\n")
        code, out, err = run(capsys, "patch", "--function", f"table:{table}",
                             "--word", "01", "--precision", "4")
        assert code == 2 and out == ""
        assert err == "error: line 5: word 0 has length 1, not the table's 2\n"

    @pytest.mark.parametrize("text,error", [
        ("00 0\n01 1/4\n10 1/2\n11 3/4\n01 7/8\n",
         "line 5: word 01 is given again (first on line 2)"),
        ("1 1\n00 0\n01 1/4\n10 1/2\n11 3/4\n1 7/8\n",
         "line 6: the value at 1 is given again (first on line 1)"),
    ], ids=["word", "endpoint"])
    def test_table_repeated_line_exit_2(self, capsys, tmp_path, text,
                                        error):
        # a second value for a word or for the endpoint is refused on its
        # own line, not kept in place of the first
        table = tmp_path / "twice.tbl"
        table.write_text(text)
        code, out, err = run(capsys, "patch", "--function", f"table:{table}",
                             "--word", "01", "--precision", "4")
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("text", ["0 0\n1 1/2\n", "1 1/2\n0 0\n",
                                      "# 2^-1 grid\n0 0/1\n1 1/2 # last\n"],
                             ids=["word-order", "one-first", "comments"])
    @pytest.mark.parametrize("word, value", [("0", "1/2"), ("1", "0/1")])
    def test_table_on_the_half_grid_loads(self, capsys, tmp_path, text,
                                          word, value):
        # the words of the 2^-1 grid are 0 and 1: the "1" line is word 1,
        # and the value at 1 is the last cell's, so f(1) - f(1/2) = 0
        table = tmp_path / "half.tbl"
        table.write_text(text)
        code, out, err = run(capsys, "measure", "differential", "--function",
                             f"table:{table}", "--word", word)
        assert (code, err) == (0, "")
        assert out.strip() == value

    def test_table_on_the_half_grid_patches(self, capsys, tmp_path):
        table = tmp_path / "half.tbl"
        table.write_text("0 0\n1 1/2\n")
        code, out, err = run(capsys, "patch", "--function", f"table:{table}",
                             "--word", "1", "--precision", "4")
        assert (code, err) == (0, "")
        assert out.strip() == "1/2"

    @pytest.mark.parametrize("text,error", [
        ("0 0\n1 1/2\n1 1\n",
         "line 3: word 1 is given again (first on line 2)"),
        ("0 0\n1 1/2\n# the endpoint\n1 1/2\n",
         "line 4: word 1 is given again (first on line 2)"),
        ("0 0\n", "table is missing word 1"),
        ("1 1/2\n", "empty table"),
        ("0 0\n1 1/2\n00 0\n", "line 3: word 00 has length 2, not the "
         "table's 1"),
    ], ids=["again", "again-same-value", "missing", "only-one", "longer"])
    def test_table_on_the_half_grid_exit_2(self, capsys, tmp_path, text,
                                           error):
        table = tmp_path / "half.tbl"
        table.write_text(text)
        code, out, err = run(capsys, "patch", "--function", f"table:{table}",
                             "--word", "1", "--precision", "4")
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    # 5000 digits: above Python's default str->int limit of 4300
    LONG = "1" + "0" * 4999

    def _limit_error(self):
        return (f"integer of 5000 digits is above the limit of "
                f"{sys.get_int_max_str_digits()} digits\n")

    def test_table_value_above_digit_limit_exit_2(self, capsys, tmp_path):
        table = tmp_path / "long.tbl"
        table.write_text(f"00 0/1\n01 1/4\n10 {self.LONG}/1\n11 3/4\n"
                         "1 1/1\n")
        code, out, err = run(capsys, "measure", "differential", "--function",
                             f"table:{table}", "--word", "01")
        assert code == 2 and out == ""
        assert err == "error: line 3: " + self._limit_error()

    def test_product_value_above_digit_limit_exit_2(self, capsys):
        code, out, err = run(capsys, "measure", "cumulative", "--measure",
                             f"product:1/{self.LONG}", "--word", "1")
        assert code == 2 and out == ""
        assert err == "error: " + self._limit_error()


class TestConfigFile:
    """Every long option of a command reads a ``--config`` key; the command
    line beats the file and the file beats a built-in default."""

    def _conf(self, tmp_path, text):
        conf = tmp_path / "run.cfg"
        conf.write_text(text, encoding="utf-8")
        return str(conf)

    def test_verify_suite_and_depth_from_file(self, capsys, tmp_path):
        conf = self._conf(tmp_path, "suite = martingale\ndepth = 1\n")
        code, out, _ = run(capsys, "verify", "--config", conf)
        assert code == 0 and len(out.splitlines()) == 3
        assert (code, out) == run(capsys, "verify", "--suite", "martingale",
                                  "--depth", "1")[:2]

    def test_command_line_beats_file(self, capsys, tmp_path):
        conf = self._conf(tmp_path, "suite = martingale\ndepth = 1\n")
        code, out, _ = run(capsys, "verify", "--depth", "2", "--config", conf)
        assert code == 0
        assert out == run(capsys, "verify", "--suite", "martingale",
                           "--depth", "2")[1]

    @pytest.mark.parametrize("spelling", ["step-exp", "step_exp"])
    def test_dash_and_underscore_name_one_option(self, capsys, tmp_path,
                                                 spelling):
        conf = self._conf(tmp_path, f"zset = 1\n{spelling} = 2\n"
                                    "slope-exp = 2\n")
        code, out, _ = run(capsys, "tightness", "bounds", "--config", conf)
        assert code == 0 and len(out.splitlines()) == 15

    @pytest.mark.parametrize("value, traced", [
        ("true", True), ("Yes", True), ("1", True),
        ("false", False), ("no", False), ("0", False)])
    def test_flag_reads_a_boolean(self, capsys, tmp_path, value, traced):
        conf = self._conf(tmp_path, "martingale = uniform\nfunction = "
                                    f"identity\nword = 1\nprecision = 4\n"
                                    f"trace = {value}\n")
        code, out, _ = run(capsys, "pullback", "--config", conf)
        assert code == 0
        assert out.startswith("word,prefix_len,") == traced

    def test_command_line_decimal_beats_file(self, capsys, tmp_path):
        conf = self._conf(tmp_path, "decimal = 3\n")
        code, out, _ = run(capsys, "--decimal", "5", "analytic", "eval",
                           "--spec", "exp", "--word", "1", "--precision",
                           "8", "--config", conf)
        assert code == 0
        assert out.splitlines()[1] == "# approx 1.64872 (5 digits, truncated)"

    @pytest.mark.parametrize("command, text, error", [
        ("analytic", "spec = exp\nprecison = 4\n",
         "'precison' is not a long option of analytic"),
        ("analytic", "action = eval\n",
         "'action' is not a long option of analytic"),
        ("analytic", "trace = true\n",
         "'trace' is not a long option of analytic"),
        ("pullback", "trace = maybe\n",
         "'trace' must be one of true|false|yes|no|1|0, got 'maybe'"),
    ])
    def test_bad_key_exit_2(self, capsys, tmp_path, command, text, error):
        conf = self._conf(tmp_path, text)
        argv = (command, "eval") if command == "analytic" else (command,)
        code, out, err = run(capsys, *argv, "--config", conf)
        assert code == 2 and out == ""
        assert err == f"error: {conf}: {error}\n"

    def test_repeated_option_exit_2(self, capsys, tmp_path):
        conf = self._conf(tmp_path, "step-exp = 2\nstep_exp = 3\n")
        code, out, err = run(capsys, "tightness", "bounds", "--zset", "1",
                             "--config", conf)
        assert code == 2 and out == ""
        assert err == (f"error: {conf}: 'step_exp' sets --step-exp a second "
                       "time\n")


class TestSpecPaths:
    """Spec and config-file paths of ``config`` and ``cli``, one case each."""

    def test_cumulative_function_spec(self, capsys):
        code, out, _ = run(capsys, "patch", "--function",
                           "cumulative:product:1/3", "--word", "0110",
                           "--precision", "8")
        assert code == 0 and out == "5/27\n"
        assert run(capsys, "measure", "cumulative", "--measure",
                   "product:1/3", "--word", "0110")[:2] == (0, out)

    def test_table_kind_file(self, capsys, tmp_path):
        table = tmp_path / "step.tbl"
        table.write_text("00 0/1\n01 1/4\n10 1/2\n11 3/4\n1 1/1\n")
        conf = tmp_path / "table.cfg"
        conf.write_text(f"kind = table\nfile = {table}\n")
        argv = ("patch", "--word", "0110", "--precision", "8")
        code, out, _ = run(capsys, *argv, "--function", f"@{conf}")
        assert code == 0 and out == "1/4\n"
        assert run(capsys, *argv, "--function", f"table:{table}")[:2] == \
            (0, out)

    @pytest.mark.parametrize("text, error", [
        ("word = 1\n = 3\n", "line 2: empty key"),
        ("word = 1\nword = 0\n", "line 2: duplicate key 'word'"),
    ])
    def test_bad_config_line_exit_2(self, capsys, tmp_path, text, error):
        conf = tmp_path / "run.cfg"
        conf.write_text(text)
        code, out, err = run(capsys, "trace", "--martingale", "uniform",
                             "--config", str(conf))
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("argv, error", [
        (("measure", "differential", "--function", "affine:1", "--word",
          "1"), "affine needs j,a: 'affine:1'"),
        (("measure", "differential", "--function", "gauss", "--word", "1"),
         "unknown function spec 'gauss'"),
        (("measure", "cumulative", "--measure", "poisson", "--word", "1"),
         "unknown measure spec 'poisson'"),
        (("patch", "--function", "identity", "--word", "1"),
         "missing --precision (flag or config key)"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_bad_spec_exit_2(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("option, text, error", [
        ("--function", "kind = table\n", "missing 'file'"),
        ("--spec", "kind = series\ncoeffs = exp\ncenter = 1/2\n",
         "only center=0 series are shipped"),
        ("--spec", "kind = spline\n", "unknown kind 'spline'"),
        ("--function", "kind = series\ncoeffs = exp\n",
         "kind 'series' is not a point-function kind"),
    ])
    def test_bad_spec_file_exit_2(self, capsys, tmp_path, option, text,
                                  error):
        spec = tmp_path / "spec.cfg"
        spec.write_text(text)
        command = ("patch",) if option == "--function" else \
            ("analytic", "eval")
        code, out, err = run(capsys, *command, option, f"@{spec}", "--word",
                             "1", "--precision", "4")
        assert code == 2 and out == ""
        assert err == f"error: {spec}: {error}\n"


# Runs one command in a fresh interpreter and writes the names of the
# modules the command added to sys.modules to the file named by argv[1].
STARTUP_CHILD = """
import sys
before = set(sys.modules)
from dymart import cli
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

# modules only the analytic and verify commands may load
HEAVY = {"dymart.verify", "dymart.analytic", "dataclasses"}
# the series module and the ``dataclasses`` its ``PowerSeriesSpec`` loads
SERIES = {"dymart.analytic", "dataclasses"}
# the strategy modules and the product-form kernel
STRATEGIES = {"dymart.martingale", "dymart.kernels", "dymart._shiftcore_py"}


class TestStartup:
    """Each command in a fresh interpreter that compiles every module from
    source: what it prints, its exit code, and which modules it loads.
    In-process tests see neither the loaded set nor an import cycle that
    only a fresh interpreter meets.  Only ``analytic`` and the analytic
    suite load the series module, and each ``verify --suite`` loads only
    the modules its suite runs."""

    @pytest.mark.parametrize("argv, code, golden, absent", [
        (COMMANDS["readme_pullback_trace"], 0, "readme_pullback_trace",
         HEAVY | {"dymart.measure", "dymart.patch"}),
        (COMMANDS["readme_patch_table"], 0, "readme_patch_table",
         HEAVY | STRATEGIES),
        (COMMANDS["readme_trace"], 0, "readme_trace", HEAVY),
        (COMMANDS["readme_measure_cumulative"], 0,
         "readme_measure_cumulative", HEAVY | STRATEGIES),
        ("measure roundtrip --measure uniform --depth 4", 0, None,
         HEAVY | STRATEGIES),
        (COMMANDS["readme_tightness_bounds"], 0, "readme_tightness_bounds",
         HEAVY | STRATEGIES),
        # series evaluation loads no product-form kernel
        (COMMANDS["readme_analytic_eval_exp"], 0,
         "readme_analytic_eval_exp", {"dymart.verify"} | STRATEGIES),
        ("verify --suite martingale --depth 4", 0, None,
         SERIES | {"dymart.pullback", "dymart.patch", "dymart.measure"}),
        ("verify --suite pullback --depth 4", 0, None,
         SERIES | {"dymart.patch", "dymart.measure"}),
        ("verify --suite patch --depth 4", 0, None,
         SERIES | STRATEGIES | {"dymart.pullback", "dymart.measure",
                                "dymart.tightness"}),
        ("verify --suite analytic --depth 4", 0, None,
         STRATEGIES | {"dymart.funcs", "dymart.pullback", "dymart.patch",
                       "dymart.measure", "dymart.tightness"}),
        ("verify --suite tightness --depth 4", 0, None,
         SERIES | {"dymart.pullback", "dymart.patch", "dymart.measure"}),
        ("verify --suite measure --depth 4", 0, None,
         SERIES | STRATEGIES | {"dymart.pullback", "dymart.patch"}),
        ("frobnicate --word 0", 2, None, HEAVY),
    ], ids=["pullback", "patch", "trace", "measure-cumulative",
            "measure-roundtrip", "tightness-bounds", "analytic-eval",
            "verify-martingale", "verify-pullback", "verify-patch",
            "verify-analytic", "verify-tightness", "verify-measure",
            "malformed"])
    def test_fresh_interpreter(self, tmp_path, argv, code, golden, absent):
        table = tmp_path / "step.tbl"
        table.write_text(STEP_TABLE, encoding="utf-8")
        loaded = tmp_path / "modules.txt"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONIOENCODING="utf-8",
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_CHILD, str(loaded),
             *argv.format(table=table).split()],
            cwd=tmp_path, env=env, capture_output=True, timeout=120)
        err = proc.stderr.decode("utf-8", "replace")
        assert proc.returncode == code, err
        assert "Traceback" not in err
        if golden is not None:
            assert proc.stdout == (GOLDEN / f"{golden}.txt").read_bytes()
        modules = set(loaded.read_text(encoding="utf-8").split())
        assert not modules & absent, sorted(modules & absent)


# Runs one command in a fresh interpreter, then writes its peak resident
# set size in kB to stderr: VmHWM, the high-water mark of the process's
# own memory since exec.  ru_maxrss would also count the pages of the
# process that forked it, under pytest those of the whole test run.
RSS_CHILD = """
import sys
from dymart import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh
               if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def peak_rss_mb(tmp_path, *argv):
    """Run one command through ``RSS_CHILD``; (stdout, VmHWM in MB)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=120)
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 0, err
    return proc.stdout.decode(), int(err.split()[-1]) / 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc")
class TestMemory:
    SAVINGS = ("pullback", "--martingale", "savings:conservative:pattern:011",
               "--function", "fz_norm:0,2,4", "--word", "0110",
               "--precision")

    def test_savings_pullback_r2048_peak_rss(self, tmp_path):
        # a savings wrapper of a product form at m = 8200: its cover comes
        # from one savings walk down each end path, which carries one
        # capital and one reserve per path.  A Fraction fold over the
        # input's at() values peaked at about 94 MB on this command, the
        # integer fold, one state per level of the last word, at about
        # 26 MB, and the walk at about 16 MB, the same as at r = 8
        # (Python 3.11, Linux)
        out, peak_mb = peak_rss_mb(tmp_path, *self.SAVINGS, "2048")
        assert RAT.fullmatch(out.strip())
        assert peak_mb < 60, peak_mb

    def test_savings_pullback_r8192_peak_rss(self, tmp_path):
        # the same at m = 32792 keeps O(m) bits, so it peaks within a few
        # MB of r = 8.  The integer fold's stack peaked at about 163 MB
        # here against 16 MB at r = 8, the walk at about 16 MB (Python
        # 3.11, Linux)
        _, small = peak_rss_mb(tmp_path, *self.SAVINGS, "8")
        out, large = peak_rss_mb(tmp_path, *self.SAVINGS, "8192")
        assert RAT.fullmatch(out.strip())
        assert large - small < 8, (small, large)

    def test_product_form_pullback_r8192_peak_rss(self, tmp_path):
        # a product form's cover at m = 32792 comes from one block walk,
        # which holds one running product per end path.  Replies from the
        # product fold, which keeps one product per level of the last
        # word, peaked at about 230 MB; the walk at about 17 MB (Python
        # 3.11, Linux)
        out, peak_mb = peak_rss_mb(
            tmp_path, "pullback", "--martingale", "conservative:pattern:011",
            "--function", "fz_norm:0,2,4", "--word", "0110", "--precision",
            "8192")
        assert RAT.fullmatch(out.strip())
        assert peak_mb < 40, peak_mb

    def test_analytic_eval_p8192_peak_rss(self, tmp_path):
        # eval_point adds each term of the series to a running pair sum as
        # it makes it.  A list of every term pair before the sum peaked at
        # about 115 MB on this command, the running sum at about 63 MB
        # (Python 3.11, Linux)
        out, peak_mb = peak_rss_mb(
            tmp_path, "analytic", "eval", "--spec", "exp", "--word", "1",
            "--precision", "8192")
        assert RAT.fullmatch(out.strip())
        assert peak_mb < 90, peak_mb

    def test_verify_martingale_depth10_peak_rss(self, tmp_path):
        # the exhaustive checks hold two levels at a time, each as integer
        # numerators over one denominator, so depth 10 (4095 words per
        # strategy and check) peaks within a few MB of depth 2.  Kept in a
        # per-strategy memo of every word's Fraction, it peaked at about
        # 28 MB against 18 MB (Python 3.11, Linux)
        argv = ("verify", "--suite", "martingale", "--depth")
        _, small = peak_rss_mb(tmp_path, *argv, "2")
        out, large = peak_rss_mb(tmp_path, *argv, "10")
        assert "FAIL" not in out
        assert large - small < 4, (small, large)
