import math
import re
from fractions import Fraction

import pytest

from dymart import cli
from dymart.dyadic import parse_rational
from dymart.errors import ParseError
from dymart import config as cfg

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


class TestOutputModes:
    def test_decimal_is_labeled(self, capsys):
        code, out, _ = run(capsys, "measure", "cumulative", "--measure",
                           "uniform", "--word", "101", "--decimal", "4")
        assert code == 0
        assert out.splitlines()[0] == "5/8"
        assert "approx 0.6250" in out and "truncated" in out

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
            return cover[:-1] if len(cover) > 1 else cover

        monkeypatch.setattr(dymart.verify, "minimal_cover", broken)
        monkeypatch.setattr(dymart.pullback, "minimal_cover", broken)
        code, out, _ = run(capsys, "verify", "--suite", "pullback")
        assert code == 1
        assert "FAIL pullback.greedy_cover" in out
        assert "FAIL pullback.bracket" in out


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
    ], ids=" ".join)
    def test_depth_out_of_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --") and err.count("\n") == 1
        assert ("nonnegative" in err) == argv[-1].startswith("-")

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

    def test_quotient_config_file(self, capsys, tmp_path):
        spec = tmp_path / "quot.cfg"
        # f(t) = 1 / (1 + t), certified away from zero on [0, 1]
        spec.write_text("kind = quotient\nnum = 1\nden = 1,1\n"
                        "den_floor = 1\n")
        code, out, _ = run(capsys, "analytic", "eval", "--spec",
                           f"@{spec}", "--word", "1", "--precision", "10")
        assert code == 0 and out.strip() == "2/3"

    def test_table_file_loads(self, capsys, tmp_path):
        table = tmp_path / "mono.tbl"
        table.write_text("# grid 2^-2\n00 0/1\n01 1/4\n10 1/2\n11 3/4\n"
                         "1 1/1\n")
        code, out, _ = run(capsys, "measure", "differential", "--function",
                           f"table:{table}", "--word", "01")
        assert code == 0 and out.strip() == "1/4"
