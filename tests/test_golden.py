"""Byte-for-byte stdout of fixed CLI commands against tests/golden/*.txt.

Each command runs in process through ``cli.main``, once with its options
on the command line and once with them in a ``--config`` file.  To
regenerate the files after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dymart import cli

GOLDEN = Path(__file__).parent / "golden"

# the README's "step function on the 2^-2 grid" table
STEP_TABLE = ("# step function on the 2^-2 grid\n"
              "00 0/1\n01 1/4\n10 1/2\n11 3/4\n1  1/1\n")

# name -> argv; "{table}" stands for the path of STEP_TABLE on disk
COMMANDS = {
    # the smallest depths: each level sweep reads only levels 0 and 1
    "verify_all_depth0": "verify --suite all --depth 0",
    "verify_all_depth1": "verify --suite all --depth 1",
    # also the README's verify command
    "verify_all_depth8": "verify --suite all --depth 8",
    # 12 is the largest --depth verify accepts
    "verify_all_depth12": "verify --suite all --depth 12",
    # the patch tables swept on a grid coarser than their own 2^-2 and
    # 2^-3 steps
    "verify_patch_depth2": "verify --suite patch --depth 2",
    "readme_pullback_uniform_identity":
        "pullback --martingale uniform --function identity --word λ "
        "--precision 10",
    "readme_pullback_trace":
        "pullback --martingale conservative:zbettor:1 --function "
        "fz_scaled:1 --word 10 --precision 4 --trace",
    "readme_patch_table":
        "patch --function table:{table} --word 0110 --precision 8",
    "readme_analytic_eval_exp":
        "analytic eval --spec exp --word 1 --precision 10",
    "readme_analytic_root_poly":
        "analytic root --spec poly:-1/2,0,1 --interval 0,1 --precision 20",
    "readme_analytic_root_exp":
        "analytic root --spec exp --offset 3/2 --interval 0,1 "
        "--precision 16",
    # roots whose probes share precision levels: exp - 3/2 at p = 256
    # sums a fixed-point series at each probe, the quadratic signs exactly
    "analytic_root_exp_p256":
        "analytic root --spec exp --offset 3/2 --interval 0,1 "
        "--precision 256",
    # the exact value at p = 2048: a long balanced sum of exp's terms
    "analytic_eval_exp_p2048":
        "analytic eval --spec exp --word 1 --precision 2048",
    # a deep series root: every probe sums sin - 1/2 at s >= 514
    "analytic_root_sin_p512":
        "analytic root --spec sin --offset 1/2 --interval 0,1 "
        "--precision 512",
    "analytic_root_poly_p64":
        "analytic root --spec poly:-1/2,0,1 --interval 0,1 --precision 64",
    # ln(5/4) on ln1p's half-interval anchor, and arccos(3/4): the two
    # other named series, each summed in fixed point at every probe
    "analytic_root_ln1p_p128":
        "analytic root --spec ln1p --offset 1/4 --interval 0,1/2 "
        "--precision 128",
    "analytic_root_cos_p128":
        "analytic root --spec cos --offset 3/4 --interval 0,1 "
        "--precision 128",
    # roots at the benchmark's precisions: sin - 1/2 sums every probe at
    # s = 34, and ln1p - 1/4 escalates to s = 68, so its coefficient
    # replies are asked at two levels
    "analytic_root_sin_p32":
        "analytic root --spec sin --offset 1/2 --interval 0,1 "
        "--precision 32",
    "analytic_root_ln1p_p32":
        "analytic root --spec ln1p --offset 1/4 --interval 0,1/2 "
        "--precision 32",
    "readme_tightness_demo": "tightness demo --zset 1 --depth 5",
    "readme_tightness_bounds":
        "tightness bounds --zset pow2 --step-exp 6 --slope-exp 5",
    # a finite set whose top exponent differs from pow2's
    "tightness_bounds_012":
        "tightness bounds --zset 0,1,2 --step-exp 7 --slope-exp 6",
    "readme_measure_cumulative":
        "measure cumulative --measure product:2/3 --word 1",
    "readme_measure_roundtrip":
        "measure roundtrip --measure from_function:fz_norm:1 --depth 10",
    "readme_trace": "trace --martingale zbettor:1 --word 10100 --precision 5",
    "pullback_conservative_fz_norm_trace":
        "pullback --martingale conservative:pattern:011 --function "
        "fz_norm:0,2,4 --word 0110 --precision 16 --trace",
    "pullback_savings_fz_norm_trace":
        "pullback --martingale savings:pattern:01 --function fz_norm:1,2 "
        "--word 101 --precision 8 --trace",
    # a savings wrapper answered by its prefix fold at m = 536
    "pullback_savings_conservative_zbettor_r128":
        "pullback --martingale savings:conservative:zbettor:1,3 --function "
        "fz_norm:0,2,4 --word 0110 --precision 128",
    # the savings wrapper's integer fold at m = 2072: the reserve is
    # realigned to a deeper exponent at each crossing
    "pullback_savings_conservative_pattern_r512":
        "pullback --martingale savings:conservative:pattern:011 --function "
        "fz_norm:0,2,4 --word 0110 --precision 512",
    # the same at m = 8200, TestMemory's command: a 14.8 KB value, the
    # deepest savings cover the goldens pin
    "pullback_savings_conservative_pattern_r2048":
        "pullback --martingale savings:conservative:pattern:011 --function "
        "fz_norm:0,2,4 --word 0110 --precision 2048",
    # a fold over a fold: the conservative transform of a savings wrapper
    "pullback_conservative_savings_fz_norm_trace":
        "pullback --martingale conservative:savings:pattern:011 --function "
        "fz_norm:0,2,4 --word 0110 --precision 16 --trace",
    # a product fold at m = 1048
    "pullback_conservative_pattern_r256":
        "pullback --martingale conservative:pattern:011 --function "
        "fz_norm:0,2,4 --word 0110 --precision 256",
    # a product fold at m = 8216 and its bracket at depth 8224: the deep
    # end of the end-path walks
    "pullback_conservative_zbettor_r2048":
        "pullback --martingale conservative:zbettor:1,3 --function "
        "fz_norm:0,2,4 --word 0110 --precision 2048",
    "pullback_uniform_fz_pow2":
        "pullback --martingale uniform --function fz:pow2 --word 11 "
        "--precision 8",
}


def config_argv(argv, path):
    """``argv`` with its options moved into a config file written to
    ``path``: the command and its action stay, each ``--key value`` becomes
    ``key = value`` and a bare flag ``--key`` becomes ``key = true``."""
    first = next(i for i, token in enumerate(argv) if token.startswith("--"))
    lines = []
    for token, after in zip(argv[first:], argv[first + 1:] + ["--"]):
        if token.startswith("--"):
            value = "true" if after.startswith("--") else after
            lines.append(f"{token[2:]} = {value}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")
    return argv[:first] + ["--config", str(path)]


def cli_stdout(name, tmp_dir, config=False):
    """Exit code and stdout of ``COMMANDS[name]``, with its options in a
    config file when ``config`` is set."""
    table = Path(tmp_dir) / "step.tbl"
    table.write_text(STEP_TABLE, encoding="utf-8")
    argv = COMMANDS[name].format(table=table).split()
    if config:
        argv = config_argv(argv, Path(tmp_dir) / "run.cfg")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, tmp_path):
    code, out = cli_stdout(name, tmp_path)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_config_file_matches_golden(name, tmp_path):
    # the same command with every option read from a --config file
    code, out = cli_stdout(name, tmp_path, config=True)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            code, out = cli_stdout(name, tmp)
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            (GOLDEN / f"{name}.txt").write_bytes(out.encode())
