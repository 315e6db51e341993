"""The text of failing ``verify`` suites, pinned.

Each suite below runs with strategies or tables that break its checks
patched into its zoo.  Its output lines, and every violation of each of
its checks, must equal the lines in ``tests/expected/``, written before
the suites compared integers.  To rewrite them after a deliberate change
of the violation text, run ``PYTHONPATH=src python tests/test_verify.py``
and review the diff.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dymart import verify
from dymart.dyadic import Dyadic
from dymart.funcs import TableStepFn
from dymart.martingale import ExactMartingale, savings_wrapper

from helpers import nondyadic_bettor

EXPECTED = Path(__file__).parent / "expected"
F = Fraction


def scrambled(reply, name):
    """Values in [-1/4, 7/4] with d(λ) = 9/8: every kind of martingale
    violation occurs, certified conservative so the ratio bounds run."""
    return ExactMartingale(
        name, lambda w: reply(F((5 * w.k + 3 * w.n) % 9 - 1, 4) if w.n
                              else F(9, 8)),
        conservative=True)


def failing_zoos(monkeypatch):
    """Patch failing members into the martingale and patch suites."""
    zoo = verify._martingale_zoo()
    extra = [scrambled(F, "scrambled"),
             scrambled(Dyadic.from_fraction, "scrambled-dyadic"),
             nondyadic_bettor(), savings_wrapper(nondyadic_bettor())]
    monkeypatch.setattr(verify, "_martingale_zoo", lambda: zoo + extra)
    # the domination check damps pattern_bettor("01"); here a scrambled
    # strategy instead, whose damped values leave the dyadics
    monkeypatch.setattr(verify, "pattern_bettor",
                        lambda pattern: scrambled(F, f"scrambled:{pattern}"))
    tables = verify._patch_tables()
    # decreasing overall, with values off the dyadics, and a finer grid
    # than the checks' 2^-5 points
    down = TableStepFn(3, [F(1), F(2, 3), F(5, 6), F(1, 3), F(1, 2),
                           F(1, 6), F(1, 5), F(1, 7), F(1, 9)], name="down")
    fine = TableStepFn(7, [F((k * 37) % 129, 128) for k in range(129)],
                       name="fine")
    monkeypatch.setattr(verify, "_patch_tables",
                        lambda: tables + [down, fine])


SUITES = ("martingale", "patch")


def suite_lines(suite):
    """The suite's output at depth 5, then every violation of each of its
    checks, past the ten the output shows."""
    ok, lines = verify.run_suite(suite, 5)
    assert not ok
    for check, runner in verify.SUITES[suite]:
        lines.append(f"-- all violations of {suite}.{check}")
        lines.extend(v.line() for v in runner(5).violations)
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("suite", SUITES)
def test_failure_text_pinned(suite, monkeypatch):
    failing_zoos(monkeypatch)
    want = (EXPECTED / f"verify_{suite}_failing_depth5.txt").read_text(
        encoding="utf-8")
    assert suite_lines(suite) == want


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        failing_zoos(mp)
        for suite in SUITES:
            (EXPECTED / f"verify_{suite}_failing_depth5.txt").write_text(
                suite_lines(suite), encoding="utf-8")
    sys.exit(0)
