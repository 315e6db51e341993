"""The text of failing ``verify`` suites, pinned.

Each suite below runs with strategies, shift pairs or tables that break
its checks patched into its zoo.  Its output lines, and every violation
of each of its checks, must equal the lines in ``tests/expected/``: the
martingale and patch text was written before those suites compared
integers, and the pullback text while its chain checks still took the
inner maximum from a max-product table and compared against a per-word
product fold.  To rewrite them after a deliberate change of the
violation text, run ``PYTHONPATH=src python tests/test_verify.py`` and
review the diff.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dymart import verify
from dymart.dyadic import Dyadic
from dymart.funcs import IdentityFn, TableStepFn
from dymart.martingale import (ExactMartingale, allin_zeros,
                               conservative_transform, pattern_bettor,
                               savings_wrapper, uniform)
from dymart.tightness import ZeroInsertionFn, z_bettor

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


def unfair(f0, f1):
    """A one-state product form with the factors f0 and f1, (num, dexp)
    pairs that do not average to one, built past validation."""
    bad = uniform().product_form._replace(
        edges=((((*f0, 0), (*f1, 0)),),))
    name = f"unfair:{F(f0[0], 1 << f0[1])},{F(f1[0], 1 << f1[1])}"
    return ExactMartingale(name, product_form=bad)


def failing_zoos(monkeypatch):
    """Patch failing members into the martingale, pullback and patch
    suites."""
    zoo = verify._martingale_zoo()
    extra = [scrambled(F, "scrambled"),
             scrambled(Dyadic, "scrambled-dyadic"),
             nondyadic_bettor(), savings_wrapper(nondyadic_bettor())]
    monkeypatch.setattr(verify, "_martingale_zoo", lambda: zoo + extra)
    # the domination check damps pattern_bettor("01"); here a scrambled
    # strategy instead, whose damped values leave the dyadics
    bases = verify._domination_bases()
    monkeypatch.setattr(verify, "_domination_bases",
                        lambda: bases[:2] + [scrambled(F, "scrambled:01")])
    # unfair factors break the chain and the block walk's collapse, and a
    # strategy that is not conservative breaks the gap bound
    pairs = verify._shift_pairs()
    monkeypatch.setattr(verify, "_shift_pairs", lambda: pairs + [
        (unfair((3, 1), (3, 1)), IdentityFn(), True),
        (unfair((1, 0), (3, 1)), ZeroInsertionFn("1", scaled=True), False),
        (allin_zeros(), IdentityFn(), True),
        (unfair((4, 0), (4, 0)), IdentityFn(), False),
    ])
    tables = verify._patch_tables()
    # decreasing overall, with values off the dyadics, and a finer grid
    # than the checks' 2^-5 points
    down = TableStepFn(3, [F(1), F(2, 3), F(5, 6), F(1, 3), F(1, 2),
                           F(1, 6), F(1, 5), F(1, 7), F(1, 9)], name="down")
    fine = TableStepFn(7, [F((k * 37) % 129, 128) for k in range(129)],
                       name="fine")
    monkeypatch.setattr(verify, "_patch_tables",
                        lambda: tables + [down, fine])


SUITES = ("martingale", "pullback", "patch")


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


def test_pullback_suite_runs_without_product_forms(monkeypatch):
    # strategies without a product form, and every check of the suite
    # holds.  The first two are savings wrappers of product forms: their
    # shift sums come from the savings block walk.  The last two have
    # neither form, a savings wrapper of a Fraction-valued strategy and
    # the conservative transform of a savings wrapper: theirs come from
    # ``exact`` over each range's Cover, the generic branch
    extra = [
        (savings_wrapper(pattern_bettor("01")), IdentityFn(), False),
        (savings_wrapper(conservative_transform(z_bettor("0,2,4"))),
         ZeroInsertionFn("0,2,4", scaled=True), False),
        (savings_wrapper(nondyadic_bettor()), IdentityFn(), False),
        (conservative_transform(savings_wrapper(pattern_bettor("01"))),
         ZeroInsertionFn("0,2,4", scaled=True), False),
    ]
    assert all(d.product_form is None for d, _, _ in extra)
    assert [d.savings_form is not None for d, _, _ in extra] == \
        [True, True, False, False]
    pairs = verify._shift_pairs()
    monkeypatch.setattr(verify, "_shift_pairs", lambda: pairs + extra)
    ok, lines = verify.run_suite("pullback", 8)
    assert ok, lines


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        failing_zoos(mp)
        for suite in SUITES:
            (EXPECTED / f"verify_{suite}_failing_depth5.txt").write_text(
                suite_lines(suite), encoding="utf-8")
    sys.exit(0)
