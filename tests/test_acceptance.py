"""Acceptance gate: one test per verification criterion.

Each test runs its criterion at the stated (exact) tolerance and prints one
pass/fail line.  Criterion 1 is expected to FAIL on two shipped families:
the catalog reproduces the published tables verbatim, and the tables for
T43-c1 with two or more pairs (EX41 is its 5-dimensional instance) do not
satisfy the fundamental identity -- the encoded alternating form has rank 4
while the identity forces rank <= 2 -- and the prescribed sign-flip mutation
of the simple table is identity-preserving (a diagonal rescaling).  See
test_criterion_1_known_defects for the machine-checked statement of the
defect, and the project notes for the full analysis.
"""

import pytest

from nlie.verify import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def _report(result):
    print()
    print(result.summary())
    for failure in result.failures:
        print(f"    - {failure}")
    return result


def _assert_clean(result, checks_run):
    _report(result)
    assert result.passed, f"criterion {result.criterion}: {list(result.failures)}"
    assert result.checks_run == checks_run


def test_criterion_1_fundamental_identity():
    # faithful to the stated criterion; known-unattainable for two families
    _assert_clean(criterion_1(), 373)


def test_criterion_1_known_defects_are_exactly_the_expected_ones():
    """The criterion-1 failures are precisely the documented defects."""
    result = _report(criterion_1())
    defective = {f.split(":")[0] for f in result.failures}
    for label in defective:
        assert label.startswith("T43-c1") or label == "EX41" \
            or label.startswith("sign-flip"), label
    assert any(lbl == "EX41" for lbl in defective)
    assert any(lbl.startswith("T43-c1") for lbl in defective)
    # checks other than the defective families and the impossible mutation
    # all pass: 373 total checks, 22 failing
    assert result.checks_run - len(result.failures) == 351


def test_criterion_2_alpha_beta_values():
    _assert_clean(criterion_2(), 18)


def test_criterion_3_codimension_bound():
    _assert_clean(criterion_3(), 124)


def test_criterion_4_family_structure_and_distinctness():
    _assert_clean(criterion_4(), 195)


def test_criterion_5_hypo_abelian_codim_1():
    _assert_clean(criterion_5(), 3)


def test_criterion_6_trivial_extensions():
    _assert_clean(criterion_6(), 28)


def test_criterion_7_associated_lie():
    _assert_clean(criterion_7(), 240)


def test_criterion_8_trichotomy():
    _assert_clean(criterion_8(), 7)


def test_criterion_9_property_suites():
    _assert_clean(criterion_9(), 2608)
