"""Acceptance gate: one test per criterion, each at its stated tolerance
(exact values) and wall-clock budget.  Run with `pytest tests/test_acceptance.py -v`
for one line per criterion; a PASS/FAIL line is also printed per criterion.
"""

import pytest

from nesthilb.verify import FIXTURES, run_verify

CRITERIA = [
    (1, "betti_determinantal",
     "determinantal ideal resolves as 8 / 12+1 / 4+4 / 2 over QQ in < 10 s"),
    (2, "nested_tangent_pair",
     "family pair has t(-1)=4, nothing below, theta rank 4, certified, QQ < 30 s"),
    (3, "family_slice_tnt",
     "family nestings certified for 4<=n<=8, 2<=s<=n-2 over F_32003 in < 10 min"),
    (4, "hilbert_families",
     "profiles (n,n,...) and (1,n,2) for 4<=n<=15 in < 1 min"),
    (5, "dimension_formulas",
     "two-step 44, smoothable 44, gap identity over 4<=n<=30, instant"),
    (6, "sharpness_degrees",
     "explicit monomial pair has (t(-2),t(-3),t(-4)) = (10,8,0) in < 1 min"),
    (7, "sandwich_jump",
     "sandwich jump 7*18=126 in degree -1 with nonnegative part unchanged, < 5 min"),
    (8, "prepend_max_formula",
     "t(-1)[m > I] = n + h(1) on ten seeded TNT fixtures, exact"),
    (9, "eight_points",
     "eight points: length 8, (1,4,3), TNT certified, cone ideal contained, < 30 s"),
    (10, "property_suites",
     "oracle equivalence x25, Euler identity, commutation, field consistency"),
]


@pytest.mark.parametrize("num,name,desc", CRITERIA,
                         ids=[f"c{num:02d}_{name}" for num, name, _ in CRITERIA])
def test_criterion(num, name, desc):
    results = run_verify([name])
    assert len(results) == 1
    r = results[0]
    status = "PASS" if r.passed else "FAIL"
    print(f"{status} criterion {num:2d} [{name}] {r.elapsed:6.2f}s"
          f" (budget {r.budget:.0f}s): {desc}")
    assert r.passed, f"criterion {num} failed: {r.detail}"
    assert r.elapsed <= r.budget, f"criterion {num} over budget: {r.elapsed}"


def test_all_criteria_are_covered():
    names = {name for _, name, _ in CRITERIA}
    assert names == {name for name, *_ in FIXTURES}
