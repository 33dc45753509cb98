"""Every suite's summary over a matrix of depths, pinned as literal text.

Each block below is the ``summary_lines()`` of one suite at one depth, as
``verify --suite NAME --max DEPTH`` prints them (seed 0).  A change that moves
a check count, a violation or a finding at any of these depths fails the case
for that suite and depth, and the diff names the line that moved.
"""

import pytest

from schroeder import verify

PINNED = """
[counts 1]
suite=counts checks=13615 violations=0

[counts 2]
suite=counts checks=13619 violations=0

[counts 8]
suite=counts checks=13643 violations=0

[counts 12]
suite=counts checks=13659 violations=0

[differential 1]
suite=differential checks=3 violations=1
violation: upper bound 2k attained in range
finding: lower bound attained at (1,)

[differential 2]
suite=differential checks=4 violations=0
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)

[differential 3]
suite=differential checks=7 violations=0
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)

[differential 4]
suite=differential checks=13 violations=0
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)

[differential 5]
suite=differential checks=23 violations=0
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)

[differential 6]
suite=differential checks=38 violations=0
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)

[differential 7]
suite=differential checks=66 violations=1
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 8]
suite=differential checks=121 violations=1
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 9]
suite=differential checks=212 violations=1
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 10]
suite=differential checks=348 violations=1
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 11]
suite=differential checks=579 violations=3
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 12]
suite=differential checks=985 violations=3
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 13]
suite=differential checks=1615 violations=3
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 14]
suite=differential checks=2561 violations=3
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 15]
suite=differential checks=4101 violations=5
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (8, 7): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 16]
suite=differential checks=6586 violations=5
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (8, 7): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 4, 3): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 17]
suite=differential checks=10327 violations=6
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (8, 7): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 6, 5): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[differential 18]
suite=differential checks=15892 violations=6
violation: differential bounds [witness: degree bounds fail at (4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 5): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (8, 7): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (4, 4, 4, 3): k=1, l=3, want [1,2]]
violation: differential bounds [witness: degree bounds fail at (6, 6, 5): k=1, l=3, want [1,2]]
finding: lower bound attained at (1,)
finding: upper bound attained at (2,)
finding: every up-degree in range satisfies the corrected bound l <= 2k+1; stacked blocks (2a, 2a-1) attain it

[rsk 1]
suite=rsk checks=6 violations=0
finding: insertion outputs standard with equal shapes for all n <= 1
finding: hook certification clean for all n <= 1

[rsk 2]
suite=rsk checks=13 violations=0
finding: insertion outputs standard with equal shapes for all n <= 2
finding: hook certification clean for all n <= 2

[rsk 3]
suite=rsk checks=29 violations=0
finding: insertion outputs standard with equal shapes for all n <= 3
finding: hook certification clean for all n <= 3

[rsk 4]
suite=rsk checks=83 violations=0
finding: insertion outputs standard with equal shapes for all n <= 4
finding: hook certification: 4 permutations with hook-shaped insertion tableau but no rooted-shuffle decomposition through n <= 4 (first [(1, 4, 2, 3), (2, 4, 1, 3), (4, 1, 2, 3)]); the rooted-shuffle characterization of hook shapes fails under the strict reading

[rsk 5]
suite=rsk checks=331 violations=0
finding: insertion outputs standard with equal shapes for all n <= 5
finding: hook certification: 56 permutations with hook-shaped insertion tableau but no rooted-shuffle decomposition through n <= 5 (first [(1, 4, 2, 3), (2, 4, 1, 3), (4, 1, 2, 3)]); the rooted-shuffle characterization of hook shapes fails under the strict reading

[rsk 6]
suite=rsk checks=1783 violations=0
finding: insertion outputs standard with equal shapes for all n <= 6
finding: hook certification: 544 permutations with hook-shaped insertion tableau but no rooted-shuffle decomposition through n <= 6 (first [(1, 4, 2, 3), (2, 4, 1, 3), (4, 1, 2, 3)]); the rooted-shuffle characterization of hook shapes fails under the strict reading

[rsk 7]
suite=rsk checks=11879 violations=0
finding: insertion outputs standard with equal shapes for all n <= 7
finding: hook certification: 4024 permutations with hook-shaped insertion tableau but no rooted-shuffle decomposition through n <= 7 (first [(1, 4, 2, 3), (2, 4, 1, 3), (4, 1, 2, 3)]); the rooted-shuffle characterization of hook shapes fails under the strict reading

[lattice 1]
suite=lattice checks=20261 violations=0

[lattice 8]
suite=lattice checks=22565 violations=0

[sav 1]
suite=sav checks=21 violations=0

[sav 2]
suite=sav checks=112 violations=1
violation: labeled strong-avoider count of the vee is the Bell number at n=2 [witness: got 3, Bell 2]

[sav 3]
suite=sav checks=1219 violations=2
violation: labeled strong-avoider count of the vee is the Bell number at n=2 [witness: got 3, Bell 2]
violation: labeled strong-avoider count of the vee is the Bell number at n=3 [witness: got 10, Bell 5]

[sav 4]
suite=sav checks=4185 violations=3
violation: labeled strong-avoider count of the vee is the Bell number at n=2 [witness: got 3, Bell 2]
violation: labeled strong-avoider count of the vee is the Bell number at n=3 [witness: got 10, Bell 5]
violation: labeled strong-avoider count of the vee is the Bell number at n=4 [witness: got 41, Bell 15]

[sav 5]
suite=sav checks=14835 violations=4
violation: labeled strong-avoider count of the vee is the Bell number at n=2 [witness: got 3, Bell 2]
violation: labeled strong-avoider count of the vee is the Bell number at n=3 [witness: got 10, Bell 5]
violation: labeled strong-avoider count of the vee is the Bell number at n=4 [witness: got 41, Bell 15]
violation: labeled strong-avoider count of the vee is the Bell number at n=5 [witness: got 196, Bell 52]

[interval-theorem 1]
suite=interval-theorem checks=922 violations=0

[interval-theorem 2]
suite=interval-theorem checks=926 violations=0

[interval-theorem 3]
suite=interval-theorem checks=935 violations=0

[interval-theorem 4]
suite=interval-theorem checks=958 violations=0

[interval-theorem 5]
suite=interval-theorem checks=1029 violations=0
"""


def _blocks(text):
    """Map (suite, depth) to the summary lines of its block."""
    blocks = {}
    for block in text.strip().split("\n\n"):
        header, *lines = block.split("\n")
        suite, depth = header.strip("[]").split()
        blocks[(suite, int(depth))] = lines
    return blocks


EXPECTED = _blocks(PINNED)


@pytest.mark.parametrize(
    "suite, depth", sorted(EXPECTED), ids=[f"{s}-{d}" for s, d in sorted(EXPECTED)]
)
def test_summary_matches_pinned_text(suite, depth):
    assert verify.run_suite(suite, depth).summary_lines() == EXPECTED[(suite, depth)]


def test_matrix_covers_every_suite():
    assert {suite for suite, _ in EXPECTED} == set(verify.SUITES)
