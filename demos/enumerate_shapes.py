"""
Enumerating admissible fixed point data by extremal dimensions
==============================================================

The pair of dimensions of the extremal components pins down the whole
case analysis. Five pairs admit solutions; the other five die on Betti
number budgets before any search begins.
"""

from semifree8 import admissible_dim_pairs, enumerate_all

# which (dim minimum, dim maximum) pairs can occur at all
table = admissible_dim_pairs()
for shape, assessment in sorted(table.items()):
    verdict = "admissible" if assessment.admissible else "rejected"
    print("shape %s: %s" % (shape, verdict))
    for item in assessment.trace:
        if item.verdict == "FAIL":
            print("    " + item.line())
print()

# the per-shape enumeration sweeps integer parameter boxes and applies
# the rule chain; what survives coalesces into parameterized families
for shape, result in enumerate_all().items():
    print("== shape %s ==" % (shape,))
    for fam in result.families:
        print("  family %s: Fano index %d, b4 = %d + n2 with n2 in [%d, %d]"
              % (fam.key, fam.iota, fam.b4_base, fam.n2_min, fam.n2_max))
        print("    " + fam.summary)
    for rej in result.rejections:
        print("  rejected by %s: %s" % (rej.rule_id, rej.detail))
    print()

# each family instantiates to concrete data; members re-verify cleanly
from semifree8 import enumerate_case, verification_report

# at n2 = 6 the balanced c2 split (4, 4) is the catalog entry x8-six-points
fam = enumerate_case((4, 4)).families[0]
data = fam.instantiate(6, split=(4, 4))
print("a member of %s with b4 = %d verifies: %s"
      % (fam.key, fam.b4(6), verification_report(data).ok))
