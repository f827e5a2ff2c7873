"""The double-wheel abc4 discrepancy: stated vs derived formula vs oracle.

The published statement of the abc4 closed form repeats the abc formula
verbatim. Its own derivation ends at a different expression, and brute
force over the actual graph sides with the derivation. This script shows
the gap is large and does not shrink with n.
"""

from topoindices import (
    IndexKind,
    Variant,
    compute_index,
    double_wheel,
    dw_closed_form,
    errata_report,
    relative_error,
)

print(f"{'n':>4} {'as_stated':>14} {'proof_derived':>14} {'oracle':>14} {'gap':>8}")
for n in (3, 4, 6, 10, 20, 40, 64):
    stated = dw_closed_form(IndexKind.ABC4, n, Variant.AS_STATED).value
    derived = dw_closed_form(IndexKind.ABC4, n, Variant.PROOF_DERIVED).value
    oracle = compute_index(double_wheel(n), IndexKind.ABC4)
    gap = relative_error(stated, oracle)
    print(f"{n:>4} {stated:>14.6f} {derived:>14.6f} {oracle:>14.6f} {gap:>7.1%}")

print()
print("full errata report:")
for erratum in errata_report():
    print(f"- {erratum.location}")
    print(f"    {erratum.description}")
    if erratum.evidence:
        print(f"    evidence: {erratum.evidence}")
