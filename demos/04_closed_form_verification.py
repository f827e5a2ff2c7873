"""Verify every closed form against brute force over the default ranges."""

from topoindices import DEFAULT_TOLERANCE, verify_all

report = verify_all()

print(f"checks run : {report.summary.total}")
print(f"passed     : {report.summary.passed}")
print(f"failed     : {report.summary.failed}")
print(f"worst error: {report.summary.max_rel_error:.3e} (tolerance {DEFAULT_TOLERANCE})")

print()
print("sample entries:")
for entry in report.entries[::60]:
    print(f"  {entry.family:<6} {entry.kind.value:<16} n={entry.n:<3} "
          f"oracle={entry.oracle_value:.9g} closed={entry.closed_value:.9g} "
          f"rel_error={entry.rel_error:.2e}")

print()
print("errata carried by the report:")
for erratum in report.errata:
    print(f"  - {erratum.location}")
