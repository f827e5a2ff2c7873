"""Compute all six indices, by edge summation and from partition tables."""

from topoindices import (
    IndexKind,
    compute_from_partition,
    compute_index,
    degree_partition,
    double_wheel,
    hanoi,
    neighbor_sum_partition,
)

g = hanoi(3)
print("hanoi(3), all six indices:")
for kind in IndexKind:
    value = compute_index(g, kind)
    print(f"  {kind.value:<16} = {value:.10f}   (labels: {kind.labeling})")

print()

# Summing per edge and summing per partition class agree bit for bit: both
# add every class's count * term exactly and round once. The partition
# route is how the closed forms are derived.
g = double_wheel(7)
partitions = {p.mode: p for p in (degree_partition(g), neighbor_sum_partition(g))}
print("double_wheel(7), edge sum vs partition sum:")
for kind in IndexKind:
    direct = compute_index(g, kind)
    grouped = compute_from_partition(partitions[kind.labeling], kind)
    print(f"  {kind.value:<16} {direct:.12f} vs {grouped:.12f} "
          f"(diff {abs(direct - grouped):.1e})")
