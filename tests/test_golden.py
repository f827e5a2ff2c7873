"""Bit-exact regression check against ``tests/data/golden_values.json``.

The fixture holds, for ``hanoi(1..10)`` and ``double_wheel(3..40, 1000,
20000)``, the ``float.hex`` of all six brute-force index values and both
partition tables. It was written once by an earlier graph layout, so a
change of layout that shifts a single bit of any value fails here.

To print the fixture from the code on ``PYTHONPATH``::

    python tests/test_golden.py > tests/data/golden_values.json
"""

import json
import sys
from pathlib import Path

import pytest

from topoindices import (
    IndexKind,
    compute_index,
    degree_partition,
    double_wheel,
    hanoi,
    neighbor_sum_partition,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_values.json"

BUILDS = {
    **{f"hanoi({n})": (hanoi, n) for n in range(1, 11)},
    **{f"double_wheel({n})": (double_wheel, n) for n in (*range(3, 41), 1000, 20000)},
}


def record(name: str) -> dict:
    build, n = BUILDS[name]
    g = build(n)
    return {
        "values": {kind.value: compute_index(g, kind).hex() for kind in IndexKind},
        "partitions": {
            p.mode: [[lo, hi, count] for (lo, hi), count in p.sorted_items()]
            for p in (degree_partition(g), neighbor_sum_partition(g))
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_build(golden):
    assert list(golden) == list(BUILDS)


@pytest.mark.parametrize("name", list(BUILDS))
def test_values_and_partitions_match_fixture(golden, name):
    assert record(name) == golden[name]


if __name__ == "__main__":
    # one graph per line
    lines = [f"{json.dumps(name)}: {json.dumps(record(name))}" for name in BUILDS]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
