"""The seven result records: their fields, immutability, value equality and
serialization, and a start-up that never loads ``dataclasses``."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topoindices import (
    ClosedFormResult,
    EdgePartition,
    Erratum,
    IndexKind,
    Summary,
    VerificationEntry,
    VerificationReport,
    degree_partition,
    errata_report,
    hanoi,
    hanoi_closed_form,
    verify_family,
)
from topoindices.closed_forms import FAMILIES, Family

SRC = Path(__file__).resolve().parents[1] / "src"


def _report():
    return verify_family("dw", kinds=(IndexKind.ABC,), n_range=(3, 3))


# record type -> (a sample instance, its field names in order)
RECORDS = {
    ClosedFormResult: (
        lambda: hanoi_closed_form(IndexKind.ABC, 4),
        ("family", "kind", "n", "variant", "value", "exactness_warning"),
    ),
    Family: (
        lambda: FAMILIES["dw"],
        ("name", "min_n", "max_n", "default_max_n", "build", "closed_form"),
    ),
    EdgePartition: (lambda: degree_partition(hanoi(3)), ("mode", "classes")),
    VerificationEntry: (
        lambda: _report().entries[0],
        ("family", "kind", "n", "oracle_value", "closed_value", "variant", "rel_error", "passed"),
    ),
    Summary: (lambda: _report().summary, ("total", "passed", "failed", "max_rel_error")),
    Erratum: (lambda: errata_report()[0], ("location", "description", "evidence")),
    VerificationReport: (_report, ("entries", "summary", "errata")),
}


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    make, fields = RECORDS[request.param]
    return request.param, make(), fields


def test_field_names_in_order(record):
    cls, instance, fields = record
    assert type(instance) is cls
    assert tuple(inspect.signature(cls).parameters) == fields


def test_attributes_cannot_be_assigned(record):
    _, instance, fields = record
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(instance, name, None)


def test_equal_by_value(record):
    cls, instance, fields = record
    values = {name: getattr(instance, name) for name in fields}
    twin = cls(**values)
    assert twin is not instance
    assert twin == instance
    assert cls(**{**values, fields[0]: object()}) != instance


def test_records_are_tuples(record):
    # the documented shape: a record unpacks and compares like its values
    cls, instance, fields = record
    assert isinstance(instance, tuple)
    assert len(instance) == len(fields)
    assert tuple(instance) == tuple(getattr(instance, name) for name in fields)
    assert instance == tuple(instance)


def test_closed_form_repr():
    assert repr(hanoi_closed_form(IndexKind.ABC, 4)) == (
        "ClosedFormResult(family='hanoi', kind=<IndexKind.ABC: 'abc'>, n=4, "
        "variant=<Variant.PROOF_DERIVED: 'proof_derived'>, value=80.24264068711929, "
        "exactness_warning=False)"
    )


def test_erratum_to_dict_is_a_fresh_copy():
    erratum = errata_report()[0]
    evidence = dict(erratum.evidence)
    first, second = erratum.to_dict(), erratum.to_dict()
    assert first == second == {
        "location": erratum.location,
        "description": erratum.description,
        "evidence": evidence,
    }
    assert first is not second
    assert first["evidence"] is not erratum.evidence
    first["evidence"]["n"] = -1
    first["evidence"]["added"] = 0
    assert erratum.evidence == evidence
    assert second["evidence"] == evidence


def test_startup_leaves_out_dataclasses():
    # -S: no site hook may load the modules first and hide an import of them
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        "import sys, topoindices, topoindices.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'fractions', 'decimal',"
        " 'pathlib', 'urllib.parse', 'ipaddress'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
