"""The verifier catches every coarse mutant of the closed forms.

A mutant is ``dw_closed_form`` or ``hanoi_closed_form`` recompiled from its
source, ``@_checked`` decorator included, with one change: a number raised
by 1, or one of ``+ - * /`` swapped for its inverse. It is compiled into
the module namespace, so it replaces the module-level name that
``FAMILIES`` looks up on every call, and the original is put back after.
A mutant is caught when ``verify_all()`` reports another failure count or
other errata than the original does, or stops with an arithmetic error.
"""

import ast
import inspect
import textwrap

import pytest

from topoindices import closed_forms, verify_all

INVERSE = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}


def sites(tree: ast.AST) -> list[ast.AST]:
    """The nodes a mutant changes, in ``ast.walk`` order: numeric constants
    and the four arithmetic operators."""
    return [
        node
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        )
        or (isinstance(node, ast.BinOp) and type(node.op) in INVERSE)
    ]


def source(name: str) -> str:
    return textwrap.dedent(inspect.getsource(getattr(closed_forms, name)))


def mutate(name: str, index: int) -> ast.Module:
    """The source of ``name`` with its ``index``-th site changed."""
    tree = ast.parse(source(name))
    node = sites(tree)[index]
    if isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = INVERSE[type(node.op)]()
    return tree


def describe(node: ast.AST) -> str:
    if isinstance(node, ast.Constant):
        change = f"{node.value}->{node.value + 1}"
    else:
        change = f"{type(node.op).__name__}->{INVERSE[type(node.op)].__name__}"
    return f"{node.lineno}.{node.col_offset}:{change}"


MUTANTS = [
    pytest.param(name, index, id=f"{name}:{describe(node)}")
    for name in ("dw_closed_form", "hanoi_closed_form")
    for index, node in enumerate(sites(ast.parse(source(name))))
]


def outcome():
    """The failure count and errata of ``verify_all()``, or the name of the
    error that stops it: a mutant may divide by zero or leave the domain of
    ``math.sqrt``, and a run that cannot finish has not passed."""
    try:
        report = verify_all()
    except (ArithmeticError, ValueError) as error:
        return type(error).__name__
    return report.summary.failed, report.errata


@pytest.fixture(scope="module")
def original():
    failed, errata = result = outcome()
    assert failed == 0
    assert len(errata) == 3
    return result


def test_every_operator_and_number_is_a_site():
    # a site list that missed the bodies would make every test below vacuous
    assert len(MUTANTS) > 150


@pytest.mark.parametrize("name, index", MUTANTS)
def test_mutant_is_caught(original, name, index):
    saved = getattr(closed_forms, name)
    try:
        exec(compile(mutate(name, index), f"<{name} mutant>", "exec"), vars(closed_forms))
        assert getattr(closed_forms, name) is not saved
        assert outcome() != original
    finally:
        setattr(closed_forms, name, saved)
