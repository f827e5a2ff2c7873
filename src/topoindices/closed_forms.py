"""Closed-form expressions for the six indices on both graph families, and
the registry of those families.

Each formula is implemented exactly as printed in its published derivation
(no algebraic rearrangement) so every term can be audited against the
source text. The double-wheel abc4 formula exists in two variants: the one
the statement prints, which duplicates the plain abc formula, and the one
its own derivation arrives at. Brute force confirms the derived variant,
so that is the default; the stated variant is kept for the errata report.

:data:`FAMILIES` is the registry: one :class:`Family` record per family,
under its name. The key is the only place that name is written, and the
record the only place its floors, size cap and default range are.
The CLI, :func:`closed_form` and :mod:`topoindices.verify` read it, and
:func:`get_family` is the one lookup that rejects an unknown name.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from collections.abc import Callable
from typing import NamedTuple

from .generators import DW_MAX_N, HANOI_MAX_N, _require_int, double_wheel, hanoi
from .graph import Graph
from .indices import IndexKind, _require_kind
from .partition import NEIGHBOR_SUM, _lookup

DW = "dw"
HANOI = "hanoi"

# Largest integer a double represents exactly; 3**(n+1) crosses it at n = 33.
_EXACT_FLOAT_LIMIT = 2**53

# Largest n with 3**n below the largest double (646); beyond it every Hanoi value overflows.
_HANOI_FLOAT_MAX_N = int(math.log(sys.float_info.max, 3))


class Variant(enum.Enum):
    AS_STATED = "as_stated"
    PROOF_DERIVED = "proof_derived"

    @classmethod
    def parse(cls, name: str) -> Variant:
        """Look up a variant by name; hyphens, case and surrounding spaces are forgiven."""
        return _lookup("variant", name, {variant.value: variant for variant in cls})


class ClosedFormResult(NamedTuple):
    family: str
    kind: IndexKind
    n: int
    variant: Variant
    value: float
    # True when 3**(n+1) is too large to convert to float exactly, so the
    # evaluated value carries conversion rounding on top of arithmetic error.
    exactness_warning: bool


def _checked(family: str):
    """Give a family's closed form the checks both families share: ``TypeError``
    unless ``kind`` is an :class:`IndexKind`, ``variant`` a :class:`Variant`
    and ``n`` an ``int`` (not a ``bool``), ``ValueError`` when ``n`` is
    below the family's floor for ``kind``, the form divides by zero at ``n``,
    or the value overflows a float."""

    def decorate(formula):
        @functools.wraps(formula)
        def checked(kind: IndexKind, n: int, variant: Variant = Variant.PROOF_DERIVED):
            # each formula's last branch takes any kind or variant it did not name
            _require_kind(kind)
            if not isinstance(variant, Variant):
                raise TypeError(f"variant must be a Variant member, got {variant!r}")
            _require_int(n)
            floor = FAMILIES[family].min_n(kind)
            if n < floor:
                raise ValueError(f"{family} {kind.value} closed form needs n >= {floor}, got {n}")
            try:
                result = formula(kind, n, variant)
                if math.isfinite(result.value):
                    return result
            except OverflowError:
                pass
            except ZeroDivisionError:
                raise ValueError(
                    f"{family} {kind.value} closed form is undefined at n = {n}"
                ) from None
            raise ValueError(f"{family} {kind.value} closed form overflows a float at n = {n}")

        return checked

    return decorate


@_checked(DW)
def dw_closed_form(
    kind: IndexKind, n: int, variant: Variant = Variant.PROOF_DERIVED
) -> ClosedFormResult:
    """Closed-form index value for the double-wheel family, n >= 3.

    ``variant`` only matters for ``abc4``; for every other kind the two
    variants are the same expression.
    """
    if kind is IndexKind.RANDIC:
        value = 2 * n / 3 + 2 * n / math.sqrt(6 * n)
    elif kind is IndexKind.SUM_CONNECTIVITY:
        value = 2 * n / math.sqrt(6) + 2 * n / math.sqrt(3 + 2 * n)
    elif kind is IndexKind.ABC:
        value = 4 * n / 3 + 2 * n * math.sqrt((1 + 2 * n) / (6 * n))
    elif kind is IndexKind.GA:
        value = 2 * n + 4 * n * math.sqrt(6 * n) / (3 + 2 * n)
    elif kind is IndexKind.ABC4:
        if variant is Variant.AS_STATED:
            # Printed statement; identical to the abc formula above and
            # contradicted by brute force. See the errata report.
            value = 4 * n / 3 + 2 * n * math.sqrt((1 + 2 * n) / (6 * n))
        else:
            value = (2 * n / (2 * n + 6)) * math.sqrt(4 * n + 10) + 2 * n * math.sqrt(
                (2 * n + 1) / (3 * n**2 + 9 * n)
            )
    else:  # GA5
        value = 2 * n + 4 * n * math.sqrt(3 * n**2 + 9 * n) / (4 * n + 3)
    return ClosedFormResult(DW, kind, n, variant, value, False)


@_checked(HANOI)
def hanoi_closed_form(
    kind: IndexKind, n: int, variant: Variant = Variant.PROOF_DERIVED
) -> ClosedFormResult:
    """Closed-form index value for the Hanoi family.

    Every Hanoi formula has a single printed form, so the two variants
    evaluate identically; the parameter exists for API symmetry. The
    ``3**(n + 1)`` term is computed in exact integer arithmetic and
    converted once, with ``exactness_warning`` set when the conversion
    rounds (n >= 33). The value overflows a float from n = 646 or 647,
    depending on the kind, and evaluation then raises ``ValueError``.
    """
    if n > _HANOI_FLOAT_MAX_N:
        # Fail before building an exact power of 3 that could fill memory.
        raise OverflowError
    p = 3 ** (n + 1)
    if kind is IndexKind.RANDIC:
        value = math.sqrt(6) + p / 6 - 5 / 2
    elif kind is IndexKind.SUM_CONNECTIVITY:
        value = 6 / math.sqrt(5) + (p - 15) / (2 * math.sqrt(6))
    elif kind is IndexKind.ABC:
        value = 3 * math.sqrt(2) + 3**n - 5
    elif kind is IndexKind.GA:
        value = 12 * math.sqrt(6) / 5 + (p - 15) / 2
    elif kind is IndexKind.ABC4:
        value = 3 * math.sqrt(7 / 32) + 6 * math.sqrt(5 / 24) + 2 * p / 9 - 13 / 3
    else:  # GA5
        value = 12**1.5 / 7 + 3 + 72 * math.sqrt(2) / 17 + (p - 33) / 2
    return ClosedFormResult(HANOI, kind, n, variant, value, p > _EXACT_FLOAT_LIMIT)


class Family(NamedTuple):
    """One graph family: its generator, closed forms and size limits. Its
    name is its key in :data:`FAMILIES`.

    ``min_n(kind)`` is the smallest ``n`` at which the closed form for
    ``kind`` holds. ``max_n`` is the generator's size cap; closed forms are
    not capped. Each kind's default verification range is
    ``(min_n(kind), default_max_n)``.
    """

    min_n: Callable[[IndexKind], int]
    max_n: int
    default_max_n: int
    build: Callable[[int], Graph]
    closed_form: Callable[[IndexKind, int, Variant], ClosedFormResult]


# ``build`` and ``closed_form`` look the generator and the closed form up by
# their module-level names on every call, not through a stored function
# object: a wrapper bound to those names later (perfbench's tracer rebinds
# module globals to time each call) must see the calls made through here.
FAMILIES: dict[str, Family] = {
    DW: Family(
        min_n=lambda kind: 3,
        max_n=DW_MAX_N,
        default_max_n=64,
        build=lambda n: double_wheel(n),
        closed_form=lambda kind, n, variant: dw_closed_form(kind, n, variant),
    ),
    HANOI: Family(
        # The degree partition stabilizes at n = 2, the neighbor-sum partition
        # at n = 3 (at n = 2 the corner triangles touch and the edge classes
        # differ), so the neighbor-sum kinds need n >= 3.
        min_n=lambda kind: 3 if kind.labeling == NEIGHBOR_SUM else 2,
        max_n=HANOI_MAX_N,
        default_max_n=8,
        build=lambda n: hanoi(n),
        closed_form=lambda kind, n, variant: hanoi_closed_form(kind, n, variant),
    ),
}


def get_family(name: str) -> Family:
    """The registry record for ``name``; ``ValueError`` lists the known names."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r} (known: {', '.join(FAMILIES)})")
    return FAMILIES[name]


def closed_form(
    family: str, kind: IndexKind, n: int, variant: Variant = Variant.PROOF_DERIVED
) -> ClosedFormResult:
    """Dispatch to the closed form of the family named ``family``."""
    return get_family(family).closed_form(kind, n, variant)
