"""Op-level exactness: every numpy vector handler vs ``Operation.evaluate``.

The byte-identity contract of :mod:`repro.semantics.vector` bottoms out
in ``_VECTOR_HANDLERS``: each handler, driven through the compiled tape
instruction (so the ``_Fallback`` → exact-Python path is included),
must agree with the interpreter's value function on every lane.  The
grids below sweep signed, mixed-sign and int64-boundary operands plus
UNDEF, and assert per lane that

* a defined interpreter result that fits in 64 bits comes back
  identical,
* an UNDEF interpreter result comes back undefined,
* a result that cannot be *stored* in 64 bits raises
  :class:`~repro.errors.ExecutionError` instead of wrapping.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.datapath.operations import get_operation
from repro.errors import ExecutionError
from repro.semantics.values import UNDEF
from repro.semantics.vector import (
    _INT64_MAX,
    _INT64_MIN,
    _VECTOR_HANDLERS,
    _vector_instruction,
)

#: Signed and boundary operands: zero neighbourhoods, the mul bound
#: (2**31), 2**53 (where a float quotient stops being exact), the add
#: bound (2**62) and the int64 limits — each straddled from both sides —
#: plus UNDEF.  The operands above 2**53 include quotients a
#: float-rounded ``int(a / b)`` gets wrong, e.g. -(2**60 + 1) / 3.
BOUNDARY = [
    0, 1, -1, 2, -2, 3, -3, 7, -7, 10, -13, 63, -64, 1000,
    (1 << 31) - 1, 1 << 31, -(1 << 31) - 1,
    (1 << 53) - 1, (1 << 53) + 1, -(1 << 53), -(1 << 53) - 3,
    (1 << 55) + 5, -(1 << 58) + 7,
    (1 << 60) - 1, -(1 << 60) + 3, -(1 << 60) - 1,
    (1 << 61) + 11,
    (1 << 62) - 1, 1 << 62, -(1 << 62),
    _INT64_MAX, _INT64_MIN, _INT64_MIN + 1,
    UNDEF,
]


#: Shift amounts for ``shl``: a 2**62 shift count would make even the
#: expected Python bignum astronomical, so straddle the interesting
#: bounds (sign, the 30-bit fast-path bound, the word width) instead.
SHIFT_AMOUNTS = [UNDEF, -64, -1, 0, 1, 5, 29, 30, 31, 62, 63, 64, 100]


def _lanes_for(op):
    if op.arity == 1:
        return [(v,) for v in BOUNDARY]
    if op.name == "shl":
        return list(itertools.product(BOUNDARY, SHIFT_AMOUNTS))
    if op.arity == 2:
        return list(itertools.product(BOUNDARY, BOUNDARY))
    assert op.arity == 3  # mux
    pairs = list(zip(BOUNDARY, reversed(BOUNDARY)))
    return [(s, a, b) for s in (0, 1, -5, UNDEF) for a, b in pairs]


def _run_instruction(op, lanes):
    """Drive one compiled numpy tape entry over explicit operand lanes."""
    arity = op.arity
    n = len(lanes)
    values = np.zeros((arity + 1, n), dtype=np.int64)
    defined = np.zeros((arity + 1, n), dtype=bool)
    for k in range(arity):
        for j, lane in enumerate(lanes):
            if lane[k] is not UNDEF:
                values[k, j] = lane[k]
                defined[k, j] = True
    instr = _vector_instruction(op, arity, tuple(range(arity)))
    instr(values, defined, np.arange(n))
    return values[arity], defined[arity]


def _storable(value):
    return value is UNDEF or _INT64_MIN <= value <= _INT64_MAX


def _assert_lanes_match(op, lanes):
    expected = [op.evaluate(*lane) for lane in lanes]
    in_range = [(lane, exp) for lane, exp in zip(lanes, expected)
                if _storable(exp)]
    vals, defs = _run_instruction(op, [lane for lane, _ in in_range])
    for j, (lane, exp) in enumerate(in_range):
        if exp is UNDEF:
            assert not defs[j], f"{op.name}{lane}: expected UNDEF"
        else:
            assert defs[j], f"{op.name}{lane}: unexpectedly UNDEF"
            assert int(vals[j]) == exp, (
                f"{op.name}{lane}: got {int(vals[j])}, want {exp}")
    return [lane for lane, exp in zip(lanes, expected)
            if not _storable(exp)]


@pytest.mark.parametrize("name", sorted(_VECTOR_HANDLERS))
def test_handler_matches_interpreter_on_boundary_grid(name):
    op = get_operation(name)
    overflowing = _assert_lanes_match(op, _lanes_for(op))
    # a result too wide for the register file must raise, never wrap
    for lane in overflowing:
        with pytest.raises(ExecutionError, match="64-bit"):
            _run_instruction(op, [lane])


@pytest.mark.parametrize("name", ["div", "mod"])
def test_divmod_mixed_sign_sweep(name):
    """Dense deterministic sweep of the pure-vector (no fallback) path."""
    op = get_operation(name)
    rng = np.random.default_rng(0xD17)
    small = list(zip(rng.integers(-1000, 1001, size=400).tolist(),
                     rng.integers(-9, 10, size=400).tolist()))
    wide = list(zip(rng.integers(-(1 << 52), 1 << 52, size=200).tolist(),
                    rng.integers(-(1 << 52), 1 << 52, size=200).tolist()))
    leftover = _assert_lanes_match(op, small + wide)
    assert not leftover  # div/mod of in-range operands always fits


def test_divmod_are_exact_above_the_float_bound():
    """div truncates toward zero and mod takes the dividend's sign,
    exactly, on every grid pair: a float-rounded ``int(a / b)`` gave
    -384307168202282304 for -(2**60 + 1) / 3 and -65 for its remainder."""
    div, mod = get_operation("div"), get_operation("mod")
    assert div.evaluate(-(2**60 + 1), 3) == -384307168202282325
    assert mod.evaluate(-(2**60 + 1), 3) == -2
    assert div.evaluate((1 << 60) - 1, -2) == -((1 << 59) - 1)
    for a, b in itertools.product(BOUNDARY, BOUNDARY):
        if a is UNDEF or b is UNDEF or b == 0:
            continue
        quotient = int(Fraction(a, b))  # int() of a Fraction truncates
        assert div.evaluate(a, b) == quotient, (a, b)
        assert mod.evaluate(a, b) == a - b * quotient, (a, b)
    pairs = [(-(2**60 + 1), 3), ((1 << 60) - 1, -2)]
    for op in (div, mod):
        vals, defs = _run_instruction(op, pairs)
        assert defs.all()
        assert [int(v) for v in vals] == [op.evaluate(*p) for p in pairs]
