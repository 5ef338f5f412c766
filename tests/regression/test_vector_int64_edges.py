"""Pinned counterexamples: numpy-engine int64 edges (review of PR 6).

Shrunk from differential sweeps against the interpreter:

* mixed-sign ``mod``/``div``: the vectorised remainder was adjusted in
  the wrong direction, so ``-7 mod 2`` came out ``3`` instead of ``-1``;
* ``add`` at exactly ``2**62``: the overflow guard used ``>``, so
  ``2**62 + 2**62`` wrapped silently to INT64_MIN;
* ``np.abs(INT64_MIN)`` wraps to itself, so magnitude guards built on
  it let ``neg``/``abs``/``div`` of INT64_MIN wrap silently;
* ``div`` above ``2**53``: the interpreter once computed ``int(a / b)``
  through a float; both now truncate exactly, and the numpy engine
  keeps its integer quotient there (only ``INT64_MIN // -1`` falls
  back, since that quotient overflows int64).

Every case runs >= 8 lanes so :class:`VectorSimulator` auto-selects the
numpy engine, and asserts byte-identical traces against the interpreter
— or the documented ``ExecutionError`` when a result cannot be stored
in the 64-bit register file (the module contract: raise, never wrap).
"""

from __future__ import annotations

import pytest

from repro.core import DataControlSystem
from repro.datapath import (
    DataPath,
    input_pad,
    operator,
    output_pad,
    register,
)
from repro.errors import ExecutionError
from repro.petri import PetriNet, chain
from repro.semantics import (
    Environment,
    Lane,
    Simulator,
    VectorSimulator,
    traces_equivalent,
)

INT64_MIN = -(1 << 63)


def binop_system(op_name: str) -> DataControlSystem:
    """read (latch x, y) → emit (combinational op → output pad)."""
    dp = DataPath(name=f"{op_name}_edge")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(input_pad("y"))
    dp.add_vertex(register("rx"))
    dp.add_vertex(register("ry"))
    dp.add_vertex(operator("f", op_name))
    dp.add_vertex(output_pad("out"))
    dp.connect("x.out", "rx.d", name="a_x")
    dp.connect("y.out", "ry.d", name="a_y")
    dp.connect("rx.q", "f.l", name="a_l")
    dp.connect("ry.q", "f.r", name="a_r")
    dp.connect("f.o", "out.in", name="a_o")
    net = PetriNet(name=f"{op_name}_edge")
    net.add_place("s_read", marked=True)
    net.add_place("s_emit")
    chain(net, ["s_read", "s_emit"])
    net.add_transition("t_end")
    net.add_arc("s_emit", "t_end")
    system = DataControlSystem(dp, net, name=f"{op_name}_edge")
    system.set_control("s_read", ["a_x", "a_y"])
    system.set_control("s_emit", ["a_l", "a_r", "a_o"])
    return system


def unop_system(op_name: str) -> DataControlSystem:
    dp = DataPath(name=f"{op_name}_edge")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(register("rx"))
    dp.add_vertex(operator("f", op_name))
    dp.add_vertex(output_pad("out"))
    dp.connect("x.out", "rx.d", name="a_x")
    dp.connect("rx.q", "f.i", name="a_i")
    dp.connect("f.o", "out.in", name="a_o")
    net = PetriNet(name=f"{op_name}_edge")
    net.add_place("s_read", marked=True)
    net.add_place("s_emit")
    chain(net, ["s_read", "s_emit"])
    net.add_transition("t_end")
    net.add_arc("s_emit", "t_end")
    system = DataControlSystem(dp, net, name=f"{op_name}_edge")
    system.set_control("s_read", ["a_x"])
    system.set_control("s_emit", ["a_i", "a_o"])
    return system


def _assert_numpy_parity(system, env_kwargs):
    """>= 8 lanes through the numpy engine, byte-identical per lane.

    ``env_kwargs`` are keyword dicts for ``Environment.of`` — draws
    consume the environment, so each run needs a fresh instance.
    """
    assert len(env_kwargs) >= 8, "need >= 8 lanes to pin the numpy engine"
    result = VectorSimulator(system, mode="numpy").run(
        [Lane(Environment.of(**kw)) for kw in env_kwargs], max_steps=50)
    for i, kw in enumerate(env_kwargs):
        ref = Simulator(system, Environment.of(**kw)).run(max_steps=50)
        assert traces_equivalent(result.trace(i), ref), f"lane {i} diverged"


MIXED_SIGN_PAIRS = [
    (-7, 2), (7, -2), (-7, -2), (7, 2),
    (-1, 3), (1, -3), (-9, 9), (5, -3),
    (0, -4), (-8, 2), (123456789, -1000), (-(1 << 31), 7),
]


@pytest.mark.parametrize("op_name", ["mod", "div"])
def test_mixed_sign_divmod_numpy_parity(op_name):
    system = binop_system(op_name)
    _assert_numpy_parity(
        system, [dict(x=[a], y=[b]) for a, b in MIXED_SIGN_PAIRS])


def test_div_above_float_exact_bound_falls_back_to_interpreter_value():
    """(2**60 - 1) / -2 and friends: operands past 2**53, where a float
    quotient would round, must give the interpreter's exact value."""
    pairs = [((1 << 60) - 1, -2), (-(1 << 60) + 3, 2),
             ((1 << 60) - 1, -3), ((1 << 53) + 1, -2),
             (-(1 << 53), 3), ((1 << 62) - 1, -7),
             (INT64_MIN, -1), (INT64_MIN + 1, -1)]
    # mod(INT64_MIN, -1) == 0 and div(INT64_MIN + 1, -1) == INT64_MAX
    # are storable, so they must round-trip exactly, not error.
    _assert_numpy_parity(
        binop_system("mod"), [dict(x=[a], y=[b]) for a, b in pairs])


def test_add_just_below_bound_numpy_parity():
    """2**62 - 1 operands: the largest magnitudes the fast path keeps."""
    top = (1 << 62) - 1
    pairs = [(top, -top), (-top, top), (top, 0), (0, -top),
             (top, -1), (-top, 1), (top // 2, top // 2), (-top, -1)]
    _assert_numpy_parity(
        binop_system("add"), [dict(x=[a], y=[b]) for a, b in pairs])


def test_add_at_bound_raises_instead_of_wrapping():
    """2**62 + 2**62 == 2**63 does not fit int64: the engine must raise
    the documented ExecutionError, never silently wrap to INT64_MIN."""
    system = binop_system("add")
    lanes = [Lane(Environment.of(x=[1 << 62], y=[1 << 62]))
             for _ in range(8)]
    with pytest.raises(ExecutionError, match="64-bit"):
        VectorSimulator(system, mode="numpy").run(lanes, max_steps=50)


@pytest.mark.parametrize("op_name", ["neg", "abs"])
def test_unary_int64_min_raises_instead_of_wrapping(op_name):
    """|INT64_MIN| == 2**63 does not fit; np.abs-based guards wrapped."""
    system = unop_system(op_name)
    lanes = [Lane(Environment.of(x=[INT64_MIN])) for _ in range(8)]
    with pytest.raises(ExecutionError, match="64-bit"):
        VectorSimulator(system, mode="numpy").run(lanes, max_steps=50)


def test_unary_near_int64_min_numpy_parity():
    values = [INT64_MIN + 1, -(1 << 62), (1 << 62) - 1, -1, 0, 1,
              INT64_MIN + 2, (1 << 63) - 1]
    for op_name in ("neg", "abs"):
        _assert_numpy_parity(
            unop_system(op_name), [dict(x=[v]) for v in values])


def test_div_int64_min_by_minus_one_raises():
    """INT64_MIN / -1 == 2**63: overflow must raise, not wrap to itself."""
    system = binop_system("div")
    lanes = [Lane(Environment.of(x=[INT64_MIN], y=[-1])) for _ in range(8)]
    with pytest.raises(ExecutionError, match="64-bit"):
        VectorSimulator(system, mode="numpy").run(lanes, max_steps=50)
