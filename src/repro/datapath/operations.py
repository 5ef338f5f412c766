"""The operation set ``OP`` and its SEQ/COM partition (Definition 2.1).

Every output port of a data-path vertex is mapped (by ``B``) to an
operation that defines the functional relation between that output port
and the vertex's input ports.  Operations are partitioned into

* ``COM`` — combinational: the output takes the *present* value of the
  expression over the inputs (strict in :data:`~repro.semantics.values.UNDEF`);
* ``SEQ`` — sequential: the output takes the *last defined* value of the
  expression (Definition 3.1(9)) — i.e. the vertex holds state.

Two pseudo-kinds mark the boundary with the environment (Definition 3.3):
``INPUT`` for input vertices (single output port whose value is supplied
by the environment) and ``OUTPUT`` for output vertices (single input port
that consumes values).  They are not members of the paper's ``OP`` set but
make the external-vertex structure explicit and checkable.

Each operation carries an area and delay figure used by the synthesis
cost model; the numbers are relative units in the style of 1980s HLS
literature (an adder = 1.0 area, 1.0 delay), not silicon measurements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from ..errors import DefinitionError
from ..values import UNDEF, Value, as_word, strict


class OpKind(enum.Enum):
    """Partition of the operation set (Definition 2.1 + external roles)."""

    COM = "combinational"
    SEQ = "sequential"
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class Operation:
    """One member of ``OP``: a named functional relation output ← inputs.

    Attributes
    ----------
    name:
        Operation identifier (``"add"``, ``"reg"``, …).  Two vertices have
        "the same operational definition" (Definition 4.6) iff their output
        ports map to operations with equal names.
    kind:
        SEQ / COM / INPUT / OUTPUT.
    arity:
        Number of input values consumed; ``-1`` means variadic.
    func:
        The value function.  ``None`` for INPUT/OUTPUT pseudo-operations
        and for plain registers, whose behaviour (latch the input) is
        implemented by the simulator.
    area / delay:
        Relative cost figures for the synthesis cost model.
    """

    name: str
    kind: OpKind
    arity: int
    func: Callable[..., Value] | None = None
    area: float = 1.0
    delay: float = 1.0

    @property
    def is_sequential(self) -> bool:
        return self.kind is OpKind.SEQ

    @property
    def is_combinational(self) -> bool:
        return self.kind is OpKind.COM

    def evaluate(self, *args: Value) -> Value:
        """Apply the value function (strict in UNDEF).

        Combinational operations take ``arity`` arguments.  Sequential
        operations with a next-state function (e.g. the accumulator) take
        the *current state* first, then their ``arity`` port inputs.
        """
        if self.func is None:
            raise DefinitionError(
                f"operation {self.name!r} has no value function"
            )
        expected = self.arity + (1 if self.kind is OpKind.SEQ else 0)
        if self.arity >= 0 and len(args) != expected:
            raise DefinitionError(
                f"operation {self.name!r} expects {expected} argument(s), "
                f"got {len(args)}"
            )
        return as_word(self.func(*args))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}/{self.kind.value}"


def _safe_div(a: int, b: int) -> Value:
    """Quotient truncated toward zero, exact in integers (UNDEF on b=0)."""
    if b == 0:
        return UNDEF
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _safe_mod(a: int, b: int) -> Value:
    """Remainder of :func:`_safe_div`: takes the sign of ``a``."""
    return UNDEF if b == 0 else a - b * _safe_div(a, b)


def _mux(sel: int, a: int, b: int) -> int:
    """2-way multiplexer: select ``a`` when ``sel`` is non-zero, else ``b``."""
    return a if sel else b


# ---------------------------------------------------------------------------
# The standard operation library.  Delay/area figures follow the usual HLS
# convention: ripple add = 1 unit; multiply ≈ 4–8 units of both.
# ---------------------------------------------------------------------------
_STANDARD: dict[str, Operation] = {}


def _register_op(op: Operation) -> Operation:
    if op.name in _STANDARD:
        raise DefinitionError(f"duplicate standard operation {op.name!r}")
    _STANDARD[op.name] = op
    return op


ADD = _register_op(Operation("add", OpKind.COM, 2, strict(lambda a, b: a + b), 1.0, 1.0))
SUB = _register_op(Operation("sub", OpKind.COM, 2, strict(lambda a, b: a - b), 1.0, 1.0))
MUL = _register_op(Operation("mul", OpKind.COM, 2, strict(lambda a, b: a * b), 8.0, 4.0))
DIV = _register_op(Operation("div", OpKind.COM, 2, strict(_safe_div), 12.0, 8.0))
MOD = _register_op(Operation("mod", OpKind.COM, 2, strict(_safe_mod), 12.0, 8.0))
NEG = _register_op(Operation("neg", OpKind.COM, 1, strict(lambda a: -a), 0.6, 0.5))
ABS = _register_op(Operation("abs", OpKind.COM, 1, strict(abs), 0.6, 0.5))
MIN = _register_op(Operation("min", OpKind.COM, 2, strict(min), 1.2, 1.2))
MAX = _register_op(Operation("max", OpKind.COM, 2, strict(max), 1.2, 1.2))
SHL = _register_op(Operation("shl", OpKind.COM, 2, strict(lambda a, b: a << b if b >= 0 else UNDEF), 0.8, 0.5))
SHR = _register_op(Operation("shr", OpKind.COM, 2, strict(lambda a, b: a >> b if b >= 0 else UNDEF), 0.8, 0.5))

EQ = _register_op(Operation("eq", OpKind.COM, 2, strict(lambda a, b: int(a == b)), 0.8, 0.6))
NE = _register_op(Operation("ne", OpKind.COM, 2, strict(lambda a, b: int(a != b)), 0.8, 0.6))
LT = _register_op(Operation("lt", OpKind.COM, 2, strict(lambda a, b: int(a < b)), 0.9, 0.8))
LE = _register_op(Operation("le", OpKind.COM, 2, strict(lambda a, b: int(a <= b)), 0.9, 0.8))
GT = _register_op(Operation("gt", OpKind.COM, 2, strict(lambda a, b: int(a > b)), 0.9, 0.8))
GE = _register_op(Operation("ge", OpKind.COM, 2, strict(lambda a, b: int(a >= b)), 0.9, 0.8))

AND = _register_op(Operation("and", OpKind.COM, 2, strict(lambda a, b: int(bool(a) and bool(b))), 0.3, 0.2))
OR = _register_op(Operation("or", OpKind.COM, 2, strict(lambda a, b: int(bool(a) or bool(b))), 0.3, 0.2))
NOT = _register_op(Operation("not", OpKind.COM, 1, strict(lambda a: int(not a)), 0.2, 0.1))
XOR = _register_op(Operation("xor", OpKind.COM, 2, strict(lambda a, b: int(bool(a) != bool(b))), 0.3, 0.2))

BAND = _register_op(Operation("band", OpKind.COM, 2, strict(lambda a, b: a & b), 0.4, 0.2))
BOR = _register_op(Operation("bor", OpKind.COM, 2, strict(lambda a, b: a | b), 0.4, 0.2))
BXOR = _register_op(Operation("bxor", OpKind.COM, 2, strict(lambda a, b: a ^ b), 0.4, 0.2))

IDENTITY = _register_op(Operation("id", OpKind.COM, 1, strict(lambda a: a), 0.1, 0.05))
MUX = _register_op(Operation("mux", OpKind.COM, 3, strict(_mux), 0.5, 0.3))

#: Plain register: sequential, arity 1; the simulator implements the latch.
REG = _register_op(Operation("reg", OpKind.SEQ, 1, None, 2.0, 0.4))

#: Accumulating register (`acc += in`), an example of a SEQ operation whose
#: next state is a function of input and current state.
ACC = _register_op(
    Operation("acc", OpKind.SEQ, 1, strict(lambda current, incoming: current + incoming), 3.0, 1.2)
)

#: Environment boundary pseudo-operations (Definition 3.3).
EXTERNAL_INPUT = _register_op(Operation("ext_in", OpKind.INPUT, 0, None, 0.5, 0.1))
EXTERNAL_OUTPUT = _register_op(Operation("ext_out", OpKind.OUTPUT, 1, None, 0.5, 0.1))


def constant_op(value: int) -> Operation:
    """A zero-input combinational operation producing ``value``.

    Constants are vertices in the data path (wired-constant units); each
    distinct value gets its own operation name so that Definition 4.6's
    "same operational definition" test treats different constants as
    different operations.
    """
    word = as_word(value)
    return Operation(f"const[{word}]", OpKind.COM, 0, lambda: word, 0.1, 0.0)


def get_operation(name: str) -> Operation:
    """Look up a standard operation by name.

    Constant operations (``const[k]``) are synthesised on the fly so that
    serialisation can round-trip them.
    """
    if name in _STANDARD:
        return _STANDARD[name]
    if name.startswith("const[") and name.endswith("]"):
        return constant_op(int(name[len("const["):-1]))
    raise DefinitionError(f"unknown operation {name!r}")


def standard_operations() -> dict[str, Operation]:
    """A copy of the standard operation registry (name → Operation)."""
    return dict(_STANDARD)


#: Binary operator symbol → operation name, used by the frontend.
BINARY_SYMBOLS: dict[str, str] = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
    "&&": "and", "||": "or", "&": "band", "|": "bor", "^": "bxor",
    "<<": "shl", ">>": "shr",
}

#: Unary operator symbol → operation name, used by the frontend.
UNARY_SYMBOLS: dict[str, str] = {"-": "neg", "!": "not"}
