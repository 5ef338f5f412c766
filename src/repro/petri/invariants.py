"""Incidence matrix and P/T-invariants of a Petri net.

The incidence matrix ``N`` has one row per place and one column per
transition, with ``N[p, t] = post(t)[p] - pre(t)[p]`` (token change at
place ``p`` caused by firing ``t``).  Two classical linear-algebraic
consequences are used in the library:

* **State equation** — firing a step with count vector ``σ`` takes marking
  ``m`` to ``m + N·σ``; tests use this as an executable invariant of the
  token game (a property-based check of :mod:`repro.petri.execution`).
* **P-invariants** — integer vectors ``y ≥ 0`` with ``yᵀ·N = 0``.  The
  weighted token sum ``yᵀ·m`` is constant under firing; a net covered by
  positive P-invariants with ``yᵀ·M0 = 1`` is structurally safe, which the
  properly-designed checker exploits as a fast pre-check before falling
  back to reachability analysis.

The null-space computation is exact (fraction-free integer elimination
over sparse rows, each kept divided by its gcd), so invariants are exact
integer vectors — floating point rank decisions would be unacceptable
here.  A net's bases are computed once per structure and shared by
every caller (properness, lint and the safety checks all ask for them).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .marking import Marking
from .net import PetriNet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .net import TokenIndex


def incidence_matrix(net: PetriNet) -> np.ndarray:
    """The |S| × |T| incidence matrix with integer entries.

    Row order follows ``net.place_names()``; column order follows
    ``net.transition_names()``.
    """
    places = net.place_names()
    transitions = net.transition_names()
    p_index = {p: i for i, p in enumerate(places)}
    matrix = np.zeros((len(places), len(transitions)), dtype=np.int64)
    for j, t in enumerate(transitions):
        for p in net.preset(t):
            matrix[p_index[p], j] -= 1
        for p in net.postset(t):
            matrix[p_index[p], j] += 1
    return matrix


def state_equation_delta(net: PetriNet, counts: dict[str, int]) -> dict[str, int]:
    """Marking change ``N·σ`` for a firing-count vector ``σ``."""
    matrix = incidence_matrix(net)
    sigma = np.zeros(len(net.transitions), dtype=np.int64)
    for j, t in enumerate(net.transition_names()):
        sigma[j] = counts.get(t, 0)
    delta = matrix @ sigma
    return {p: int(delta[i]) for i, p in enumerate(net.place_names()) if delta[i]}


def apply_state_equation(net: PetriNet, marking: Marking, counts: dict[str, int]) -> dict[str, int]:
    """``m + N·σ`` as a plain dict (may be negative if σ is not realisable)."""
    delta = state_equation_delta(net, counts)
    result = {p: marking[p] for p in net.place_names()}
    for p, d in delta.items():
        result[p] = result.get(p, 0) + d
    return result


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    divisor = gcd(*row.values())
    if divisor > 1:
        return {k: v // divisor for k, v in row.items()}
    return row


def _integer_nullspace(rows: Iterable[dict[int, int]],
                       cols: int) -> list[list[int]]:
    """Exact basis of the (right) null space of a sparse integer matrix.

    ``rows`` are ``{col: value}`` dicts without zero entries.  Petri-net
    incidence matrices have only a handful of nonzeros per row (a
    transition touches its pre- and postset, nothing else), so sparse
    elimination is near-linear where a dense sweep is cubic.

    The elimination is fraction-free: a row ``r`` loses column ``c`` of
    pivot row ``q`` as ``q[c]·r − r[c]·q``, and every row is divided by
    the gcd of its entries.  Each pivot row is then a positive integer
    multiple of the rational row that keeps 1 on its own pivot column
    and 0 on all other pivot columns, so both eliminations zero out the
    same entries, pick the same pivot columns and span the same space.
    Each free column ``f`` yields the primitive integer vector with a
    positive entry at ``f`` — the smallest integer multiple of the
    rational basis vector that has 1 there.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for source in rows:
        row = dict(source)
        # eliminate existing pivot columns; pivot rows are 0 on every
        # other pivot column, so one pass suffices
        for col in sorted(c for c in row if c in pivot_rows):
            pivot_row = pivot_rows[col]
            scale, factor = pivot_row[col], row.pop(col)
            if scale != 1:
                row = {k: scale * v for k, v in row.items()}
            for k, v in pivot_row.items():
                if k != col:
                    value = row.get(k, 0) - factor * v
                    if value:
                        row[k] = value
                    else:
                        del row[k]
        if not row:
            continue
        col = min(row)
        if row[col] < 0:
            row = {k: -v for k, v in row.items()}
        row = _primitive(row)
        pivot = row[col]
        for other, prow in pivot_rows.items():
            factor = prow.pop(col, None)
            if factor is None:
                continue
            if pivot != 1:
                for k in prow:
                    prow[k] *= pivot
            for k, v in row.items():
                if k != col:
                    value = prow.get(k, 0) - factor * v
                    if value:
                        prow[k] = value
                    else:
                        del prow[k]
            pivot_rows[other] = _primitive(prow)
        pivot_rows[col] = row
    basis: list[list[int]] = []
    for free in range(cols):
        if free in pivot_rows:
            continue
        terms = [(col, prow[col], weight)
                 for col, prow in pivot_rows.items()
                 if (weight := prow.get(free))]
        scale = lcm(*(pivot for _, pivot, _ in terms))
        vector = [0] * cols
        vector[free] = scale
        for col, pivot, weight in terms:
            vector[col] = -weight * (scale // pivot)
        divisor = gcd(*vector)
        if divisor > 1:
            vector = [v // divisor for v in vector]
        basis.append(vector)
    return basis


def invariant_basis(index: TokenIndex,
                    kind: str) -> tuple[tuple[tuple[str, int], ...], ...]:
    """The P- (``kind="p"``, ``yᵀ·N = 0``) or T-invariant (``N·x = 0``)
    basis of one net structure as ``(name, weight)`` pairs per vector.

    :class:`~repro.petri.net.TokenIndex` caches both bases; callers go
    through :func:`p_invariants` and :func:`t_invariants`.
    """
    # the nonzero entries of N as {(place position, transition rank)}
    entries: dict[tuple[int, int], int] = {}
    for j, t in enumerate(index.transitions):
        for p in index.postsets[t]:
            entries[index.place_index[p], j] = 1
        for p in index.presets[t]:
            key = (index.place_index[p], j)
            value = entries.pop(key, 0) - 1
            if value:
                entries[key] = value
    if kind == "p":  # rows of Nᵀ: one per transition, over places
        names = index.places
        rows: list[dict[int, int]] = [{} for _ in index.transitions]
        for (i, j), value in entries.items():
            rows[j][i] = value
    else:  # rows of N: one per place, over transitions
        names = index.transitions
        rows = [{} for _ in index.places]
        for (i, j), value in entries.items():
            rows[i][j] = value
    return tuple(tuple((name, w) for name, w in zip(names, vector) if w)
                 for vector in _integer_nullspace(rows, len(names)))


def p_invariants(net: PetriNet) -> list[dict[str, int]]:
    """A basis of P-invariants (``yᵀ·N = 0``) as place-weight dicts.

    The basis spans the left null space; individual basis vectors may have
    negative entries (semi-positive invariants are a cone, not a space —
    callers interested in safety should use :func:`positive_p_invariants`).
    """
    return [dict(vector) for vector in net.token_index().p_basis]


def t_invariants(net: PetriNet) -> list[dict[str, int]]:
    """A basis of T-invariants (``N·x = 0``) as transition-count dicts.

    A realisable T-invariant describes a firing sequence that reproduces
    the marking it started from — the cyclic steady state of a loop.
    """
    return [dict(vector) for vector in net.token_index().t_basis]


def positive_p_invariants(net: PetriNet) -> list[dict[str, int]]:
    """Semi-positive P-invariants found in (combinations of) the basis.

    This is a pragmatic extractor, not a complete Farkas enumeration: it
    returns basis vectors that are already semi-positive, after flipping
    sign where the vector is semi-negative.  Sufficient for the structural
    safety pre-check on the nets produced by the synthesis frontend, whose
    sequential regions are covered by {0,1} invariants.
    """
    result = []
    for invariant in p_invariants(net):
        values = list(invariant.values())
        if all(v >= 0 for v in values):
            result.append(invariant)
        elif all(v <= 0 for v in values):
            result.append({p: -w for p, w in invariant.items()})
    return result


def invariant_token_sum(invariant: dict[str, int], marking: Marking) -> int:
    """Weighted token count ``yᵀ·m`` of a marking under an invariant."""
    return sum(weight * marking[place] for place, weight in invariant.items())


def structurally_safe_places(net: PetriNet) -> frozenset[str]:
    """Places proven safe by a semi-positive P-invariant argument.

    A place ``p`` is structurally safe if some semi-positive invariant
    ``y`` has ``y[p] ≥ 1`` and ``yᵀ·M0 ≤ 1``: the weighted token sum is
    conserved, so ``p`` can never hold two tokens.
    """
    initial = net.initial_marking()
    safe: set[str] = set()
    for invariant in positive_p_invariants(net):
        if invariant_token_sum(invariant, initial) <= 1:
            safe.update(p for p, w in invariant.items() if w >= 1)
    return frozenset(safe)
