"""Equivalence relations between data/control flow systems — Section 4.

Three nested notions, strongest first:

* **control-invariant equivalence** (Definition 4.6) — ``Γ'`` results from
  a legal *vertex merger* in ``Γ``'s data path (same control);
* **data-invariant equivalence** (Definition 4.5) — same data path, same
  control mapping, restructured control net preserving the relative order
  of every ``◇``-related (data-dependent) state pair;
* **semantic equivalence** (Definition 4.1) — equal external event
  structures.  Undecidable in general (the paper says so explicitly); the
  :func:`semantically_equivalent` checker here is the *bounded,
  environment-relative* version: it extracts both event structures under
  a given environment and simulation budget and compares them.  Theorems
  4.1 and 4.2 guarantee that systems related by the two structural
  equivalences pass this check for every environment — the test suite
  exercises exactly that implication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import DefinitionError, ValidationError
from .dependence import DataDependence
from .system import DataControlSystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..semantics.environment import Environment


@dataclass
class EquivalenceVerdict:
    """Outcome of an equivalence check, with an explanation on failure.

    ``witness`` carries the distinguishing behaviour when the systems are
    *not* equivalent and one was observed: a JSON-safe mapping with
    ``"left"``/``"right"`` firing-step sequences (each a list of steps,
    each step a list of transition names) replayable with
    :func:`repro.petri.execution.fire_step` from the initial marking.
    ``backend`` records which engine produced the verdict
    (``"explicit"`` or ``"symbolic"``).
    """

    equivalent: bool
    relation: str
    reason: str = ""
    witness: dict | None = None
    backend: str = "explicit"

    def __bool__(self) -> bool:
        return self.equivalent

    def witness_text(self) -> str:
        """The witness rendered for humans (empty when there is none)."""
        if not self.witness:
            return ""
        lines = []
        for side in ("left", "right"):
            steps = self.witness.get(side)
            if steps is None:
                continue
            flat = " ; ".join(",".join(step) for step in steps) or "(empty)"
            lines.append(f"{side}: {flat}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Definition 4.5 — data-invariant equivalence
# ---------------------------------------------------------------------------
def ordered_dependent_pairs(system: DataControlSystem, *,
                            closure: bool = False) -> frozenset[tuple[str, str]]:
    """All ordered pairs ``(S_i, S_j)`` with ``S_i ⇒ S_j`` and dependent.

    This is the invariant of Definition 4.5: two systems over the same
    data path are data-invariantly equivalent iff these sets coincide.

    **Interpretation note.**  Definition 4.5 as printed quantifies over
    the transitive closure ``◇`` (Definition 4.4).  Because clause (e)
    makes every pair of I/O-performing states *directly* dependent, the
    closure would chain almost every state of an I/O-using design into
    one dependence class and forbid virtually all parallelization — the
    opposite of the paper's stated purpose.  The proof of Theorem 4.1
    only ever uses *direct* dependences pairwise (each recursion step
    appeals to a single ``dom``/``R`` intersection), and preserving every
    directly-dependent ordered pair automatically preserves the order
    along every dependence chain.  The default is therefore the direct
    relation ``↔``; pass ``closure=True`` for the literal reading.
    """
    relations = system.relations
    dependence = DataDependence(system)
    related = dependence.dependent if closure else dependence.direct
    pairs: set[tuple[str, str]] = set()
    for s_i, s_j in relations.precedence_pairs:
        if s_i != s_j and related(s_i, s_j):
            pairs.add((s_i, s_j))
    return frozenset(pairs)


def data_invariant_equivalent(gamma: DataControlSystem,
                              gamma_prime: DataControlSystem) -> EquivalenceVerdict:
    """Definition 4.5 check.

    Preconditions of the definition — ``Γ = (D,S,T,F,C,G,M0)`` and
    ``Γ' = (D,S,T',F',C,G,M0)`` share data path, place set, control
    mapping, guard mapping and initial marking — are verified first;
    only the transition set and flow relation may differ.
    """
    if not gamma.datapath.structure_equal(gamma_prime.datapath):
        return EquivalenceVerdict(False, "data-invariant",
                                  "data paths differ (D must be shared)")
    if set(gamma.net.places) != set(gamma_prime.net.places):
        return EquivalenceVerdict(False, "data-invariant",
                                  "place sets differ (S must be shared)")
    if gamma.net.initial != gamma_prime.net.initial:
        return EquivalenceVerdict(False, "data-invariant",
                                  "initial markings differ (M0 must be shared)")
    if {p: frozenset(a) for p, a in gamma.control.items()} != \
       {p: frozenset(a) for p, a in gamma_prime.control.items()}:
        return EquivalenceVerdict(False, "data-invariant",
                                  "control mappings differ (C must be shared)")
    # G is keyed by transitions, which may legitimately differ between the
    # two systems; Definition 4.5's requirement that G be shared is read as
    # "the same guarding conditions gate the same control decisions".  We
    # enforce the weaker, checkable condition that both systems use the
    # same set of guard ports overall.
    ports = {p for g in gamma.guards.values() for p in g}
    ports_prime = {p for g in gamma_prime.guards.values() for p in g}
    if ports != ports_prime:
        return EquivalenceVerdict(False, "data-invariant",
                                  "guard port sets differ (G must be shared)")

    pairs = ordered_dependent_pairs(gamma)
    pairs_prime = ordered_dependent_pairs(gamma_prime)
    if pairs != pairs_prime:
        missing = sorted(pairs - pairs_prime)
        added = sorted(pairs_prime - pairs)
        return EquivalenceVerdict(
            False, "data-invariant",
            f"ordered dependent pairs differ: lost={missing[:5]} "
            f"gained={added[:5]}",
        )
    return EquivalenceVerdict(True, "data-invariant")


# ---------------------------------------------------------------------------
# Definition 4.6 — control-invariant equivalence (vertex merger)
# ---------------------------------------------------------------------------
def merger_legal(gamma: DataControlSystem, v_i: str, v_j: str) -> EquivalenceVerdict:
    """Check the side conditions of Definition 4.6 for merging ``v_i`` into
    ``v_j``.

    1. both vertices exist and are distinct;
    2. same operational definition and port structure (signatures equal);
    3. every control state associated with ``v_i`` is in sequential order
       (``α``) with every state associated with ``v_j``, no state is
       associated with both, **and no such pair can be simultaneously
       marked**.  The last clause strengthens the paper's letter: on a
       cyclic net, two states of one loop body are mutually reachable
       around the back edge — ``α``-ordered — yet can hold tokens at the
       same time inside an iteration, and a merged unit would then be
       used by two activities at once (exactly what the proof of
       Theorem 4.2 assumes cannot happen).  The behavioural coexistence
       relation from reachability analysis closes the gap.

    Beyond the paper's letter (but required by its proof, which latches
    each use in its own state): state-holding vertices may only be merged
    when no state *reads* one vertex while the other could have overwritten
    the shared state in between — the library restricts Definition 4.6
    mergers to combinational vertices and offers lifetime-checked register
    sharing as an extended transformation instead.
    """
    dp = gamma.datapath
    if v_i == v_j:
        return EquivalenceVerdict(False, "control-invariant",
                                  "cannot merge a vertex with itself")
    if v_i not in dp.vertices or v_j not in dp.vertices:
        return EquivalenceVerdict(False, "control-invariant",
                                  f"unknown vertex {v_i!r} or {v_j!r}")
    vertex_i, vertex_j = dp.vertex(v_i), dp.vertex(v_j)
    if vertex_i.signature() != vertex_j.signature():
        return EquivalenceVerdict(
            False, "control-invariant",
            f"{v_i!r} and {v_j!r} differ in operational definition or "
            "port structure",
        )
    if not vertex_i.is_combinational:
        return EquivalenceVerdict(
            False, "control-invariant",
            f"{v_i!r} is state-holding; Definition 4.6 mergers are "
            "restricted to combinational vertices (use the extended "
            "register-sharing transformation for SEQ vertices)",
        )
    states_i = gamma.states_associated_with_vertex(v_i)
    states_j = gamma.states_associated_with_vertex(v_j)
    shared = states_i & states_j
    if shared:
        return EquivalenceVerdict(
            False, "control-invariant",
            f"states {sorted(shared)} are associated with both vertices",
        )
    relations = gamma.relations
    for s_a in states_i:
        for s_b in states_j:
            if not relations.sequential(s_a, s_b):
                return EquivalenceVerdict(
                    False, "control-invariant",
                    f"states {s_a!r} and {s_b!r} are parallel — the merged "
                    "vertex would be used simultaneously",
                )
            if gamma.may_coexist(s_a, s_b):
                return EquivalenceVerdict(
                    False, "control-invariant",
                    f"states {s_a!r} and {s_b!r} can be simultaneously "
                    "marked (loop-carried concurrency) — the merged vertex "
                    "would be used by two activities at once",
                )
    return EquivalenceVerdict(True, "control-invariant")


def control_invariant_equivalent(gamma: DataControlSystem,
                                 gamma_prime: DataControlSystem,
                                 v_i: str, v_j: str) -> EquivalenceVerdict:
    """Verify that ``Γ'`` is the result of the legal merger of ``v_i`` into
    ``v_j`` in ``Γ`` (Definition 4.6).

    The expected result is reconstructed with the transformation engine
    and compared structurally against ``gamma_prime``.
    """
    legality = merger_legal(gamma, v_i, v_j)
    if not legality:
        return legality
    from ..transform.datapath_tf import VertexMerger  # local: avoid cycle

    expected = VertexMerger(v_i, v_j).apply(gamma)
    if not expected.datapath.structure_equal(gamma_prime.datapath):
        return EquivalenceVerdict(False, "control-invariant",
                                  "data path is not the merger result")
    if not expected.net.structure_equal(gamma_prime.net):
        return EquivalenceVerdict(False, "control-invariant",
                                  "control net differs (must be unchanged)")
    if {p: frozenset(a) for p, a in expected.control.items()} != \
       {p: frozenset(a) for p, a in gamma_prime.control.items()}:
        return EquivalenceVerdict(False, "control-invariant",
                                  "control mapping is not the merger result")
    if {t: frozenset(g) for t, g in expected.guards.items()} != \
       {t: frozenset(g) for t, g in gamma_prime.guards.items()}:
        return EquivalenceVerdict(False, "control-invariant",
                                  "guard mapping is not the merger result")
    return EquivalenceVerdict(True, "control-invariant")


# ---------------------------------------------------------------------------
# Definition 4.1 — semantic equivalence (bounded, environment-relative)
# ---------------------------------------------------------------------------
def _check_backend(backend: str, what: str) -> None:
    if backend not in ("explicit", "symbolic"):
        raise ValidationError(
            f"unknown {what} backend {backend!r}: "
            "expected 'explicit' or 'symbolic'")


def _run(system: DataControlSystem, environment: "Environment", policy, *,
         max_steps: int, backend: str):
    """One run of ``system`` for the behavioural checkers.

    ``backend="symbolic"`` runs on the compiled vector engine whenever it
    emulates ``policy`` and on the interpreter otherwise; ``"explicit"``
    always runs on the interpreter.  The engine is chosen here, before
    the run, because the vector engine rejects a policy only once it
    runs.
    """
    from ..semantics.simulator import Simulator

    engine = "interpreter"
    if backend == "symbolic":
        from ..semantics.vector import _policy_kind

        try:
            _policy_kind(policy)
            engine = "vector"
        except DefinitionError:
            pass
    return Simulator(system, environment, policy,
                     backend=engine).run(max_steps=max_steps)


def semantically_equivalent(gamma: DataControlSystem,
                            gamma_prime: DataControlSystem,
                            environment: "Environment | None" = None,
                            *, max_steps: int = 10_000,
                            backend: str = "explicit") -> EquivalenceVerdict:
    """Compare external event structures under a given environment.

    This is the observational check of Definition 4.1 made effective: the
    full relation is undecidable, so the result is relative to the supplied
    environment (input value sequences) and the step budget.  Both systems
    receive an independent copy of the environment and run under the
    maximal-step policy.

    A static prescreen comes first, on both backends: systems whose
    external arc names differ cannot have equal event structures, so no
    run is needed (and no environment has to feed inputs that only one
    side reads).  ``backend`` then only picks the engine: ``"explicit"``
    runs the interpreter, ``"symbolic"`` the compiled vector engine
    (:mod:`repro.semantics.vector`).  An inequivalence verdict records both
    distinguishing firing sequences in :attr:`EquivalenceVerdict.witness`.
    """
    _check_backend(backend, "equivalence")
    ext_left = gamma.external_arc_names()
    ext_right = gamma_prime.external_arc_names()
    if ext_left != ext_right:
        return EquivalenceVerdict(
            False, "semantic",
            "external interfaces differ: "
            f"only-left={sorted(ext_left - ext_right)}, "
            f"only-right={sorted(ext_right - ext_left)}",
            backend=backend)

    from ..semantics.environment import Environment
    from ..semantics.event_structure import event_structure_from_trace
    from ..semantics.policies import MaximalStepPolicy

    env = environment if environment is not None else Environment()
    trace_left = _run(gamma, env.fork(), MaximalStepPolicy(),
                      max_steps=max_steps, backend=backend)
    trace_right = _run(gamma_prime, env.fork(), MaximalStepPolicy(),
                       max_steps=max_steps, backend=backend)
    left = event_structure_from_trace(gamma, trace_left)
    right = event_structure_from_trace(gamma_prime, trace_right)
    if left.semantically_equal(right):
        return EquivalenceVerdict(True, "semantic", backend=backend)
    return EquivalenceVerdict(
        False, "semantic",
        left.explain_difference(right) or "structures differ",
        witness={"left": [list(step) for step in trace_left.steps],
                 "right": [list(step) for step in trace_right.steps]},
        backend=backend)
