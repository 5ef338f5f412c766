"""The properly-designed check — Definition 3.2.

A data/control flow system is *properly designed* iff

1. parallel control states have disjoint active subgraphs:
   ``ASS(S_i) ∩ ASS(S_j) = ∅`` whenever ``S_i ∥ S_j``;
2. the control net is **safe** (never more than one token per place);
3. the net is **conflict-free**: transitions sharing an input place carry
   mutually exclusive guards;
4. no control state's associated subgraph contains a combinational loop;
5. every control state's ``ASS`` contains at least one sequential vertex.

Properly designed systems are deterministic up to firing order: every
interleaving yields the same external event structure, which is what makes
the equivalence checking of Section 4 tractable.  The library's simulator
and transformation engine only promise correct results on properly
designed systems, mirroring the paper ("From now on we only consider
properly designed systems").

Rules 1 and 2 are *behavioural* here — they enumerate reachable markings
for an exact verdict.  Rules 3–5 are purely structural and are delegated
to the lint engine (:mod:`repro.analysis.lint`), which also offers
structural over-approximations of rules 1 and 2 (``PD001``/``PD002``)
that need no enumeration at all.  Every rule reports its findings as
:class:`~repro.diagnostics.Diagnostic` objects; :class:`CheckResult`
keeps the legacy ``details`` string list as a view over them.

Rule 3 is verified on two levels: a *static* sufficient condition —
guards are literally complementary (one guard port is the output of a
``not`` vertex fed from the other guard port), the pattern the synthesis
frontend emits for if/while branches — and a *dynamic* one: the
simulator records every step where two competing transitions are
fireable at once (:func:`repro.semantics.event_structure.observed_conflicts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from ..diagnostics import Diagnostic, Location
from ..errors import ValidationError
from ..petri.properties import check_safety, unsafe_witness_message
from .system import DataControlSystem


@dataclass
class CheckResult:
    """Outcome of one of the five rules.

    A thin wrapper over the rule's :class:`~repro.diagnostics.Diagnostic`
    findings: ``details`` remains the legacy list of message strings (one
    per diagnostic) so existing callers keep working, while
    ``diagnostics`` carries the structured form (rule id, severity,
    location anchors, hint).
    """

    rule: str
    ok: bool
    details: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @classmethod
    def from_diagnostics(cls, rule: str,
                         diagnostics: list[Diagnostic]) -> "CheckResult":
        """A result that passes iff the rule produced no diagnostics."""
        return cls(rule, not diagnostics,
                   [d.message for d in diagnostics], diagnostics)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


@dataclass
class ProperDesignReport:
    """Aggregated outcome of the properly-designed verification."""

    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list[CheckResult]:
        return [check for check in self.checks if not check.ok]

    def diagnostics(self) -> list[Diagnostic]:
        """All findings across the five rules, in rule order."""
        return [d for check in self.checks for d in check.diagnostics]

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok

    def summary(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.ok else "FAIL"
            lines.append(f"[{status}] {check.rule}")
            for detail in check.details:
                lines.append(f"       - {detail}")
        return "\n".join(lines)


def _check_parallel_disjoint(system: DataControlSystem) -> CheckResult:
    """Rule 1: parallel states use disjoint arcs and vertices.

    "Parallel" is taken *behaviourally*: two states violate the rule when
    they share resources **and can be simultaneously marked** (the
    coexistence relation from reachability analysis).  The paper's
    structural ``∥`` (Definition 2.3(5)) mis-measures concurrency in both
    directions — it calls mutually exclusive if/else branch states
    parallel (over-approximation: they may legitimately share a resource)
    and calls same-iteration loop-body states sequential because each
    reaches the other around the back edge (under-approximation: they
    genuinely coexist).  Coexistence is exactly the "never active at the
    same time" condition the rule is meant to enforce.
    """
    found: list[Diagnostic] = []
    ass_cache = {p: system.ass(p) for p in system.control}
    places = sorted(system.control)
    for s_i, s_j in combinations(places, 2):
        if not system.may_coexist(s_i, s_j):
            continue
        arcs_i, verts_i = ass_cache[s_i]
        arcs_j, verts_j = ass_cache[s_j]
        shared_arcs = arcs_i & arcs_j
        shared_verts = verts_i & verts_j
        if shared_arcs or shared_verts:
            what = []
            if shared_arcs:
                what.append(f"arcs {sorted(shared_arcs)}")
            if shared_verts:
                what.append(f"vertices {sorted(shared_verts)}")
            found.append(Diagnostic(
                "PD001", "error",
                f"coexistent states {s_i!r} and {s_j!r} share "
                f"{', '.join(what)}",
                (Location("place", s_i), Location("place", s_j))
                + tuple(Location("arc", a) for a in sorted(shared_arcs))
                + tuple(Location("vertex", v) for v in sorted(shared_verts)),
                hint="serialize the states or give each its own resources "
                     "(Definition 3.2(1): ASS(S_i) ∩ ASS(S_j) = ∅)",
                system=system.name,
            ))
    return CheckResult.from_diagnostics(
        "1: parallel states have disjoint ASS", found)


def _check_safety(system: DataControlSystem, max_markings: int) -> CheckResult:
    """Rule 2: the control net is safe (1-bounded)."""
    report = check_safety(system.net, max_markings=max_markings)
    found: list[Diagnostic] = []
    if not report.safe:
        if report.violating_place is not None and report.witness is not None:
            message = ("unsafe marking reachable: "
                       + unsafe_witness_message(report.violating_place,
                                                report.witness))
            locations = (Location("place", report.violating_place),
                         Location("marking", repr(report.witness)))
        else:  # pragma: no cover - explorer always yields a witness
            message = "unsafe marking reachable"
            locations = ()
        found.append(Diagnostic(
            "PD002", "error", message, locations,
            hint="a properly designed net is 1-bounded (Definition 3.2(2))",
            system=system.name,
        ))
    elif not report.decided:
        found.append(Diagnostic(
            "PD002", "warning",
            "exploration budget exhausted before safety was proven "
            f"({report.markings_explored} markings)",
            hint="raise max_markings or restructure for invariant coverage",
            system=system.name,
        ))
    return CheckResult.from_diagnostics("2: control net is safe", found)


def _check_conflict_free(system: DataControlSystem) -> CheckResult:
    """Rule 3 (static): shared-place transitions carry exclusive guards."""
    from ..analysis.lint import conflict_diagnostics

    return CheckResult.from_diagnostics(
        "3: net is conflict-free (static)", conflict_diagnostics(system))


def _check_no_combinational_loops(system: DataControlSystem) -> CheckResult:
    """Rule 4: each state's active subgraph is combinational-loop-free."""
    from ..analysis.lint import combinational_loop_diagnostics

    return CheckResult.from_diagnostics(
        "4: no combinational loop within a state",
        combinational_loop_diagnostics(system))


def _check_sequential_vertex(system: DataControlSystem) -> CheckResult:
    """Rule 5: every controlling state drives at least one sequential vertex."""
    from ..analysis.lint import sequential_vertex_diagnostics

    return CheckResult.from_diagnostics(
        "5: every state includes a sequential vertex",
        sequential_vertex_diagnostics(system))


def check_properly_designed(system: DataControlSystem, *,
                            max_markings: int = 100_000) -> ProperDesignReport:
    """Run all five rules of Definition 3.2 and return a report."""
    return ProperDesignReport([
        _check_parallel_disjoint(system),
        _check_safety(system, max_markings),
        _check_conflict_free(system),
        _check_no_combinational_loops(system),
        _check_sequential_vertex(system),
    ])


def assert_properly_designed(system: DataControlSystem, *,
                             max_markings: int = 100_000) -> None:
    """Raise :class:`~repro.errors.ValidationError` unless properly designed."""
    report = check_properly_designed(system, max_markings=max_markings)
    if not report.ok:
        raise ValidationError(
            "system is not properly designed:\n" + report.summary()
        )