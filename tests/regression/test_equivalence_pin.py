"""Pinned verdicts of the equivalence checkers and the reachability
queries, on both backends.

Each case is reduced to a short SHA-256 digest of its canonical JSON:
``(equivalent, relation, reason, witness, backend)`` for an equivalence
verdict, the field tuple for a behavioural report, and the sorted
answer for ``is_safe`` / ``coexistent_place_pairs`` /
``reachable_markings``.  A raised error is pinned by its type and
message.  A refactor of the engine choice must leave every digest
unchanged.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.equivalence import semantically_equivalent
from repro.designs import get_design
from repro.petri.reachability import (
    coexistent_place_pairs,
    is_safe,
    reachable_markings,
)
from repro.semantics.environment import Environment
from repro.transform.verify import behaviourally_equivalent

from ..util import independent_pair_system

ZOO = ("counter", "diffeq", "ewf", "fir4", "fir8", "gcd", "isqrt",
       "parsum", "shiftmul", "sort4", "traffic")
BACKENDS = ("explicit", "symbolic")


def _verdict(verdict) -> list:
    return [verdict.equivalent, verdict.relation, verdict.reason,
            verdict.witness, verdict.backend]


def _report(report) -> list:
    return [report.equivalent, report.environments_checked,
            report.policies_checked, report.failure, report.backend]


def _rewired_pair():
    left = independent_pair_system()
    right = independent_pair_system()
    right.datapath.remove_arc("a_ra")
    right.datapath.connect("rb.q", "sum.l", name="a_ra")
    return left, right, Environment.of(x=[1])


def _self_pair(name: str, backend: str):
    design = get_design(name)
    return _verdict(semantically_equivalent(
        design.build(), design.build(), design.environment(),
        backend=backend))


def _self_behaviour(name: str, backend: str):
    design = get_design(name)
    return _report(behaviourally_equivalent(
        design.build(), design.build(), [design.environment()],
        backend=backend))


def _gcd_counter(backend: str):
    gcd, counter = get_design("gcd"), get_design("counter")
    return _verdict(semantically_equivalent(
        gcd.build(), counter.build(), gcd.environment(), backend=backend))


def _mutant(backend: str):
    left, right, env = _rewired_pair()
    return _verdict(semantically_equivalent(left, right, env,
                                            backend=backend))


def _mutant_behaviour(backend: str):
    left, right, env = _rewired_pair()
    return _report(behaviourally_equivalent(left, right, [env],
                                            backend=backend))


def _net_query(name: str, query: str, backend: str):
    net = get_design(name).build().net
    if query == "is_safe":
        return is_safe(net, backend=backend)
    if query == "coexistent_place_pairs":
        pairs, complete = coexistent_place_pairs(net, backend=backend)
        return [sorted(sorted(pair) for pair in pairs), complete]
    return sorted(sorted(marking.items())
                  for marking in reachable_markings(net, backend=backend))


def _cases() -> dict:
    cases = {}
    for backend in BACKENDS:
        for name in ZOO:
            cases[f"equiv-{name}-{backend}"] = (_self_pair, name, backend)
            cases[f"behaviour-{name}-{backend}"] = (_self_behaviour, name,
                                                    backend)
            for query in ("is_safe", "coexistent_place_pairs",
                          "reachable_markings"):
                cases[f"{query}-{name}-{backend}"] = (_net_query, name,
                                                      query, backend)
        cases[f"equiv-gcd-counter-{backend}"] = (_gcd_counter, backend)
        cases[f"equiv-mutant-{backend}"] = (_mutant, backend)
        cases[f"behaviour-mutant-{backend}"] = (_mutant_behaviour, backend)
    return cases


CASES = _cases()


def _digest(case: str) -> str:
    func, *args = CASES[case]
    try:
        outcome = func(*args)
    except Exception as error:  # noqa: BLE001 - errors are pinned too
        outcome = ["raised", type(error).__name__, str(error)]
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED: dict[str, str] = {
    "behaviour-counter-explicit": "2659dd57d8e2f1ed",
    "behaviour-counter-symbolic": "e85d38a001558515",
    "behaviour-diffeq-explicit": "2659dd57d8e2f1ed",
    "behaviour-diffeq-symbolic": "e85d38a001558515",
    "behaviour-ewf-explicit": "2659dd57d8e2f1ed",
    "behaviour-ewf-symbolic": "e85d38a001558515",
    "behaviour-fir4-explicit": "2659dd57d8e2f1ed",
    "behaviour-fir4-symbolic": "e85d38a001558515",
    "behaviour-fir8-explicit": "2659dd57d8e2f1ed",
    "behaviour-fir8-symbolic": "e85d38a001558515",
    "behaviour-gcd-explicit": "2659dd57d8e2f1ed",
    "behaviour-gcd-symbolic": "e85d38a001558515",
    "behaviour-isqrt-explicit": "2659dd57d8e2f1ed",
    "behaviour-isqrt-symbolic": "e85d38a001558515",
    "behaviour-mutant-explicit": "e9303479d68ee664",
    "behaviour-mutant-symbolic": "809b562b0e730bef",
    "behaviour-parsum-explicit": "2659dd57d8e2f1ed",
    "behaviour-parsum-symbolic": "e85d38a001558515",
    "behaviour-shiftmul-explicit": "2659dd57d8e2f1ed",
    "behaviour-shiftmul-symbolic": "e85d38a001558515",
    "behaviour-sort4-explicit": "2659dd57d8e2f1ed",
    "behaviour-sort4-symbolic": "e85d38a001558515",
    "behaviour-traffic-explicit": "2659dd57d8e2f1ed",
    "behaviour-traffic-symbolic": "e85d38a001558515",
    "coexistent_place_pairs-counter-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-counter-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-diffeq-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-diffeq-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-ewf-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-ewf-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-fir4-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-fir4-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-fir8-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-fir8-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-gcd-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-gcd-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-isqrt-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-isqrt-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-parsum-explicit": "a4b5ada159218467",
    "coexistent_place_pairs-parsum-symbolic": "a4b5ada159218467",
    "coexistent_place_pairs-shiftmul-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-shiftmul-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-sort4-explicit": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-sort4-symbolic": "f9f239d0aecc2dd0",
    "coexistent_place_pairs-traffic-explicit": "ea8fcd649e59e734",
    "coexistent_place_pairs-traffic-symbolic": "ea8fcd649e59e734",
    "equiv-counter-explicit": "08143d1ba35fb55d",
    "equiv-counter-symbolic": "2286cc17c0ea67da",
    "equiv-diffeq-explicit": "08143d1ba35fb55d",
    "equiv-diffeq-symbolic": "2286cc17c0ea67da",
    "equiv-ewf-explicit": "08143d1ba35fb55d",
    "equiv-ewf-symbolic": "2286cc17c0ea67da",
    "equiv-fir4-explicit": "08143d1ba35fb55d",
    "equiv-fir4-symbolic": "2286cc17c0ea67da",
    "equiv-fir8-explicit": "08143d1ba35fb55d",
    "equiv-fir8-symbolic": "2286cc17c0ea67da",
    "equiv-gcd-counter-explicit": "bf899be816c58d40",
    "equiv-gcd-counter-symbolic": "fd2554763f897f2e",
    "equiv-gcd-explicit": "08143d1ba35fb55d",
    "equiv-gcd-symbolic": "2286cc17c0ea67da",
    "equiv-isqrt-explicit": "08143d1ba35fb55d",
    "equiv-isqrt-symbolic": "2286cc17c0ea67da",
    "equiv-mutant-explicit": "4af4cf52ea14d3d6",
    "equiv-mutant-symbolic": "4bb738550bedc2c9",
    "equiv-parsum-explicit": "08143d1ba35fb55d",
    "equiv-parsum-symbolic": "2286cc17c0ea67da",
    "equiv-shiftmul-explicit": "08143d1ba35fb55d",
    "equiv-shiftmul-symbolic": "2286cc17c0ea67da",
    "equiv-sort4-explicit": "08143d1ba35fb55d",
    "equiv-sort4-symbolic": "2286cc17c0ea67da",
    "equiv-traffic-explicit": "08143d1ba35fb55d",
    "equiv-traffic-symbolic": "2286cc17c0ea67da",
    "is_safe-counter-explicit": "b5bea41b6c623f7c",
    "is_safe-counter-symbolic": "b5bea41b6c623f7c",
    "is_safe-diffeq-explicit": "b5bea41b6c623f7c",
    "is_safe-diffeq-symbolic": "b5bea41b6c623f7c",
    "is_safe-ewf-explicit": "b5bea41b6c623f7c",
    "is_safe-ewf-symbolic": "b5bea41b6c623f7c",
    "is_safe-fir4-explicit": "b5bea41b6c623f7c",
    "is_safe-fir4-symbolic": "b5bea41b6c623f7c",
    "is_safe-fir8-explicit": "b5bea41b6c623f7c",
    "is_safe-fir8-symbolic": "b5bea41b6c623f7c",
    "is_safe-gcd-explicit": "b5bea41b6c623f7c",
    "is_safe-gcd-symbolic": "b5bea41b6c623f7c",
    "is_safe-isqrt-explicit": "b5bea41b6c623f7c",
    "is_safe-isqrt-symbolic": "b5bea41b6c623f7c",
    "is_safe-parsum-explicit": "b5bea41b6c623f7c",
    "is_safe-parsum-symbolic": "b5bea41b6c623f7c",
    "is_safe-shiftmul-explicit": "b5bea41b6c623f7c",
    "is_safe-shiftmul-symbolic": "b5bea41b6c623f7c",
    "is_safe-sort4-explicit": "b5bea41b6c623f7c",
    "is_safe-sort4-symbolic": "b5bea41b6c623f7c",
    "is_safe-traffic-explicit": "b5bea41b6c623f7c",
    "is_safe-traffic-symbolic": "b5bea41b6c623f7c",
    "reachable_markings-counter-explicit": "d3083d905751a424",
    "reachable_markings-counter-symbolic": "d3083d905751a424",
    "reachable_markings-diffeq-explicit": "30ecd1703085c485",
    "reachable_markings-diffeq-symbolic": "30ecd1703085c485",
    "reachable_markings-ewf-explicit": "23bfdb0f85a2f63a",
    "reachable_markings-ewf-symbolic": "23bfdb0f85a2f63a",
    "reachable_markings-fir4-explicit": "5169aa80df506d42",
    "reachable_markings-fir4-symbolic": "5169aa80df506d42",
    "reachable_markings-fir8-explicit": "4fdc29c39be59527",
    "reachable_markings-fir8-symbolic": "4fdc29c39be59527",
    "reachable_markings-gcd-explicit": "3cadf014c83614ef",
    "reachable_markings-gcd-symbolic": "3cadf014c83614ef",
    "reachable_markings-isqrt-explicit": "908f32652b85348a",
    "reachable_markings-isqrt-symbolic": "908f32652b85348a",
    "reachable_markings-parsum-explicit": "e0ef78d9f7db4878",
    "reachable_markings-parsum-symbolic": "e0ef78d9f7db4878",
    "reachable_markings-shiftmul-explicit": "66b00c5b7aeebb07",
    "reachable_markings-shiftmul-symbolic": "66b00c5b7aeebb07",
    "reachable_markings-sort4-explicit": "c3a544c1e04ce15b",
    "reachable_markings-sort4-symbolic": "c3a544c1e04ce15b",
    "reachable_markings-traffic-explicit": "8670fc59d119b519",
    "reachable_markings-traffic-symbolic": "8670fc59d119b519",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned(case):
    assert _digest(case) == PINNED[case]
