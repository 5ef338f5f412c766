"""Unit tests for register sharing with lifetime analysis."""

import hashlib

import pytest

from repro.core import check_properly_designed
from repro.designs import ZOO, pad_outputs
from repro.fuzz.generate import GeneratorConfig, generate_case
from repro.io.json_io import dumps
from repro.semantics import Environment, simulate
from repro.synthesis import compile_source
from repro.transform import (
    MergeStates,
    RegisterMerger,
    behaviourally_equivalent,
    live_places,
    registers_interfere,
    share_registers,
)
from repro.transform.register_sharing import def_states, use_states


SEQ_SOURCE = """
design seq { input i; output o;
  var a, b;
  a = read(i);
  write(o, a + 1);
  b = read(i);
  write(o, b * 2);
}
"""


class TestAnalysis:
    def test_def_and_use_states(self):
        system = compile_source(SEQ_SOURCE)
        a_defs = def_states(system, "reg_a")
        a_uses = use_states(system, "reg_a")
        assert any("read_a" in p for p in a_defs)
        assert any("write_o" in p for p in a_uses)

    def test_liveness_spans_def_to_use(self):
        system = compile_source(SEQ_SOURCE)
        live = live_places(system, "reg_a")
        # live exactly at its write state (the read observes it there);
        # dead again once b's phase starts
        assert any("write" in p for p in live)
        assert not any("read_b" in p for p in live)

    def test_guard_counts_as_use(self):
        system = compile_source("""
            design g { input i; output o; var n, r = 0;
              n = read(i);
              if (n > 0) { r = 1; }
              write(o, r); }
        """)
        uses = use_states(system, "reg_n")
        assert any("_if" in p for p in uses)
        # and n stays live across the branch decision
        assert any("_if" in p for p in live_places(system, "reg_n"))

    def test_disjoint_lifetimes_do_not_interfere(self):
        system = compile_source(SEQ_SOURCE)
        report = registers_interfere(system, "reg_a", "reg_b")
        assert not report.interferes

    def test_overlapping_lifetimes_interfere(self):
        system = compile_source("""
            design ov { input i; output o;
              var a, b;
              a = read(i);
              b = read(i);
              write(o, a + b); }
        """)
        report = registers_interfere(system, "reg_a", "reg_b")
        assert report.interferes
        assert "live" in report.reason

    def test_write_killing_live_value_interferes(self):
        # cond register written at the while state where the loop
        # variable is live: merging would clobber it every iteration
        system = compile_source("""
            design lk { output o; var n = 3;
              while (n > 0) { n = n - 1; }
              write(o, n); }
        """)
        creg = next(v for v in system.datapath.vertices if v.startswith("creg"))
        report = registers_interfere(system, creg, "reg_n")
        assert report.interferes
        assert "destroy" in report.reason or "live" in report.reason

    def test_parallel_writers_interfere(self):
        system = compile_source("""
            design pw { output o; var x, y;
              par { { x = 1; } { y = 2; } }
              write(o, x + y); }
        """)
        report = registers_interfere(system, "reg_x", "reg_y")
        assert report.interferes

    def test_observable_resets_must_match(self):
        system = compile_source("""
            design rv { input i; output o; var a = 1, b = 2, n;
              n = read(i);
              if (n > 0) { write(o, a); } else { write(o, b); }
            }
        """)
        report = registers_interfere(system, "reg_a", "reg_b")
        assert report.interferes
        # the may-analysis sees both values live at entry (each is read
        # on some path), which subsumes the reset-value condition
        assert "live" in report.reason


class TestMerger:
    def test_merge_and_simulate(self):
        system = compile_source(SEQ_SOURCE)
        transform = RegisterMerger("reg_b", "reg_a")
        assert transform.is_legal(system)
        merged = transform.apply(system)
        assert "reg_b" not in merged.datapath.vertices
        env = Environment.of(i=[10, 20])
        assert behaviourally_equivalent(system, merged, [env])
        trace = simulate(merged, env.fork())
        assert pad_outputs(merged, trace) == {"o": [11, 40]}

    def test_non_register_rejected(self):
        system = compile_source(SEQ_SOURCE)
        legality = RegisterMerger("i", "reg_a").is_legal(system)
        assert "not a plain register" in legality.reason

    def test_self_merge_rejected(self):
        system = compile_source(SEQ_SOURCE)
        assert not RegisterMerger("reg_a", "reg_a").is_legal(system)

    def test_reset_value_carried_over(self):
        # reg_a's reset (5) is observable; merging a into b must carry it
        system = compile_source("""
            design rc { input i; output o; var a = 5, b;
              write(o, a);
              b = read(i);
              write(o, b);
            }
        """)
        transform = RegisterMerger("reg_a", "reg_b")
        assert transform.is_legal(system), transform.is_legal(system).reason
        merged = transform.apply(system)
        vertex = merged.datapath.vertex("reg_b")
        assert vertex.initial_value("q") == 5
        env = Environment.of(i=[9])
        trace = simulate(merged, env)
        assert pad_outputs(merged, trace) == {"o": [5, 9]}


class TestGreedySharing:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_sharing_preserves_behaviour(self, name, zoo):
        design, system = zoo[name]
        shared, report = share_registers(system)
        assert report.registers_after <= report.registers_before
        env = design.environment()
        verdict = behaviourally_equivalent(system, shared, [env],
                                           max_steps=300_000)
        assert verdict, f"{name}: {verdict.failure}"
        assert check_properly_designed(shared).ok

    def test_fir8_collapses_heavily(self, zoo):
        _design, fir8 = zoo["fir8"]
        _shared, report = share_registers(fir8)
        assert report.registers_after <= report.registers_before - 10

    def test_summary_text(self, zoo):
        _design, system = zoo["gcd"]
        _shared, report = share_registers(system)
        assert "register" in report.summary()


class TestInterferenceConditions:
    """Each condition of :func:`registers_interfere` firing first, with its
    exact reason; the witness named is the first in place-name order."""

    def test_condition_1_both_live_in_one_place(self):
        system = compile_source("""
            design c1 { input i; output o; var a, b;
              a = read(i);
              b = read(i);
              write(o, a + b); }
        """)
        report = registers_interfere(system, "reg_a", "reg_b")
        assert report.reason == "both live on entry to ['s3_write_o']"

    def test_condition_1_live_in_coexistent_places(self):
        system = compile_source("""
            design c1p { input i, j; output o, p; var a, b;
              par { { a = read(i); write(o, a); }
                    { b = read(j); write(p, b); } } }
        """)
        for pair in (("reg_a", "reg_b"), ("reg_b", "reg_a")):
            assert registers_interfere(system, *pair).reason == (
                "live in coexistent places 's3_write_o' / 's5_write_p'")

    def test_condition_2_write_destroys_live_value(self):
        # b is dead, but writing it where a is live on exit clobbers a
        system = compile_source("""
            design c2 { input i; output o; var a, b;
              a = read(i);
              b = read(i);
              write(o, a); }
        """)
        report = registers_interfere(system, "reg_a", "reg_b")
        assert report.reason == ("write at 's2_read_b' would destroy the "
                                 "live value of 'reg_a'")
        legality = RegisterMerger("reg_b", "reg_a").is_legal(system)
        assert legality.reason == "lifetimes interfere: " + report.reason

    def test_condition_3_write_coexists_with_live_value(self):
        # a is never read, so neither liveness condition sees it; its
        # write runs in parallel with the branch that reads b
        system = compile_source("""
            design c3 { input i, j; output o; var a, b;
              b = read(j);
              par { { a = read(i); } { write(o, b); } } }
        """)
        assert live_places(system, "reg_a") == frozenset()
        report = registers_interfere(system, "reg_a", "reg_b")
        assert report.reason == ("write at 's3_read_a' coexists with "
                                 "'s4_write_o' where 'reg_b' is live")

    def test_condition_4_written_in_the_same_state(self):
        system = compile_source("""
            design c4 { output o; var a, b, c;
              a = 1; b = 2; c = 3; write(o, c); }
        """)
        fused = MergeStates("s1_assign_a", "s2_assign_b").apply(system)
        report = registers_interfere(fused, "reg_a", "reg_b")
        assert report.reason == "written in the same state ['s1_assign_a']"

    def test_condition_4_written_in_coexistent_states(self):
        system = compile_source("""
            design c4p { input i, j; var a, b;
              par { { a = read(i); } { b = read(j); } } }
        """)
        report = registers_interfere(system, "reg_b", "reg_a")
        assert report.reason == ("written in coexistent states "
                                 "'s3_read_b' / 's2_read_a'")

    def test_condition_5_is_caught_by_condition_1(self):
        """Condition 5 never fires first.

        Both reset values are observable only when both registers are
        live at initially marked places.  If that is one place,
        condition 1 finds both live on entry to it.  If it is two places,
        both are marked in ``M0``, so they coexist and condition 1 finds
        them live in coexistent places; and when the coexistence budget
        ran out, the budget check before condition 2 already answers.
        The check stays as the last line of defence.
        """
        system = compile_source("""
            design c5 { input i; output o; var a = 1, b = 2, n;
              n = read(i);
              if (n > 0) { write(o, a); } else { write(o, b); } }
        """)
        initial = {p for p, n in system.net.initial.items() if n > 0}
        assert initial == {"s0_entry"}
        for name in ("reg_a", "reg_b"):
            assert "s0_entry" in live_places(system, name)
        resets = {system.datapath.vertex(name).initial_value("q")
                  for name in ("reg_a", "reg_b")}
        assert resets == {1, 2}
        report = registers_interfere(system, "reg_a", "reg_b")
        assert report.reason == ("both live on entry to "
                                 "['s0_entry', 's1_read_n', 's2_if']")


def _sha(system) -> str:
    return hashlib.sha256(dumps(system, indent=None).encode()).hexdigest()


#: merges and ``system_to_dict`` sha256 of ``share_registers`` on the zoo
ZOO_SHARING = {
    "counter": (
        [],
        "174d540a39fd51d45d1702f65b4a527bdf3e957b80eb84d001ce02563fc5e84a"),
    "diffeq": (
        [("reg_u1", "creg2"), ("reg_y1", "reg_y")],
        "afafefaebd72ea73e09cfd3cd798ed8ea603921c12857cd31bef349d6ad969e8"),
    "ewf": (
        [("reg_w1", "creg2"), ("reg_w2", "creg2"), ("reg_x", "creg2"),
         ("reg_y2", "reg_y1")],
        "037d6621c6839e63421c5e248c1aa80dc705675dd8a7ff256cf5defcc851aaaa"),
    "fir4": (
        [("reg_s0", "reg_p0"), ("reg_s1", "reg_p1"), ("reg_x0", "reg_p0"),
         ("reg_x1", "reg_p1"), ("reg_x2", "reg_p2"), ("reg_x3", "reg_p3"),
         ("reg_y", "reg_p0")],
        "546c05fbc781d13e715f222f605afcafa52fb6a3ed3b236b39b0fc66fe01db35"),
    "fir8": (
        [("reg_s0", "reg_p0"), ("reg_s1", "reg_p1"), ("reg_s2", "reg_p2"),
         ("reg_s3", "reg_p3"), ("reg_t0", "reg_p0"), ("reg_t1", "reg_p1"),
         ("reg_x0", "reg_p0"), ("reg_x1", "reg_p1"), ("reg_x2", "reg_p2"),
         ("reg_x3", "reg_p3"), ("reg_x4", "reg_p4"), ("reg_x5", "reg_p5"),
         ("reg_x6", "reg_p6"), ("reg_x7", "reg_p7"), ("reg_y", "reg_p0")],
        "ef8af61021c5b611a41c3c9120597e4c4ba43cdef964213ec2f8c0c3c2935827"),
    "gcd": (
        [("creg5", "creg2")],
        "298d77af240914cbe4500bcb74b1f387c0a0a9d750b4e42b011adbd174d49c04"),
    "isqrt": (
        [("creg4", "creg10"), ("reg_sq", "creg10")],
        "d7c254180f2082213f4b0a311aa29e19b2208cf4403bb6c7c98f10165e8c9e1d"),
    "parsum": (
        [("reg_sum", "reg_a")],
        "2a34457ea0f4990fa3becea1f1c7b43e27f3b4a104c1f6efeb00eaffe9b8d5bf"),
    "shiftmul": (
        [("creg5", "creg2")],
        "224d86f74b7cbb03c04c783a4f36902ab1065c9845e9cdd1d104b8a224ef46a7"),
    "sort4": (
        [("reg_m1", "reg_a"), ("reg_m2", "reg_b"), ("reg_s0", "reg_a"),
         ("reg_s2", "reg_b"), ("reg_t1", "reg_c"), ("reg_t2", "reg_a"),
         ("reg_u0", "reg_d")],
        "350cfd4297e829fca1dccdec95abe2da777e32f859254cd3eab43480d726c041"),
    "traffic": (
        [("reg_ew", "creg2")],
        "4726fcc0ad9457514b637987caaeaab6c952e8dd85486ed1306acede0de42098"),
}

#: (places, seed) of proper generated designs -> merges and sha256
GENERATED_SHARING = {
    (20, 0): (
        [("r11", "r1"), ("r14", "r12"), ("r21", "r19"), ("r23", "r19"),
         ("r25", "r19"), ("r27", "r1"), ("r29", "r1"), ("r31", "r1"),
         ("r33", "r1"), ("r4", "r1"), ("r7", "r1"), ("r9", "r1")],
        "652ed30e5199429dcfeb2e0a8892444448237b13b7b18594b9dbe66005b4001d"),
    (20, 3): (
        [("r11", "r10"), ("r13", "r10"), ("r24", "r23"), ("r26", "r23"),
         ("r32", "r30"), ("r7", "r10")],
        "0e9369f1e5cda0edafd782e8495fdab579382e95503d32369292ab8f7fa4aff4"),
    (20, 7): (
        [("r12", "r1"), ("r13", "r1"), ("r15", "r1"), ("r17", "r1"),
         ("r20", "r18"), ("r22", "r18"), ("r28", "r1"), ("r3", "r1"),
         ("r30", "r1"), ("r34", "r1"), ("r5", "r1"), ("r7", "r1"),
         ("r9", "r1")],
        "ad143a431fcefb7266e9d3f761bcc4f15dfae2169969ab5c680c0927c974ad0c"),
    (56, 1): (
        [("c5", "c17"), ("r1", "c17"), ("r12", "c17"), ("r13", "c17"),
         ("r16", "c17"), ("r22", "c17"), ("r23", "c17"), ("r26", "c17"),
         ("r37", "r29"), ("r4", "c17"), ("r48", "r29"), ("r49", "r29"),
         ("r50", "r38"), ("r51", "r39"), ("r54", "r52"), ("r57", "r52"),
         ("r58", "r52"), ("r60", "r52"), ("r62", "r52"), ("r64", "r52"),
         ("r69", "r68"), ("r76", "r74"), ("r78", "r74"), ("r82", "c17"),
         ("r85", "c17"), ("r86", "c17"), ("r87", "r14"), ("r88", "r29"),
         ("r90", "c17"), ("r92", "c17"), ("rx17", "c17"), ("rx5", "c17")],
        "3c8eedc94bc8e3f024a3408760259d0b82f5db4f8115ad6eeb09e30d44312fd1"),
    (56, 4): (
        [("c7", "c11"), ("r1", "c11"), ("r15", "c11"), ("r16", "c11"),
         ("r22", "c11"), ("r24", "c11"), ("r26", "c11"), ("r28", "c11"),
         ("r30", "c11"), ("r35", "c11"), ("r37", "c11"), ("r4", "c11"),
         ("r41", "c11"), ("r43", "c11"), ("r45", "c11"), ("r49", "c11"),
         ("r5", "c11"), ("r51", "c11"), ("r59", "r56"), ("r62", "r56"),
         ("r64", "r56"), ("r67", "r65"), ("r69", "r65"), ("r76", "r70"),
         ("r78", "r70"), ("r80", "r70"), ("r82", "r70"), ("r84", "r70"),
         ("r87", "r85"), ("r91", "r85"), ("r93", "r85"), ("r95", "r85"),
         ("r97", "r85"), ("r99", "r85"), ("rx11", "c11"), ("rx7", "c11")],
        "d4fac096a261de0ae3b90b161ef52d30b0baa87bc0c0499d91879cf6520924a5"),
    (56, 9): (
        [("c76", "c28"), ("r1", "c28"), ("r13", "r11"), ("r15", "r11"),
         ("r19", "r11"), ("r21", "r11"), ("r23", "r11"), ("r25", "r11"),
         ("r26", "c28"), ("r3", "c28"), ("r34", "c28"), ("r35", "c28"),
         ("r37", "c28"), ("r38", "c28"), ("r44", "c28"), ("r46", "c28"),
         ("r49", "c28"), ("r50", "r11"), ("r52", "r11"), ("r54", "r11"),
         ("r56", "r11"), ("r58", "r11"), ("r6", "c28"), ("r65", "r11"),
         ("r66", "r11"), ("r69", "r11"), ("r7", "r11"), ("r72", "c28"),
         ("r75", "c28"), ("r81", "c28"), ("r82", "c28"), ("r89", "r87"),
         ("r91", "r87"), ("r93", "r87"), ("r97", "c28"), ("r99", "c28"),
         ("rx28", "c28"), ("rx76", "c28")],
        "54cc77c52079a8d8679fef39eeb83f8c268d6d9f48230ebd56f555cbde7c28ed"),
}


class TestSharingPins:
    """The greedy pass's merges and output bytes, pinned literally."""

    @pytest.mark.parametrize("name", sorted(ZOO_SHARING))
    def test_zoo(self, name):
        system = ZOO[name].build()
        shared, report = share_registers(system)
        merges, sha = ZOO_SHARING[name]
        assert report.merges == merges
        assert _sha(shared) == sha
        assert report.registers_after == (report.registers_before
                                          - len(merges))

    @pytest.mark.parametrize("places,seed", sorted(GENERATED_SHARING))
    def test_generated(self, places, seed):
        config = GeneratorConfig(min_places=places, max_places=places,
                                 mutation_rate=0.0, quirk_rate=0.0)
        system = generate_case(seed, config).system
        shared, report = share_registers(system)
        merges, sha = GENERATED_SHARING[places, seed]
        assert report.merges == merges
        assert _sha(shared) == sha

    def test_result_keeps_the_input_caches(self):
        system = ZOO["fir8"].build()
        system.coexistence()
        relations = system.relations
        shared, report = share_registers(system)
        assert report.merges and shared is not system
        assert shared._coexistence is system._coexistence
        assert shared._relations is relations
        assert "reg_s0" in system.datapath.vertices   # input untouched

    def test_nothing_to_merge_returns_the_input(self):
        system = ZOO["counter"].build()
        shared, report = share_registers(system)
        assert shared is system and report.merges == []
