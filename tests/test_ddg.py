import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ddghash import isa
from ddghash.blocks import segment
from ddghash.ddg import InstructionFamilyPolicy, LabelMode, build_ddg
from ddghash.disasm import parse_listing_with_report

from fixtures import CMOV_BLOCK_INTEL, gen_instructions, make_listing, render_listing

MOV_ONLY = InstructionFamilyPolicy.MOV_ONLY
ALL_DATA = InstructionFamilyPolicy.ALL_DATA_OPERANDS


def _block(text):
    return segment(parse_listing_with_report(text)[0][0])[0]


def _edge_texts(graph):
    # a graph built under LabelMode.LITERAL, whose labels are operand texts
    by_id = {n.id: n.label for n in graph.nodes}
    return {(by_id[a], by_id[b]) for a, b in graph.edges}


def test_sample_block_mov_only_literal():
    g = build_ddg(_block(CMOV_BLOCK_INTEL), MOV_ONLY, LabelMode.LITERAL)
    assert {n.label for n in g.nodes} == {"[rbp-44]", "ecx", "eax",
                                         "[rip+180]", "imm:0"}
    assert _edge_texts(g) == {
        ("[rbp-44]", "ecx"),
        ("ecx", "eax"),
        ("eax", "ecx"),
        ("ecx", "[rbp-44]"),
        ("imm:0", "[rip+180]"),
    }
    assert len(g.nodes) == 5
    assert len(g.edges) == 5


def test_self_move_collapses_to_node():
    g = build_ddg(_block(make_listing([("f", ["mov eax, eax"])])), MOV_ONLY,
                  LabelMode.LITERAL)
    assert len(g.nodes) == 1
    assert len(g.edges) == 0


def test_block_without_family_instructions_is_empty():
    text = make_listing([("f", ["add eax, ebx", "cmp eax, 0", "jmp 9000"])])
    g = build_ddg(_block(text), MOV_ONLY, LabelMode.OPERAND_CLASS)
    assert len(g.nodes) == 0
    assert len(g.edges) == 0


def test_data_movement_without_two_operands_contributes_nothing():
    # the parser keeps any operand count; a move needs a source and a destination
    text = make_listing([("f", ["mov eax", "movzx", "xchg eax, ebx, ecx"])])
    for policy in (MOV_ONLY, ALL_DATA):
        g = build_ddg(_block(text), policy, LabelMode.LITERAL)
        assert (g.nodes, g.edges) == ((), frozenset())


def test_xchg_adds_both_directions():
    g = build_ddg(_block(make_listing([("f", ["xchg eax, ebx"])])), MOV_ONLY,
                  LabelMode.LITERAL)
    assert _edge_texts(g) == {("eax", "ebx"), ("ebx", "eax")}


def test_node_label_modes():
    # a one-mov block's nodes, source first, labelled "*", by the operand's
    # kind (its class label) or by its canonical text
    for asm, kinds, texts in [
            ("mov    ecx, rbp - 44", ["mem", "reg"], ["[rbp-44]", "ecx"]),
            ("mov    rbp - 44, 0", ["imm", "mem"], ["imm:0", "[rbp-44]"])]:
        block = _block(make_listing([("f", [asm])]))
        labels = {mode: [n.label for n in build_ddg(block, MOV_ONLY, mode).nodes]
                  for mode in LabelMode}
        assert labels == {LabelMode.UNLABELED: ["*", "*"],
                          LabelMode.OPERAND_CLASS: kinds, LabelMode.LITERAL: texts}
        assert kinds == [op.kind for op in reversed(block.instructions[0].operands)]
    assert {isa.REGISTER, isa.MEMORY, isa.IMMEDIATE} == {"reg", "mem", "imm"}


def test_determinism_and_first_appearance_order():
    block = _block(CMOV_BLOCK_INTEL)
    g1 = build_ddg(block, MOV_ONLY, LabelMode.LITERAL)
    g2 = build_ddg(block, MOV_ONLY, LabelMode.LITERAL)
    assert g1 == g2
    assert [n.label for n in g1.nodes] == ["[rbp-44]", "ecx", "eax", "imm:0",
                                          "[rip+180]"]


def _random_block(rng):
    lines = []
    regs = ["eax", "ebx", "ecx", "edx"]
    for _ in range(rng.randint(1, 25)):
        r = rng.randrange(6)
        if r == 0:
            lines.append(f"mov    {rng.choice(regs)}, {rng.choice(regs)}")
        elif r == 1:
            lines.append(f"mov    DWORD PTR [rbp-{rng.randrange(1, 9) * 4}], "
                         f"{rng.choice(regs)}")
        elif r == 2:
            lines.append(f"cmovne {rng.choice(regs)}, {rng.choice(regs)}")
        elif r == 3:
            lines.append(f"add    {rng.choice(regs)}, {rng.randrange(100)}")
        elif r == 4:
            lines.append(f"xchg   {rng.choice(regs)}, {rng.choice(regs)}")
        else:
            lines.append(f"cmp    {rng.choice(regs)}, 0")
    lines.append("ret")
    return _block(make_listing([("f", lines)]))


def test_all_data_operands_is_superset_of_mov_only():
    rng = random.Random(31337)
    for _ in range(50):
        block = _random_block(rng)
        g_mov = build_ddg(block, MOV_ONLY, LabelMode.LITERAL)
        g_all = build_ddg(block, ALL_DATA, LabelMode.LITERAL)
        assert _edge_texts(g_all) >= _edge_texts(g_mov)
        assert {n.label for n in g_all.nodes} >= {n.label for n in g_mov.nodes}


def test_edge_count_bounded_by_family_instructions():
    rng = random.Random(7)
    for _ in range(50):
        block = _random_block(rng)
        g = build_ddg(block, MOV_ONLY, LabelMode.LITERAL)
        family = sum(
            1 for i in block.instructions
            if i.mnemonic in ("mov", "cmovne", "xchg")
        )
        assert len(g.edges) <= 2 * family


def test_nodes_are_exactly_referenced_operands():
    rng = random.Random(55)
    for _ in range(30):
        block = _random_block(rng)
        g = build_ddg(block, MOV_ONLY, LabelMode.LITERAL)
        expected = set()
        for ins in block.instructions:
            if ins.mnemonic in ("mov", "cmovne", "xchg") and len(ins.operands) == 2:
                expected.update(op.text for op in ins.operands)
        assert {n.label for n in g.nodes} == expected
        texts = [n.label for n in g.nodes]
        assert len(texts) == len(set(texts))


def test_all_data_single_operand_instructions_contribute_nodes():
    g = build_ddg(_block(make_listing([("f", ["inc eax", "push rbx"])])),
                  ALL_DATA, LabelMode.LITERAL)
    assert {n.label for n in g.nodes} == {"eax", "rbx"}
    assert len(g.edges) == 0


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
def test_node_ids_count_from_zero_in_node_order(seed, count, att):
    # make_feature_set keys its digest memo on the labels in node order,
    # which is sound only while node i is the node with id i
    specs = gen_instructions(random.Random(seed), count)
    functions, _ = parse_listing_with_report(render_listing(specs, att=att, seed=seed))
    for fn in functions:
        for block in segment(fn):
            for mode in LabelMode:
                for policy in InstructionFamilyPolicy:
                    g = build_ddg(block, policy, mode)
                    assert [n.id for n in g.nodes] == list(range(len(g.nodes)))
                    assert all(0 <= v < len(g.nodes) for edge in g.edges for v in edge)
