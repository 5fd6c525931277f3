"""Cross-module pipeline behavior not owned by any single unit module."""

import random

import ddghash
from ddghash.corpus import build_feature_file
from ddghash import isa
from ddghash.disasm import IMMEDIATE, MEMORY, REGISTER, parse_listing
from ddghash.features import FeatureParams
from ddghash.wlhash import wl_refine

from fixtures import gen_instructions, make_graph, make_listing, render_listing

PARAMS = FeatureParams()


def test_block_ids_are_global_across_functions():
    # two functions, each with an internal conditional jump; block ids keep
    # counting across the boundary and order edges use the global ids
    text = make_listing([
        ("first", [
            "mov    eax, ebx",       # 0x1000
            "je     100c",           # 0x1004
            "mov    ecx, edx",       # 0x1008
            "mov    edx, 1",         # 0x100c  (jump target)
            "ret",                   # 0x1010
        ]),
        ("second", [
            "mov    esi, edi",       # 0x1014
            "jne    1014",           # 0x1018  back edge to own block start
            "ret",                   # 0x101c
        ]),
    ])
    ff = build_feature_file(text, "two", PARAMS)
    # first: blocks 0 [mov,je], 1 [mov], 2 [mov,ret]; second: 3 [mov,jne], 4 [ret]
    assert set(ff.block_map) <= {0, 1, 2, 3, 4}
    assert len(ff.term_counts) == 5
    assert (0, 2) in ff.order_edges
    assert (0, 1) in ff.order_edges
    assert (3, 3) in ff.order_edges
    # block 4 is a bare ret: empty DDG, so no order edge may touch it
    assert all(4 not in edge for edge in ff.order_edges)


def test_order_edges_dropped_with_empty_ddg_endpoints():
    text = make_listing([
        ("f", [
            "mov    eax, ebx",
            "je     100c",
            "add    ecx, 1",     # block 1: no mov family -> empty DDG
            "mov    edx, 1",
            "ret",
        ]),
    ])
    ff = build_feature_file(text, "p", PARAMS)
    assert ff.feature_set.diagnostics["empty_ddgs"] == 1
    assert ff.feature_set.diagnostics["dropped_order_edges"] >= 1
    for a, b in ff.order_edges:
        assert a in ff.block_map and b in ff.block_map


def test_every_exported_name_resolves():
    missing = [name for name in ddghash.__all__ if not hasattr(ddghash, name)]
    assert missing == []
    # perfbench/checks.py re-segments and re-hashes listings through these
    assert {"parse_listing_with_report", "segment", "InstructionFamilyPolicy",
            "LabelMode", "build_ddg"} <= set(ddghash.__all__)


def test_wl_refine_accepts_caller_labels():
    g = make_graph(3, {(0, 1), (1, 2)})
    custom = {0: "alpha", 1: "alpha", 2: "beta"}
    once = wl_refine(g, custom)
    assert set(once) == {0, 1, 2}
    assert all(len(v) == 32 for v in once.values())
    # seeding nodes differently must not collapse them
    assert len(set(once.values())) >= len(set(custom.values()))


def test_operand_field_invariants_on_generated_corpus():
    rng = random.Random(97)
    text = render_listing(gen_instructions(rng, 400), att=False, seed=9)
    for fn in parse_listing(text):
        for ins in fn.instructions:
            assert 0 <= len(ins.operands) <= 3
            for op in ins.operands:
                if op.kind == REGISTER:
                    assert op.text in isa.REGISTERS and op.value is None
                elif op.kind == IMMEDIATE:
                    assert type(op.value) is int
                    assert op.text == f"imm:{op.value}"
                else:
                    assert op.kind == MEMORY and op.value is None
                    assert op.text.startswith("[") and op.text.endswith("]")
                    assert len(op.text) > 2


def test_att_listing_and_intel_listing_hash_identically():
    rng = random.Random(1001)
    specs = gen_instructions(rng, 200)
    fa = build_feature_file(render_listing(specs, att=True, seed=3), "p", PARAMS)
    fb = build_feature_file(render_listing(specs, att=False, seed=4), "p", PARAMS)
    assert fa.block_map == fb.block_map
    assert fa.term_counts == fb.term_counts
