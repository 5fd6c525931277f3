import random
from itertools import accumulate

from ddghash.blocks import DANGLING, EXTERNAL, INDIRECT, segment
from ddghash.disasm import parse_listing_with_report
from ddghash.isa import control_kind

from fixtures import CMOV_BLOCK_INTEL, make_listing


def _blocks_for(text):
    fns, _ = parse_listing_with_report(text)
    assert len(fns) == 1
    return segment(fns[0])


def _edges(blocks):
    return {(b.id, s) for b in blocks for s in b.successors}


def _start_addresses(fn, blocks):
    """The address of each block's first instruction: blocks partition fn
    in order, so each starts after the instructions of those before it."""
    sizes = [len(b.instructions) for b in blocks[:-1]]
    return [fn.addresses[i] for i in accumulate(sizes, initial=0)]


def test_sample_block_is_single_block():
    blocks = _blocks_for(CMOV_BLOCK_INTEL)
    assert len(blocks) == 1
    assert len(blocks[0].instructions) == 10


def test_plain_movs_form_one_block():
    text = make_listing([("f", ["mov eax, ebx", "mov ebx, ecx", "mov ecx, 1"])])
    blocks = _blocks_for(text)
    assert len(blocks) == 1


def test_leader_rules():
    # mov; je L; mov; L: mov; ret  -- leaders at 0, 2, 3
    # step=4 from 0x1000: target L sits at 0x100c
    text = make_listing([("f", [
        "mov    eax, ebx",
        "je     100c",
        "mov    ecx, edx",
        "mov    edx, esi",
        "ret",
    ])])
    fn = parse_listing_with_report(text)[0][0]
    blocks = segment(fn)
    assert _start_addresses(fn, blocks) == [0x1000, 0x1008, 0x100c]
    assert [len(b.instructions) for b in blocks] == [2, 1, 2]


def test_leader_rules_edges():
    text = make_listing([("f", [
        "mov    eax, ebx",
        "je     100c",
        "mov    ecx, edx",
        "mov    edx, esi",
        "ret",
    ])])
    blocks = _blocks_for(text)
    # the jump to 2 and the fall-through to 1, then 1 falls through to 2
    assert _edges(blocks) == {(0, 2), (0, 1), (1, 2)}
    assert [b.exit for b in blocks] == [None, None, None]


def test_single_block_has_no_edges():
    blocks = _blocks_for(make_listing([("f", ["mov eax, ebx", "ret"])]))
    assert _edges(blocks) == set()
    assert blocks[0].exit is None


def test_external_jump_recorded():
    blocks = _blocks_for(CMOV_BLOCK_INTEL)
    assert _edges(blocks) == set()
    assert blocks[0].exit == EXTERNAL
    assert blocks[0].instructions[-1].operands[0].value == 0x100000000


def test_call_ends_block_and_adds_return_edge():
    text = make_listing([("f", [
        "mov    eax, ebx",
        "call   9000",
        "mov    ecx, edx",
        "ret",
    ])])
    blocks = _blocks_for(text)
    assert [len(b.instructions) for b in blocks] == [2, 2]
    assert _edges(blocks) == {(0, 1)}
    # calls resolve no interprocedural edge even though the target is known
    assert [b.exit for b in blocks] == [None, None]


def test_indirect_jump_counts_only():
    text = make_listing([("f", [
        "mov    eax, ebx",
        "jmp    rax",
        "mov    ecx, edx",
        "ret",
    ])])
    blocks = _blocks_for(text)
    assert len(blocks) == 2
    assert _edges(blocks) == set()
    assert [b.exit for b in blocks] == [INDIRECT, None]


def test_dangling_target_recorded_not_fatal():
    # jump into the middle of an instruction span: no block starts there
    text = make_listing([("f", [
        "mov    eax, ebx",
        "je     1009",
        "mov    ecx, edx",
        "ret",
    ])], step=4)
    blocks = _blocks_for(text)
    assert blocks[0].exit == DANGLING
    assert blocks[0].instructions[-1].operands[0].value == 0x1009
    # the conditional jump still falls through
    assert _edges(blocks) == {(0, 1)}


def test_conditional_jump_out_degree_at_most_two():
    text = make_listing([("f", [
        "cmp    eax, 0",
        "je     1010",
        "mov    ecx, edx",
        "mov    edx, esi",
        "jne    1000",
        "ret",
    ])])
    blocks = _blocks_for(text)
    assert _edges(blocks) == {(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)}
    for b in blocks:
        assert len(b.successors) <= 2


def _random_function_text(rng, n):
    lines = []
    for i in range(n - 1):
        r = rng.randrange(8)
        if r == 0:
            target = 0x1000 + 4 * rng.randrange(n)
            lines.append(f"je     {target:x}")
        elif r == 1:
            target = 0x1000 + 4 * rng.randrange(n)
            lines.append(f"jmp    {target:x}")
        elif r == 2:
            lines.append("call   8000")
        elif r == 3:
            lines.append("ret")
        else:
            lines.append(f"mov    eax, {rng.randrange(64)}")
    lines.append("ret")
    return make_listing([("f", lines)])


def test_partition_property_random_functions():
    rng = random.Random(99)
    for _ in range(30):
        text = _random_function_text(rng, rng.randint(2, 60))
        fn = parse_listing_with_report(text)[0][0]
        blocks = segment(fn)
        rebuilt = tuple(i for b in blocks for i in b.instructions)
        assert rebuilt == fn.instructions
        # control transfers only in final slots
        for b in blocks:
            for ins in b.instructions[:-1]:
                assert control_kind(ins.mnemonic) is None


def test_leader_soundness_random_functions():
    rng = random.Random(1234)
    for _ in range(30):
        text = _random_function_text(rng, rng.randint(2, 60))
        fn = parse_listing_with_report(text)[0][0]
        blocks = segment(fn, first_id=7)
        assert [b.id for b in blocks] == list(range(7, 7 + len(blocks)))
        block_at = {address: b.id
                    for address, b in zip(_start_addresses(fn, blocks), blocks)}
        for pos, b in enumerate(blocks):
            last = b.instructions[-1]
            kind = control_kind(last.mnemonic)
            expected = set()
            if kind in ("jump", "cond"):
                # a resolved direct jump's successor starts at its target
                expected.add(block_at[last.operands[0].value])
            if kind not in ("jump", "ret") and pos + 1 < len(blocks):
                expected.add(blocks[pos + 1].id)
            assert b.successors == expected
            assert b.exit is None
