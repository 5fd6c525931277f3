import random
from pathlib import Path

import pytest

from ddghash.disasm import (IMMEDIATE, MEMORY, REGISTER, Operand,
                            _parse_instruction, _split_operands, detect_syntax,
                            parse_listing, parse_listing_with_report,
                            parse_operand)
from ddghash.errors import (MalformedListing, NoInstructionsFound,
                            UnparsableOperand)
from ddghash.tfidf import load_default_dictionary

from fixtures import CMOV_BLOCK_ATT, CMOV_BLOCK_INTEL, gen_instructions, \
    make_listing, render_listing

DATA = Path(__file__).parent / "data"


def test_detect_syntax_intel_forms():
    text = "    1000:\t90\tmov    ecx, DWORD PTR [rbp-0x2c]\n"
    assert detect_syntax(text) == "intel"


def test_detect_syntax_att_forms():
    text = "    1000:\t90\tmov    %ecx, -0x2c(%rbp)\n"
    assert detect_syntax(text) == "att"


def test_detect_syntax_sample_block():
    assert detect_syntax(CMOV_BLOCK_INTEL) == "intel"
    assert detect_syntax(CMOV_BLOCK_ATT) == "att"


def test_detect_syntax_empty_input():
    with pytest.raises(NoInstructionsFound):
        detect_syntax("")


def test_detect_syntax_majority_on_mixed_evidence():
    mixed = (
        "    1000:\t90\tmov    %eax, %ebx\n"
        "    1004:\t90\tmov    ecx, edx\n"
        "    1008:\t90\tpush   $0x1\n"          # $ sigil votes att
    )
    assert detect_syntax(mixed) == "att"
    tie = (
        "    1000:\t90\tmov    %eax, %ebx\n"
        "    1004:\t90\tmov    ecx, edx\n"
    )
    assert detect_syntax(tie) == "intel"


def test_detect_syntax_bare_branch_targets_abstain():
    # a plt-stub-heavy prologue must not outvote the %/$ evidence
    plt = "".join(
        f"    {0x1000 + 8 * i:x}:\t90\tjmp    1020\n"
        f"    {0x1004 + 8 * i:x}:\t90\tpush   $0x{i:x}\n"
        for i in range(30)
    )
    assert detect_syntax(plt) == "att"


def test_parse_sample_block_mnemonics():
    fns = parse_listing(CMOV_BLOCK_INTEL)
    assert len(fns) == 1
    assert fns[0].name == "update_flags"
    assert [i.mnemonic for i in fns[0].instructions] == [
        "mov", "mov", "and", "or", "or", "cmp", "cmovne", "mov", "mov", "jmp",
    ]


def test_parse_empty_string():
    with pytest.raises(NoInstructionsFound):
        parse_listing("")


def test_att_and_intel_renderings_agree():
    intel = parse_listing(CMOV_BLOCK_INTEL)[0]
    att = parse_listing(CMOV_BLOCK_ATT)[0]
    assert len(intel.instructions) == len(att.instructions)
    assert intel.addresses == att.addresses
    for a, b in zip(intel.instructions, att.instructions):
        assert a.mnemonic == b.mnemonic
        assert a.operands == b.operands


def test_parse_operand_bracketless_memory():
    op = parse_operand("rbp - 44", "intel")
    assert op == Operand(kind=MEMORY, base="rbp", displacement=-44,
                         text="[rbp-44]")


def test_parse_operand_zero_immediate():
    op = parse_operand("0", "intel")
    assert op.kind == IMMEDIATE
    assert op.value == 0
    assert op.text == "imm:0"


def test_parse_operand_att_hex_displacement():
    op = parse_operand("-0x2c(%rbp)", "att")
    assert op.kind == MEMORY
    assert op.base == "rbp"
    assert op.displacement == -44


def test_parse_operand_registers_and_sib():
    assert parse_operand("ecx", "intel") == Operand(kind=REGISTER, base="ecx",
                                                    text="ecx")
    op = parse_operand("[rax+rbx*4+8]", "intel")
    assert (op.base, op.index, op.scale, op.displacement) == ("rax", "rbx", 4, 8)
    att = parse_operand("0x8(%rax,%rbx,4)", "att")
    assert att == op
    # commas inside parens or brackets, nested or not, split nothing
    for text, parts in [
        ("0x8(%rax,%rbx,4),%rcx", ["0x8(%rax,%rbx,4)", "%rcx"]),
        ("%fs:0x28(,%rax,8),%rdx", ["%fs:0x28(,%rax,8)", "%rdx"]),
        ("((%rax,%rbx)),%rcx", ["((%rax,%rbx))", "%rcx"]),
        ("a,(b,[c],d),e", ["a", "(b,[c],d)", "e"]),
        (" eax , [rbx+rcx*4],, 1 ", ["eax", "[rbx+rcx*4]", "1"]),
        ("", []),
    ]:
        assert _split_operands(text) == parts, text
    ins = _parse_instruction("lea    0x8(%rax,%rbx,4),%rcx", "att")
    assert ins.operands == (parse_operand("rcx"), op)


def test_parse_operand_size_qualifier_dropped():
    assert parse_operand("DWORD PTR [rbp-0x2c]", "intel") == \
        parse_operand("rbp - 44", "intel")


def test_parse_operand_unparsable():
    with pytest.raises(UnparsableOperand):
        parse_operand("{bogus}", "intel")
    # unbalanced brackets: a comma splits only while the count of open
    # brackets is zero, and an early close makes it negative
    for text, parts in [
        ("(%rax,%rbx", ["(%rax,%rbx"]),
        ("%eax),(%ebx,%ecx", ["%eax),(%ebx", "%ecx"]),
        ("%eax),%ebx,(%ecx", ["%eax),%ebx,(%ecx"]),
        ("eax], [rbx, ecx", ["eax], [rbx", "ecx"]),
        ("(]a,b[)", ["(]a", "b[)"]),
    ]:
        assert _split_operands(text) == parts, text
    with pytest.raises(UnparsableOperand):
        _parse_instruction("mov    eax], [rbx, ecx", "intel")
    # AT&T register names, bare or as a base or index, are checked against
    # the register table as Intel ones are
    for asm in ("mov    %eax),(%ebx,%ecx", "mov    %bogus,%eax",
                "mov    (%bogus),%eax", "mov    0x8(%rax,%bogus,4),%eax",
                "mov    %,%eax"):
        with pytest.raises(UnparsableOperand):
            _parse_instruction(asm, "att")


def test_operand_canonical_text_reparses_equal():
    rng = random.Random(11)
    specs = gen_instructions(rng, 300)
    texts = [render_listing(specs, att=att, seed=3) for att in (False, True)]
    texts += [path.read_text() for path in sorted(DATA.glob("*.objdump"))]
    assert len(texts) == 5
    for text in texts:
        for fn in parse_listing(text):
            for ins in fn.instructions:
                for op in ins.operands:
                    assert parse_operand(op.text, "intel") == op


def test_round_trip_determinism():
    a = parse_listing(CMOV_BLOCK_INTEL)
    b = parse_listing(CMOV_BLOCK_INTEL)
    assert a == b


def test_addresses_strictly_increasing():
    fns = parse_listing(CMOV_BLOCK_INTEL)
    addrs = list(fns[0].addresses)
    assert len(addrs) == len(fns[0].instructions)
    assert addrs == sorted(set(addrs))


def test_non_monotonic_address_counts_malformed():
    text = make_listing([("f", ["mov eax, ebx"] * 15)])
    lines = text.splitlines()
    # duplicate an instruction line verbatim: address repeats
    lines.insert(7, lines[6])
    _, report = parse_listing_with_report("\n".join(lines))
    assert len(report.malformed) == 1
    assert "non-increasing" in report.malformed[0][1]


def test_malformed_threshold():
    bad = "\n".join(f"    {0x1000 + i:x}:\t90\tmov [}}junk{{], eax"
                    for i in range(10))
    with pytest.raises(MalformedListing):
        parse_listing(f"0000000000001000 <f>:\n{bad}\n")


def test_few_malformed_lines_tolerated():
    lines = [f"mov    eax, {i}" for i in range(20)] + ["mov [}junk{], eax"]
    text = make_listing([("f", lines)])
    fns, report = parse_listing_with_report(text)
    assert len(report.malformed) == 1
    assert report.instructions == 20
    assert len(fns[0].instructions) == 20


def test_byte_continuation_and_data_lines_skipped():
    text = (
        "0000000000001000 <f>:\n"
        "    1000:\t48 8b 05 c9 9f 01 00 \tmov    rax, QWORD PTR [rip+0x19fc9]\n"
        "    1007:\t00 01 02 03\n"
        "    100b:\t90\t.byte 0x90\n"
        "    100c:\t90\tnop\n"
    )
    fns, report = parse_listing_with_report(text)
    assert [i.mnemonic for i in fns[0].instructions] == ["mov", "nop"]
    assert report.skipped_lines >= 2


def test_prefixes_stripped_to_flags():
    text = make_listing([("f", ["lock xchg DWORD PTR [rdi], eax",
                                "rep movsb"])])
    fns = parse_listing(text)
    first, second = fns[0].instructions
    assert first.mnemonic == "xchg"
    assert first.prefixes == ("lock",)
    assert second.mnemonic == "movsb"
    assert second.prefixes == ("rep",)


def test_annotations_and_comments_stripped():
    text = (
        "0000000000001000 <f>:\n"
        "    1000:\te8 00 00 00 00\tcall   4016 <helper+0x16>\n"
        "    1005:\t48 8b 05 00 00 00 00\tmov    rax, QWORD PTR [rip+0x2c]"
        "        # 1dfd8 <x@Base>\n"
    )
    fns = parse_listing(text)
    call, mov = fns[0].instructions
    assert call.operands[0].kind == IMMEDIATE
    assert call.operands[0].value == 0x4016
    assert mov.operands[1].text == "[rip+44]"


def test_generated_corpus_parses_identically_in_both_syntaxes():
    rng = random.Random(2024)
    specs = gen_instructions(rng, 600)
    intel_fns = parse_listing(render_listing(specs, att=False, seed=5))
    att_fns = parse_listing(render_listing(specs, att=True, seed=6))
    assert [f.addresses for f in intel_fns] == [f.addresses for f in att_fns]
    intel = [i for f in intel_fns for i in f.instructions]
    att = [i for f in att_fns for i in f.instructions]
    assert len(intel) == len(att) == 600
    for a, b in zip(intel, att):
        assert (a.mnemonic, a.operands, a.prefixes) == \
            (b.mnemonic, b.operands, b.prefixes)


@pytest.mark.parametrize("att_name, intel_name", [
    ("cbtw", "cbw"), ("cwtl", "cwde"), ("cltq", "cdqe"),
    ("cwtd", "cwd"), ("cltd", "cdq"), ("cqto", "cqo"),
])
def test_att_sign_extension_aliases_give_intel_records(att_name, intel_name):
    def records(name, syntax):
        fn = parse_listing(make_listing([("f", [name])]), syntax=syntax)[0]
        return [(address, i.mnemonic, i.operands, i.prefixes)
                for address, i in zip(fn.addresses, fn.instructions)]

    assert records(att_name, "att") == records(intel_name, "intel") == \
        [(0x1000, intel_name, (), ())]
    # both spellings fall on one stem, so folding leaves feature files as they were
    stem = load_default_dictionary().stem
    assert stem(att_name) == stem(intel_name) == "other"


def test_string_moves_keep_their_att_names():
    fns = parse_listing(make_listing([("f", ["rep movsq %ds:(%rsi),%es:(%rdi)",
                                             "cvtsi2sdl %eax,%xmm0"])]))
    assert [i.mnemonic for i in fns[0].instructions] == ["movsq", "cvtsi2sdl"]


@pytest.mark.parametrize("att, intel", [
    ("fildll 0x20(%rsp)", "fild   QWORD PTR [rsp+0x20]"),
    ("fildl  0x44(%rsp)", "fild   DWORD PTR [rsp+0x44]"),
    ("fistpll 0x20(%rsp)", "fistp  QWORD PTR [rsp+0x20]"),
    ("fstpt  (%rsp)", "fstp   TBYTE PTR [rsp]"),
    ("fldt   0x30(%rsp)", "fld    TBYTE PTR [rsp+0x30]"),
    ("flds   0xd2ad(%rip)", "fld    DWORD PTR [rip+0xd2ad]"),
    ("fadds  0xd30a(%rip)", "fadd   DWORD PTR [rip+0xd30a]"),
    ("fmull  0x8(%rax)", "fmul   QWORD PTR [rax+0x8]"),
    ("fisubrs (%rax)", "fisubr WORD PTR [rax]"),
    # a memory operand or an st(0) destination is never swapped
    ("fsubs  (%rax)", "fsub   DWORD PTR [rax]"),
    ("fdivrl (%rax)", "fdivr  QWORD PTR [rax]"),
    ("fsub   %st(1),%st", "fsub   st,st(1)"),
    # AT&T swaps the reversed forms when the destination is st(i), i != 0
    ("fsub   %st,%st(1)", "fsubr  st(1),st"),
    ("fsubr  %st,%st(2)", "fsub   st(2),st"),
    ("fdivrp %st,%st(1)", "fdivp  st(1),st"),
    ("fdivp  %st,%st(1)", "fdivrp st(1),st"),
    ("fldl2t", "fldl2t"), ("fldl2e", "fldl2e"), ("fldlg2", "fldlg2"),
])
def test_x87_att_forms_give_intel_records(att, intel):
    a = _parse_instruction(att, "att")
    b = _parse_instruction(intel, "intel")
    assert (a.mnemonic, a.operands) == (b.mnemonic, b.operands)
    # every x87 spelling stems to "other", so folding leaves files as they were
    stem = load_default_dictionary().stem
    assert stem(att.split()[0]) == stem(b.mnemonic) == "other"


def test_repeated_malformed_text_reported_at_each_line():
    bad = "mov [}junk{], eax"
    lines = [f"mov    eax, {i}" for i in range(20)]
    text = make_listing([("f", lines[:10] + [bad] + lines[10:] + [bad])])
    fns, report = parse_listing_with_report(text)
    numbered = [n for n, line in enumerate(text.splitlines(), 1) if bad in line]
    assert [m[0] for m in report.malformed] == numbered
    assert len(numbered) == 2
    assert report.instructions == 20


def test_repeated_text_gets_its_own_address():
    text = make_listing([("f", ["mov    eax, DWORD PTR [rbp-0x2c]", "nop",
                                "mov    eax, DWORD PTR [rbp-0x2c]"])])
    fn = parse_listing(text)[0]
    first, _, third = fn.instructions
    assert first is third  # one record per distinct text
    assert (fn.addresses[0], fn.addresses[2]) == (0x1000, 0x1008)
    assert first.operands[1].text == "[rbp-44]"


def test_same_text_parses_per_syntax():
    # a bare number is a memory reference in AT&T and an immediate in Intel
    text = make_listing([("f", ["push   10", "push   10"])])
    att = parse_listing(text, syntax="att")[0].instructions
    intel = parse_listing(text, syntax="intel")[0].instructions
    again = parse_listing(text, syntax="att")[0].instructions
    assert att == again
    for a, b in zip(att, intel):
        assert a.operands == (parse_operand("[10]"),)
        assert b.operands == (parse_operand("imm:10"),)
        assert a == _parse_instruction(a.raw_text, "att")
        assert b == _parse_instruction(b.raw_text, "intel")
