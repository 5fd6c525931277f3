import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddghash import isa
from ddghash.cli import main
from ddghash.disasm import (_HEX_TARGET_RE, _LINE_RE, _MNEMONIC_OK_RE,
                            IMMEDIATE, MEMORY, REGISTER, Operand, _mnemonic,
                            _parse_instruction, _parse_operand_cached,
                            _split_nested, _split_operands,
                            parse_listing_with_report)
from ddghash.errors import (MalformedListing, NoInstructionsFound,
                            UnparsableOperand)
from ddghash.tfidf import load_default_dictionary

from fixtures import (BASE64, CMOV_BLOCK_ATT, CMOV_BLOCK_INTEL, LS,
                      gen_instructions, make_listing, objdump_listings,
                      operand_of, render_listing)

DATA = Path(__file__).parent / "data"


def _voted(text):
    """The syntax the parse votes for text, also where it then refuses
    the listing for its malformed lines."""
    try:
        return parse_listing_with_report(text)[1].syntax
    except MalformedListing as exc:
        return exc.report.syntax


def test_detect_syntax_intel_forms():
    text = "    1000:\t90\tmov    ecx, DWORD PTR [rbp-0x2c]\n"
    assert _voted(text) == "intel"


def test_detect_syntax_att_forms():
    text = "    1000:\t90\tmov    %ecx, -0x2c(%rbp)\n"
    assert _voted(text) == "att"


def test_detect_syntax_sample_block():
    assert _voted(CMOV_BLOCK_INTEL) == "intel"
    assert _voted(CMOV_BLOCK_ATT) == "att"


def test_detect_syntax_empty_input():
    with pytest.raises(NoInstructionsFound):
        _voted("")


def test_detect_syntax_majority_on_mixed_evidence():
    mixed = (
        "    1000:\t90\tmov    %eax, %ebx\n"
        "    1004:\t90\tmov    ecx, edx\n"
        "    1008:\t90\tpush   $0x1\n"          # $ sigil votes att
    )
    assert _voted(mixed) == "att"
    tie = (
        "    1000:\t90\tmov    %eax, %ebx\n"
        "    1004:\t90\tmov    ecx, edx\n"
    )
    assert _voted(tie) == "intel"


def test_detect_syntax_bare_branch_targets_abstain():
    # a plt-stub-heavy prologue must not outvote the %/$ evidence
    plt = "".join(
        f"    {0x1000 + 8 * i:x}:\t90\tjmp    1020\n"
        f"    {0x1004 + 8 * i:x}:\t90\tpush   $0x{i:x}\n"
        for i in range(30)
    )
    assert _voted(plt) == "att"
    # so do starred ones, the AT&T spelling of an absolute indirect jump
    starred = "    1000:\t90\tjmp    *0x2020\n    1004:\t90\tpush   $0x1\n"
    assert _voted(starred) == "att"


def test_parse_sample_block_mnemonics():
    fns, _ = parse_listing_with_report(CMOV_BLOCK_INTEL)
    assert len(fns) == 1
    assert fns[0].name == "update_flags"
    assert [i.mnemonic for i in fns[0].instructions] == [
        "mov", "mov", "and", "or", "or", "cmp", "cmovne", "mov", "mov", "jmp",
    ]


def test_parse_empty_string():
    with pytest.raises(NoInstructionsFound):
        parse_listing_with_report("")
    # the form `objdump -d --prefix-addresses` prints is not read, and the
    # message says what is
    prefix_addresses = (
        "Disassembly of section .init:\n"
        "0000000000002000 <.init> sub    $0x8,%rsp\n"
        "0000000000002004 <.init+0x4> test   %rax,%rax\n")
    with pytest.raises(NoInstructionsFound,
                       match=r"an indented hex address and ':', as `objdump -d` "
                             r"prints it \(`objdump --prefix-addresses` output"):
        parse_listing_with_report(prefix_addresses)


def test_att_and_intel_renderings_agree():
    intel = parse_listing_with_report(CMOV_BLOCK_INTEL)[0][0]
    att = parse_listing_with_report(CMOV_BLOCK_ATT)[0][0]
    assert len(intel.instructions) == len(att.instructions)
    assert intel.addresses == att.addresses
    for a, b in zip(intel.instructions, att.instructions):
        assert a.mnemonic == b.mnemonic
        assert a.operands == b.operands


def test_parse_operand_bracketless_memory():
    op = operand_of("rbp - 44", "intel")
    assert op == Operand(kind=MEMORY, text="[rbp-44]")


def test_parse_operand_zero_immediate():
    op = operand_of("0", "intel")
    assert op.kind == IMMEDIATE
    assert op.value == 0
    assert op.text == "imm:0"


def test_parse_operand_att_hex_displacement():
    op = operand_of("-0x2c(%rbp)", "att")
    assert (op.kind, op.value, op.text) == (MEMORY, None, "[rbp-44]")


def test_parse_operand_registers_and_sib():
    assert operand_of("ecx", "intel") == Operand(kind=REGISTER, text="ecx")
    op = operand_of("[rax+rbx*4+8]", "intel")
    assert op == Operand(kind=MEMORY, text="[rax+rbx*4+8]")
    att = operand_of("0x8(%rax,%rbx,4)", "att")
    assert att == op
    # an AT&T index without a scale has scale 1
    assert operand_of("(%rax,%rbx)", "att") == Operand(kind=MEMORY, text="[rax+rbx]")
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
    assert ins.operands == (operand_of("rcx"), op)


def test_parse_operand_size_qualifier_dropped():
    assert operand_of("DWORD PTR [rbp-0x2c]", "intel") == \
        operand_of("rbp - 44", "intel")


def test_parse_operand_unparsable():
    with pytest.raises(UnparsableOperand):
        operand_of("{bogus}", "intel")
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


# (syntax, asm text) of instructions the parser rejects, one per reason
_REJECTED = [
    ("att", "mov    (),%eax"),                 # no base, index or displacement
    ("intel", "mov    eax, [2*4]"),            # a scaled term with no register
    ("intel", "mov    eax, [rax*2+rbx*2]"),    # two scaled indexes
    ("intel", "mov    eax, [rax+rbx*3]"),      # a scale not 1, 2, 4 or 8
    ("intel", "mov    eax, [rax+rbx+rcx]"),    # three registers
    ("intel", "mov    eax, []"),               # an empty expression
    ("intel", "mov    eax, [rax+]"),           # a sign with no term after it
    ("att", "mov    $x,%eax"),                 # an immediate that is no number
    ("att", "mov    (%a,%b,%c,%d),%eax"),      # four fields in parentheses
    ("att", "mov    (%rax,%rbx,3),%eax"),      # an AT&T scale not 1, 2, 4 or 8
    ("att", "mov    x(%rax),%eax"),            # a displacement that is no number
    ("intel", "mov    eax, imm:x"),            # canonical immediate text, no number
    ("intel", "MOV!   eax, ebx"),              # a mnemonic with punctuation
    ("intel", "vblendvps xmm0, xmm1, xmm2, xmm3"),  # four operands
    ("att", "mov    abc,%rax"),                # an absolute address that is no number
    ("att", "mov    1f,%rax"),                 # a local label, not a branch target
    ("intel", "mov    eax, [rax*]"),           # a scale with no number
    ("intel", "mov    eax, [rbx+rax*x]"),      # a scale that is no number
]

# (syntax, operand, the text its error names) of operands with a number
# missing or misspelt; an Intel memory error names the bracket's contents
_NOT_NUMBERS = [
    ("att", "abc", "abc"),
    ("att", "1f", "1f"),
    ("att", "$x", "$x"),
    ("att", "x(%rax)", "x(%rax)"),
    ("att", "(%rax,%rbx,z)", "(%rax,%rbx,z)"),
    ("intel", "[rax*]", "rax*"),
    ("intel", "[rbx+rax*x]", "rbx+rax*x"),
    ("intel", "[rbx+y]", "rbx+y"),
    ("intel", "imm:x", "imm:x"),
]


@pytest.mark.parametrize("syntax, operand, named", _NOT_NUMBERS,
                         ids=[op for _, op, _ in _NOT_NUMBERS])
def test_a_missing_number_names_the_whole_operand(syntax, operand, named):
    with pytest.raises(UnparsableOperand) as info:
        operand_of(operand, syntax)
    assert str(info.value) == f"cannot parse operand {named!r}"


@pytest.mark.parametrize("att", [True, False], ids=["att", "intel"])
def test_every_malformed_reason_is_an_operand_or_an_address(att):
    # the bad lines of _NOT_NUMBERS and one good line, each after a random
    # line and at its address, in a generated listing
    rng = random.Random(11)
    lines = render_listing(gen_instructions(rng, 80), att).splitlines()
    syntax = "att" if att else "intel"
    injected = [f"mov    {op},%rax" if att else f"mov    rax, {op}"
                for s, op, _ in _NOT_NUMBERS if s == syntax] + ["nop"]
    for asm in injected:
        at = rng.choice([i for i, line in enumerate(lines) if line.startswith("    ")])
        address = lines[at].split(":")[0]
        lines.insert(at + 1, f"{address}:\t90\t{asm}")
    try:
        _, report = parse_listing_with_report("\n".join(lines))
    except MalformedListing as exc:
        report = exc.report
    reasons = [reason for _, reason, _ in report.malformed]
    assert len(reasons) == len(injected)
    assert reasons.count("non-increasing address") == 1
    assert all(r.startswith("cannot parse operand ") or r == "non-increasing address"
               for r in reasons)
    assert report.instruction_shaped == report.instructions + len(report.malformed)
    assert report.instruction_shaped == 80 + len(injected)


@pytest.mark.parametrize("syntax, asm", _REJECTED, ids=[asm for _, asm in _REJECTED])
def test_rejected_instructions_raise_and_fail_ingest(tmp_path, capsys, syntax, asm):
    with pytest.raises(UnparsableOperand) as info:
        _parse_instruction(asm, syntax)
    # a listing of that one line, its line 6, is all malformed, so ingest
    # refuses it and says where
    listing = tmp_path / "p.objdump"
    listing.write_text(make_listing([("f", [asm])]))
    assert _voted(listing.read_text()) == syntax
    corpus = tmp_path / "corpus"
    assert main(["-C", str(corpus), "ingest", str(listing)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{listing}: 1 of 1 instruction-shaped lines "
                              f"are malformed, the first at line 6: "
                              f"{info.value}\n")
    assert not corpus.exists() or not any(corpus.iterdir())


def test_listing_of_data_and_undecodable_bytes_has_no_instructions(tmp_path, capsys):
    text = make_listing([("f", [".byte  0x90", "(bad)", ".byte  0xff"])])
    with pytest.raises(NoInstructionsFound):
        parse_listing_with_report(text)
    listing = tmp_path / "p.objdump"
    listing.write_text(text)
    assert main(["-C", str(tmp_path / "corpus"), "ingest", str(listing)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{listing}: no instruction lines in input")


def test_operand_canonical_text_reparses_equal():
    rng = random.Random(11)
    specs = gen_instructions(rng, 300)
    texts = [render_listing(specs, att=att, seed=3) for att in (False, True)]
    texts += [path.read_text() for path in sorted(DATA.glob("*.objdump"))]
    assert len(texts) == 5
    for text in texts:
        for fn in parse_listing_with_report(text)[0]:
            for ins in fn.instructions:
                for op in ins.operands:
                    assert operand_of(op.text, "intel") == op


_BASES = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp", "r8", "r13",
          "eax", "r9d", "rip"]
_INDEXES = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "r8", "r15", "ecx"]


def _number(draw, value):
    return hex(value) if draw(st.booleans()) else str(value)


@st.composite
def _operands(draw):
    """(kind, Intel text, AT&T text) of one operand, as objdump may print it."""
    kind = draw(st.sampled_from([REGISTER, IMMEDIATE, MEMORY]))
    if kind == REGISTER:
        name = draw(st.sampled_from(sorted(isa.REGISTERS)))
        return kind, name, f"%{name}"
    if kind == IMMEDIATE:
        value = _number(draw, draw(st.integers(-(1 << 63), (1 << 64) - 1)))
        return kind, value, f"${value}"
    base = draw(st.none() | st.sampled_from(_BASES))
    index = draw(st.none() | st.sampled_from(_INDEXES))
    scale = draw(st.sampled_from([1, 2, 4, 8]))
    terms = [base] if base else []
    if index:
        terms.append(f"{index}*{scale}" if draw(st.booleans()) else f"{scale}*{index}")
    displacements = st.integers(-(1 << 63), (1 << 63) - 1)
    disp = draw((displacements | st.none()) if terms else displacements)
    # a negative displacement prints signed or as 64-bit two's complement
    # hex; without a register, only as the latter
    if disp is not None and disp < 0 and (not terms or draw(st.booleans())):
        disp &= (1 << 64) - 1
    signed = "" if disp is None else _number(draw, disp)
    expr = "+".join(terms)
    if signed:
        expr += signed if signed.startswith("-") or not expr else f"+{signed}"
    size = draw(st.sampled_from(["", "QWORD PTR ", "BYTE PTR "]))
    segment = draw(st.sampled_from(["", "fs:"]))
    att_segment = f"%{segment}" if segment else ""
    if not terms:  # an absolute address: Intel may leave out the brackets
        bare = draw(st.booleans())
        intel = f"{segment or 'ds:'}{expr}" if bare else f"{segment}[{expr}]"
        return kind, f"{size}{intel}", f"{att_segment}{signed}"
    registers = (f"%{base}" if base else "") + (f",%{index},{scale}" if index else "")
    return kind, f"{size}{segment}[{expr}]", f"{att_segment}{signed}({registers})"


@settings(deadline=None)
@given(_operands())
def test_generated_operand_canonical_text_reparses_equal(case):
    kind, intel, att = case
    op = operand_of(intel, "intel")
    assert op.kind == kind
    assert operand_of(att, "att") == op
    assert operand_of(op.text, "intel") == op


def test_round_trip_determinism():
    a, _ = parse_listing_with_report(CMOV_BLOCK_INTEL)
    b, _ = parse_listing_with_report(CMOV_BLOCK_INTEL)
    assert a == b


def test_addresses_strictly_increasing():
    fns, _ = parse_listing_with_report(CMOV_BLOCK_INTEL)
    addrs = list(fns[0].addresses)
    assert len(addrs) == len(fns[0].instructions)
    assert addrs == sorted(set(addrs))


def test_instructions_before_any_header_form_one_unnamed_function():
    text = make_listing([("f", ["mov    eax, ebx", "add    eax, 1", "ret"])],
                        start=0x4a0)
    headerless = "\n".join(line for line in text.splitlines()
                           if not line.endswith("<f>:"))
    fns, report = parse_listing_with_report(headerless)
    assert [(fn.name, fn.addresses) for fn in fns] == [
        ("unnamed_4a0", (0x4a0, 0x4a4, 0x4a8))]
    (fn,), _ = parse_listing_with_report(text)
    assert fns[0].instructions == fn.instructions
    assert (report.functions, report.instructions) == (1, 3)


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
        parse_listing_with_report(f"0000000000001000 <f>:\n{bad}\n")


def test_few_malformed_lines_tolerated():
    lines = [f"mov    eax, {i}" for i in range(20)] + ["mov [}junk{], eax"]
    text = make_listing([("f", lines)])
    fns, report = parse_listing_with_report(text)
    assert len(report.malformed) == 1
    assert report.instructions == 20
    assert len(fns[0].instructions) == 20


def test_source_line_shaped_like_a_hex_label_is_one_malformed_line():
    # an `objdump -S` source line can read as an instruction at address
    # beef; it fails on its operand and changes no other count
    lines = (DATA / "true_att.objdump").read_text().splitlines()
    line_no = lines.index("  beef: x = 1;") + 1
    fns, report = parse_listing_with_report("\n".join(lines))
    del lines[line_no - 1]
    clean_fns, clean = parse_listing_with_report("\n".join(lines))
    assert report.malformed == [(line_no, "cannot parse operand '= 1;'",
                                 "  beef: x = 1;")]
    assert clean.malformed == []
    assert report.instruction_shaped == clean.instruction_shaped + 1
    for count in ("syntax", "functions", "instructions", "skipped_lines",
                  "distinct_asm_texts"):
        assert getattr(report, count) == getattr(clean, count), count
    assert fns == clean_fns


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
    fns, _ = parse_listing_with_report(text)
    first, second = fns[0].instructions
    assert first.mnemonic == "xchg"
    assert first.prefixes == ("lock",)
    assert second.mnemonic == "movsb"
    assert second.prefixes == ("rep",)
    # AT&T text folds a string move's size suffix only beside its two
    # memory operands
    assert _parse_instruction("rep movsb", "att") == second


def test_annotations_and_comments_stripped():
    text = (
        "0000000000001000 <f>:\n"
        "    1000:\te8 00 00 00 00\tcall   4016 <helper+0x16>\n"
        "    1005:\t48 8b 05 00 00 00 00\tmov    rax, QWORD PTR [rip+0x2c]"
        "        # 1dfd8 <x@Base>\n"
    )
    fns, _ = parse_listing_with_report(text)
    call, mov = fns[0].instructions
    assert call.operands[0].kind == IMMEDIATE
    assert call.operands[0].value == 0x4016
    assert mov.operands[1].text == "[rip+44]"


def test_generated_corpus_parses_identically_in_both_syntaxes():
    rng = random.Random(2024)
    specs = gen_instructions(rng, 600)
    intel_fns, _ = parse_listing_with_report(render_listing(specs, att=False, seed=5))
    att_fns, _ = parse_listing_with_report(render_listing(specs, att=True, seed=6))
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
        (fn,), _ = parse_listing_with_report(make_listing([("f", [name])]),
                                             syntax=syntax)
        return [(address, i.mnemonic, i.operands, i.prefixes)
                for address, i in zip(fn.addresses, fn.instructions)]

    assert records(att_name, "att") == records(intel_name, "intel") == \
        [(0x1000, intel_name, (), ())]
    # both spellings fall on one stem, so folding leaves feature files as they were
    stem = load_default_dictionary().stem
    assert stem(att_name) == stem(intel_name) == "other"


# (AT&T text, Intel text, the stem of both)
_STRING_OPS_AND_CVTSI2S = [
    # a string move or compare has two memory operands; AT&T names its size
    ("rep movsq %ds:(%rsi),%es:(%rdi)",
     "rep movs QWORD PTR es:[rdi],QWORD PTR ds:[rsi]", "string"),
    ("movsl  %ds:(%rsi),%es:(%rdi)",
     "movs   DWORD PTR es:[rdi],DWORD PTR ds:[rsi]", "string"),
    ("movsw  %ds:(%rsi),%es:(%rdi)",
     "movs   WORD PTR es:[rdi],WORD PTR ds:[rsi]", "string"),
    ("movsb  %ds:(%rsi),%es:(%rdi)",
     "movs   BYTE PTR es:[rdi],BYTE PTR ds:[rsi]", "string"),
    ("repz cmpsb %es:(%rdi),%ds:(%rsi)",
     "repz cmps BYTE PTR ds:[rsi],BYTE PTR es:[rdi]", "string"),
    ("cmpsq  %es:(%rdi),%ds:(%rsi)",
     "cmps   QWORD PTR ds:[rsi],QWORD PTR es:[rdi]", "string"),
    # SSE movsd has a register operand and keeps its name
    ("movsd  (%rax),%xmm1", "movsd  xmm1,QWORD PTR [rax]", "string"),
    ("movsd  %xmm0,0x8(%rsp)", "movsd  QWORD PTR [rsp+0x8],xmm0", "string"),
    # the %xmm operands keep cvtsi2s* and vcvtsi2s* out of suffix folding
    ("cvtsi2sdl -0x14(%rbp),%xmm0", "cvtsi2sd xmm0,DWORD PTR [rbp-0x14]", "other"),
    ("cvtsi2sdq %rax,%xmm1", "cvtsi2sd xmm1,rax", "other"),
    ("cvtsi2ssl %eax,%xmm0", "cvtsi2ss xmm0,eax", "other"),
    ("cvtsi2ssq 0x8(%rsp),%xmm2", "cvtsi2ss xmm2,QWORD PTR [rsp+0x8]", "other"),
    ("vcvtsi2sdl (%rax),%xmm1,%xmm2", "vcvtsi2sd xmm2,xmm1,DWORD PTR [rax]", "other"),
]


@pytest.mark.parametrize("att, intel, stem", _STRING_OPS_AND_CVTSI2S,
                         ids=[case[0] for case in _STRING_OPS_AND_CVTSI2S])
def test_string_ops_and_cvtsi2s_give_intel_records(att, intel, stem):
    a = _parse_instruction(att, "att")
    b = _parse_instruction(intel, "intel")
    assert (a.mnemonic, a.operands, a.prefixes) == (b.mnemonic, b.operands, b.prefixes)
    # both spellings fall on one stem, so folding leaves feature files as they were
    stems = load_default_dictionary().stem
    assert stems(att.split()[-2]) == stems(b.mnemonic) == stem


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
    fn = parse_listing_with_report(text)[0][0]
    first, _, third = fn.instructions
    assert first is third  # one record per distinct text
    assert (fn.addresses[0], fn.addresses[2]) == (0x1000, 0x1008)
    assert first.operands[1].text == "[rbp-44]"


def test_same_text_parses_per_syntax():
    # a bare number is a memory reference in AT&T and an immediate in Intel
    text = make_listing([("f", ["push   10", "push   10"])])
    att = parse_listing_with_report(text, syntax="att")[0][0].instructions
    intel = parse_listing_with_report(text, syntax="intel")[0][0].instructions
    again = parse_listing_with_report(text, syntax="att")[0][0].instructions
    assert att == again
    for a, b in zip(att, intel):
        assert a.operands == (operand_of("[10]"),)
        assert b.operands == (operand_of("imm:10"),)
        assert a == _parse_instruction(a.raw_text, "att")
        assert b == _parse_instruction(b.raw_text, "intel")


# --- the line grammar ------------------------------------------------------

# A C++ function and its caller, as objdump -d prints them and as objdump
# -d -C does: a header name with nested "<...<...>...>", a call with a
# nested annotation and a "# ... <...>" comment.
_MANGLED = ("_ZNKSt6vectorIiSaIiEE4sizeEv", "_ZTISt6vectorIiSaIiEE")
_DEMANGLED = ("std::vector<int, std::allocator<int> >::size() const",
              "typeinfo for std::vector<int, std::allocator<int> >")


def _cpp_listing(size, typeinfo):
    return make_listing([
        (size, ["mov    rax, QWORD PTR [rdi+0x8]", "sub    rax, QWORD PTR [rdi]",
                "sar    rax, 2", "ret"]),
        ("main", [f"call   1000 <{size}>",
                  f"mov    rdx, QWORD PTR [rip+0x2fe2]     # 4018 <{typeinfo}@@Base>",
                  f"jmp    1004 <{size}+0x4>", "ret"]),
    ])


def test_demangled_listing_parses_like_its_mangled_twin():
    fns, report = parse_listing_with_report(_cpp_listing(*_DEMANGLED))
    twin_fns, twin_report = parse_listing_with_report(_cpp_listing(*_MANGLED))
    assert [f.name for f in fns] == [_DEMANGLED[0], "main"]
    assert [f.instructions for f in fns] == [f.instructions for f in twin_fns]
    assert [f.addresses for f in fns] == [f.addresses for f in twin_fns]
    assert report == twin_report
    assert (report.functions, report.instructions, report.malformed) == (2, 8, [])
    call, _, jump, _ = fns[1].instructions
    assert (call.operands[0].value, jump.operands[0].value) == (0x1000, 0x1004)


# The line scanner the pattern replaced, kept as the reference it must agree
# with: four regexes, and the annotations stripped before the "#" cut and
# the tab split.
_REF_HEADER_RE = re.compile(r"^([0-9a-fA-F]+)\s+<([^<>]+)>:\s*$")
_REF_INSTR_LINE_RE = re.compile(r"^\s+([0-9a-fA-F]+):\s*(.*)$")
_REF_BYTES_FIELD_RE = re.compile(r"^(?:[0-9a-f]{2}\s+)*[0-9a-f]{2}\s*$")
_REF_ANNOTATION_RE = re.compile(r"<[^<>]*>")


def _reference_classify(raw):
    header = _REF_HEADER_RE.match(raw)
    if header:
        return "header", header.group(2)
    m = _REF_INSTR_LINE_RE.match(raw)
    if not m:
        return None
    rest = _REF_ANNOTATION_RE.sub("", m.group(2))
    hash_pos = rest.find("#")
    if hash_pos != -1:
        rest = rest[:hash_pos]
    fields = rest.split("\t")
    if len(fields) >= 2 and _REF_BYTES_FIELD_RE.match(fields[0].strip()):
        asm = "\t".join(fields[1:]).strip()
    else:
        asm = rest.strip()
        if _REF_BYTES_FIELD_RE.match(asm):
            return None  # a byte continuation
    return ("instruction", m.group(1), asm) if asm else None


def _classify(raw):
    m = _LINE_RE.match(raw)
    if m is None:
        return None
    name, address, asm = m.groups()
    if name is not None:
        return "header", name
    return "instruction", address, asm.rstrip()


_ODD_LINES = [
    "", "   ", "\t", "sample:     file format elf64-x86-64",
    "Disassembly of section .text:", "\t...", "0000000000001000 <>:",
    "0000000000001000 <f>:   ", "1000 <f.cold>:", "0000000000001000 <f>: x",
    "    1000:\t90\tnop", "    1000:\tnop", "1000:\tnop", "    zz:\tnop",
    "  1000:\t48 89 e5             \tmov    %rsp,%rbp",
    "    1000:\t48 89 e5 \t  mov    eax, 1   ",
    "    1000:\t90\u00a0\tnop",  # a no-break space ends the bytes field
    "    1000:\tAB CD\tnop",  # upper-case hex is no bytes field
    "    1007:\t00 01 02 03", "    1007:\t00 01 02 03 ", "    1007:\t00 01 02 03\t",
    "    1007:\t00 00\t00 00",
    "    1000:\t00 00\t00 00\tnop",  # the bytes field ends at the first tab
    "    1007:  ab cd # x", "    1007:\tab <x>",
    "    1007:\tab", "    1007:\tadd", "    1000:", "    1000:\t", "    1000:\t90\t",
    "    1000:\t90\t# only a comment", "    1000:\t90\t<only an annotation>",
    "    1000:\tcall   4016 <helper+0x16>",
    "    1000:\te8 00 00 00 00\tcall   4016 <helper+0x16>",
    "    1000:\tff 25 e2 2f 00 00    \tjmp    *0x2fe2(%rip)        # 4018 <x@plt>",
    "    1000:\t90\tmov    %eax,%ebx\t# c <d>",
    "    1000:\t90\t.byte 0x90", "    1000:\t90\t(bad)", "    1000:\t90\t...",
    "    1000:\t66 2e 0f 1f 84 00 00 \tcs nopw 0x0(%rax,%rax,1)",
]


def test_line_pattern_classifies_as_the_reference_scanner():
    texts = [path.read_text() for path in sorted(DATA.glob("*.objdump"))]
    for binary in (BASE64, LS):
        texts += objdump_listings(binary) or ()
    lines = _ODD_LINES + [line for text in texts for line in text.splitlines()]
    assert len(lines) > len(_ODD_LINES) + 7000
    for line in lines:
        assert _classify(line) == _reference_classify(line), line
    # both kinds of line, and lines of neither, are in the table
    kinds = {(_classify(line) or ("neither",))[0] for line in _ODD_LINES}
    assert kinds == {"header", "instruction", "neither"}


# the opcode-bytes field as it was written before it began with a pair: the
# same language, with more backtracking
_OLD_BYTES_FIELD = r"(?:[0-9a-f]{2}[^\S\t]+)*[0-9a-f]{2}[^\S\t]*\t\s*"
_BYTES_FIELD = r"[0-9a-f]{2}(?:[^\S\t]+[0-9a-f]{2})*[^\S\t]*\t\s*"
_TEXT_PIECES = ["ab", "AB", " ", "\t", "<", ">", "#", ":", "<f>:", "1000",
                "mov", "x = 1;", "%rax"]


@settings(max_examples=500)
@given(st.sampled_from(["", "  beef:", "  beef: ", "  beef:\t"]),
       st.lists(st.tuples(st.sampled_from(["ab", "0f", "AB", "a"]),
                          st.sampled_from(["", " ", "  ", "\t", " \t", "\t ", "\u00a0"])),
                max_size=5),
       st.lists(st.sampled_from(_TEXT_PIECES), max_size=5))
def test_bytes_field_matches_as_the_backtracking_form(address, pairs, text):
    # lines of an address, hex pairs and separators, then any text
    assert _BYTES_FIELD in _LINE_RE.pattern
    old = re.compile(_LINE_RE.pattern.replace(_BYTES_FIELD, _OLD_BYTES_FIELD),
                     re.VERBOSE)
    line = address + "".join(p + sep for p, sep in pairs) + "".join(text)
    new_match, old_match = _LINE_RE.match(line), old.match(line)
    assert (new_match and new_match.groups()) == (old_match and old_match.groups())


# the operand splitter as a scan of each punctuation mark, the count of open
# brackets kept as it goes; the parser's shortcuts must split as it does
def _reference_split(text):
    parts = []
    depth = start = 0
    for m in re.finditer(r"[,()\[\]]", text):
        ch = m.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0:
            parts.append(text[start:m.start()].strip())
            start = m.end()
    parts.append(text[start:].strip())
    return [p for p in parts if p]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from([",", " ", "(", ")", "[", "]", "%rax", "0x8",
                                 "4", "a", "\t"]), max_size=12))
def test_operand_split_shortcuts_agree_with_the_bracket_count(pieces):
    text = "".join(pieces)
    assert _split_operands(text) == _reference_split(text)
    assert _split_nested(text) == _reference_split(text)


def _mnemonic_by_the_tables(token, fold):
    mnemonic = isa.normalize_mnemonic(token, fold)
    if not _MNEMONIC_OK_RE.match(mnemonic):
        raise UnparsableOperand(mnemonic)
    return mnemonic, isa.control_kind(mnemonic) in ("jump", "cond", "call")


_MNEMONIC_TOKENS = sorted(isa.CONTROL_KINDS.keys() | isa.SUFFIX_STRIP_BASES
                          | isa.X87_SUFFIX_BASES | isa.ATT_ALIASES.keys()
                          | {"movzbl", "movslq", "movsxd", "fildll", "fstpt"})


@settings(max_examples=500)
@given(st.sampled_from(_MNEMONIC_TOKENS) | st.text("aAjJlLqQsStTz0.%_-", max_size=7),
       st.sampled_from(["", "b", "w", "l", "q", "s", "t", "ll", "L"]),
       st.booleans())
def test_mnemonic_memo_agrees_with_the_tables(stem, suffix, fold):
    token = stem + suffix
    try:
        expected = _mnemonic_by_the_tables(token, fold)
    except UnparsableOperand as exc:
        for _ in range(2):  # a failure is never remembered
            with pytest.raises(UnparsableOperand) as info:
                _mnemonic(token, fold)
            assert str(info.value) == str(exc)
    else:
        assert _mnemonic(token, fold) == expected
        assert _mnemonic(token, fold) == expected  # now from the memo


@settings(max_examples=500)
@given(st.sampled_from(["att", "intel"]),
       st.sampled_from(["jmp", "call", "jne", "jrcxz", "ljmp", "lcall"]),
       st.sampled_from(["", "0x", "0X"]),
       st.text("0123456789abcdefABCDEFx", min_size=1, max_size=17))
def test_direct_branch_targets_bypass_the_memo_alike(syntax, mnemonic, prefix, digits):
    token = prefix + digits
    asm = f"{mnemonic} {token}"
    try:
        expected = _parse_operand_cached(token, syntax, True)
    except UnparsableOperand as exc:
        with pytest.raises(UnparsableOperand) as info:
            _parse_instruction(asm, syntax)
        assert str(info.value) == str(exc)
        return
    ins = _parse_instruction(asm, syntax)
    assert ins.operands == (expected,)
    if _HEX_TARGET_RE.match(token):
        assert ins.operands[0].kind == IMMEDIATE
        # the target takes no memo entry
        before = _parse_operand_cached.cache_info()
        _parse_instruction(asm, syntax)
        assert _parse_operand_cached.cache_info() == before
