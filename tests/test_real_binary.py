"""End-to-end checks against a checked-in disassembly of a real binary.

tests/data holds objdump -d output of /usr/bin/true (GNU coreutils,
x86-64) in both syntaxes. Unlike the synthetic fixtures this exercises
the long tail of real listings: plt stubs, bnd/cs prefixes, multi-byte
nops, indirect calls, rip-relative negative displacements, and the
implicit shift-by-one form. Where objdump and base64 are installed, the
parser checks also run on base64's listings, made when the tests run, and
the cross-syntax check also on those of the other CROSS_SYNTAX_BINARIES,
and, where gcc is installed too, on those of tests/data/forms.c.
Where apt-cache is installed, its demangled listing must read like its
plain one.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

from ddghash.blocks import segment
from ddghash.corpus import build_feature_file
from ddghash.disasm import (IMMEDIATE, Operand, _parse_instruction,
                            parse_listing_with_report)
from ddghash.features import FeatureParams, compare
from ddghash.tfidf import load_default_dictionary

from fixtures import (APT_CACHE, CROSS_SYNTAX_BINARIES, objdump_listings,
                      objdump_text)

DATA = Path(__file__).parent / "data"
ATT = (DATA / "true_att.objdump").read_text()
INTEL = (DATA / "true_intel.objdump").read_text()


def test_syntax_detection():
    assert parse_listing_with_report(ATT)[1].syntax == "att"
    assert parse_listing_with_report(INTEL)[1].syntax == "intel"


def test_full_listing_parses_cleanly():
    # the AT&T fixture holds one `objdump -S` source line shaped like an
    # instruction line, which fails (test_disasm pins it); no other line does
    source_line = [(1201, "cannot parse operand '= 1;'", "  beef: x = 1;")]
    for text, malformed in ((ATT, source_line), (INTEL, [])):
        fns, report = parse_listing_with_report(text)
        assert report.malformed == malformed
        assert report.functions == 40
        assert report.instructions == 2534


def _assert_same_records(att, intel):
    att_fns, _ = parse_listing_with_report(att)
    intel_fns, _ = parse_listing_with_report(intel)
    assert [f.name for f in att_fns] == [f.name for f in intel_fns]
    for fa, fb in zip(att_fns, intel_fns):
        assert fa.addresses == fb.addresses
        assert len(fa.instructions) == len(fb.instructions)
        for a, b in zip(fa.instructions, fb.instructions):
            assert (a.mnemonic, a.operands, a.prefixes) == \
                (b.mnemonic, b.operands, b.prefixes)


def test_syntaxes_normalize_to_identical_records():
    pairs = [(ATT, INTEL)]
    for binary in CROSS_SYNTAX_BINARIES:
        if objdump_listings(binary) is not None:
            pairs.append(objdump_listings(binary))
    for att, intel in pairs:
        _assert_same_records(att, intel)


def test_forms_built_locally_normalize_to_identical_records(tmp_path):
    # tests/data/forms.c holds forms no installed binary was found to hold
    if shutil.which("gcc") is None or shutil.which("objdump") is None:
        pytest.skip("needs gcc and objdump")
    obj = tmp_path / "forms.o"
    subprocess.run(["gcc", "-O1", "-mavx", "-minline-all-stringops",
                    "-mstringop-strategy=rep_byte", "-c", str(DATA / "forms.c"),
                    "-o", str(obj)], check=True)
    att, intel = objdump_text(obj), objdump_text(obj, "-M", "intel")
    for form in ("repz cmpsb %es:(%rdi),%ds:(%rsi)",
                 "vcvtsi2sdq (%rdi),%xmm0,%xmm0", "vcvtsi2ssl (%rdi),%xmm0,%xmm0",
                 "btcq   $0x3,(%rsp)", "btc    %rax,%rcx"):
        assert form in att
    # (address, mnemonic, target) of each loop form and xbegin
    transfers = re.findall(r"^ +([0-9a-f]+):\t[^\t]+\t(loop|loope|loopne|xbegin)"
                           r" +([0-9a-f]+) <", att, re.MULTILINE)
    assert [mnemonic for _, mnemonic, _ in transfers] == \
        ["loop", "loope", "loopne", "xbegin"]
    for text in (att, intel):
        functions, report = parse_listing_with_report(text)
        assert report.malformed == []
        fn, = [fn for fn in functions if fn.name == "loops_and_bit_complements"]
        assert [ins.mnemonic for ins in fn.instructions][-3:] == ["btc", "btc", "ret"]
        leads, at = set(), 0  # the address of each block's first instruction
        for block in segment(fn):
            leads.add(fn.addresses[at])
            at += len(block.instructions)
        for address, mnemonic, target in transfers:
            i, target = fn.addresses.index(int(address, 16)), int(target, 16)
            # a conditional transfer: its target, read as hex, leads a
            # block, and it ends its own
            assert (fn.instructions[i].mnemonic, fn.instructions[i].operands) == \
                (mnemonic, (Operand(IMMEDIATE, target, f"imm:{target}"),))
            assert {target, fn.addresses[i + 1]} <= leads
    _assert_same_records(att, intel)


def test_demangled_listing_reads_like_the_plain_one():
    # C++ names demangled by objdump -C hold "<", ">" and spaces, in
    # function headers and in nested annotations
    plain, demangled = (objdump_text(APT_CACHE, *flags) for flags in ((), ("-C",)))
    if plain is None:
        pytest.skip(f"needs objdump and {APT_CACHE}")
    assert plain != demangled
    (plain_fns, plain_report), (fns, report) = (
        parse_listing_with_report(text) for text in (plain, demangled))
    assert report == plain_report
    assert report.malformed == []
    assert [f.instructions for f in fns] == [f.instructions for f in plain_fns]
    assert [f.addresses for f in fns] == [f.addresses for f in plain_fns]
    a, b = (build_feature_file(text, "apt-cache", FeatureParams())
            for text in (plain, demangled))
    assert (a.block_map, a.feature_set.hashes) == (b.block_map, b.feature_set.hashes)


_LINE_RE = re.compile(r"^ *([0-9a-f]+):\t(.*)$", re.MULTILINE)


def _check_shared_records(text):
    """One Instruction per distinct asm text, and each function's addresses
    are those of the lines its instructions came from."""
    fns, report = parse_listing_with_report(text)
    instructions = [i for f in fns for i in f.instructions]
    assert len(instructions) == report.instructions
    assert len({id(i) for i in instructions}) == report.distinct_asm_texts == \
        len({i.raw_text for i in instructions}) < len(instructions)
    assert "distinct_asm_texts" not in report.as_dict()
    lines = {int(m.group(1), 16): m.group(2) for m in _LINE_RE.finditer(text)}
    for fn in fns:
        assert len(fn.addresses) == len(fn.instructions)
        for address, ins in zip(fn.addresses, fn.instructions):
            assert ins.raw_text in lines[address]
    return instructions


def test_each_instruction_equals_a_fresh_parse():
    # the listing parser parses each distinct text once and shares it
    for text, syntax in ((ATT, "att"), (INTEL, "intel")):
        for ins in _check_shared_records(text):
            assert ins == _parse_instruction(ins.raw_text, syntax)


def test_base64_listing_shares_one_record_per_text(base64_listings):
    for text in base64_listings:
        _check_shared_records(text)


def test_feature_sets_agree_across_syntaxes():
    fa = build_feature_file(ATT, "true", FeatureParams())
    fb = build_feature_file(INTEL, "true", FeatureParams())
    assert fa.block_map == fb.block_map
    assert fa.order_edges == fb.order_edges
    rep = compare(fa.feature_set, fb.feature_set)
    assert rep.jaccard == 1
    assert len(fa.feature_set.hashes) <= len(fa.block_map)


def test_modal_stem_is_data_movement():
    ff = build_feature_file(INTEL, "true", FeatureParams())
    dictionary = load_default_dictionary()
    totals = [0] * len(dictionary.stems)
    for counts in ff.term_counts:
        for i, c in enumerate(counts):
            totals[i] += c
    ranked = sorted(zip(dictionary.stems, totals), key=lambda kv: -kv[1])
    assert ranked[0][0] == "mov"


def test_label_mode_controls_resolution():
    # /usr/bin/true and /usr/bin/false differ essentially in one exit-status
    # constant: operand-class labels cannot see it, literal labels can
    from ddghash.ddg import LabelMode

    false_text = (DATA / "false_intel.objdump").read_text()
    by_class = FeatureParams()
    t1 = build_feature_file(INTEL, "true", by_class).feature_set
    f1 = build_feature_file(false_text, "false", by_class).feature_set
    assert compare(t1, f1).jaccard == 1

    by_literal = FeatureParams(label_mode=LabelMode.LITERAL)
    t2 = build_feature_file(INTEL, "true", by_literal).feature_set
    f2 = build_feature_file(false_text, "false", by_literal).feature_set
    rep = compare(t2, f2)
    assert rep.jaccard < 1
    assert rep.jaccard > 0.9
