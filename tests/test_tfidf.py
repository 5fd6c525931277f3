import math
import random

import pytest

from ddghash.blocks import segment
from ddghash.disasm import parse_listing_with_report
from ddghash.errors import EmptyCorpus
from ddghash.tfidf import (TermDictionary, distribution_from_vectors, idf,
                           load_default_dictionary, tf_vector)

from fixtures import CMOV_BLOCK_INTEL, make_listing

DICT = load_default_dictionary()


def _vec(counts):
    return tuple(counts) + (0,) * (len(DICT.stems) - len(counts))


def _block(text):
    return segment(parse_listing_with_report(text)[0][0])[0]


def test_dictionary_has_exactly_32_stems():
    assert len(DICT.stems) == 32
    assert DICT.stems[-1] == "other"
    # every rule target is one of the 32 stems; every stem is reachable
    assert set(DICT.rules.values()) | {"other"} == set(DICT.stems)


def test_stem_examples():
    assert DICT.stem("cmovne") == "cmov"
    assert DICT.stem("mov") == "mov"
    assert DICT.stem("jmp") == "jmp"
    assert DICT.stem("je") == "jcc"
    assert DICT.stem("movzx") == "mov"
    assert DICT.stem("movsb") == "string"
    assert DICT.stem("movsx") == "mov"
    assert DICT.stem("imul") == "mul"
    assert DICT.stem("sete") == "setcc"
    assert DICT.stem("rol") == "rot"
    assert DICT.stem("cmpsb") == "string"
    assert DICT.stem("cmp") == "cmp"
    assert DICT.stem("vfmadd231ps") == "other"
    assert DICT.stem("endbr64") == "other"


def test_common_mnemonic_table_is_total_and_closed():
    mnemonics = [
        "mov", "movzx", "movsx", "movabs", "lea", "push", "pop", "xchg",
        "cmove", "cmovne", "cmovg", "add", "sub", "mul", "imul", "div",
        "idiv", "inc", "dec", "neg", "adc", "sbb", "and", "or", "xor",
        "not", "shl", "shr", "sal", "sar", "rol", "ror", "rcl", "rcr",
        "cmp", "test", "jmp", "je", "jne", "ja", "jb", "jg", "jl", "js",
        "call", "ret", "iret", "sete", "setne", "setg", "movsb", "movsd",
        "stosb", "lodsq", "scasb", "cmpsw", "nop", "nopw", "hlt", "int3",
        "syscall", "leave", "cdq", "endbr64",
    ]
    stems = {DICT.stem(m) for m in mnemonics}
    assert stems <= set(DICT.stems)
    assert len(set(DICT.stems)) == 32


def test_slot_is_the_stem_index_worked_out_once(monkeypatch):
    dictionary = load_default_dictionary()
    stem, calls = TermDictionary.stem, []
    monkeypatch.setattr(TermDictionary, "stem",
                        lambda self, m: calls.append(m) or stem(self, m))
    mnemonics = ["mov", "cmovne", "mov", "endbr64", "cmovne", "sete"]
    assert [dictionary.slot(m) for m in mnemonics] == \
        [dictionary.stems.index(stem(dictionary, m)) for m in mnemonics]
    assert calls == ["mov", "cmovne", "endbr64", "sete"]


def test_tf_vector_sample_block():
    v = tf_vector(_block(CMOV_BLOCK_INTEL), DICT)
    by_stem = dict(zip(DICT.stems, v))
    nonzero = {s: c for s, c in by_stem.items() if c}
    assert nonzero == {"mov": 4, "cmov": 1, "and": 1, "or": 2, "cmp": 1,
                       "jmp": 1}
    assert sum(v) == 10


def test_tf_unknown_mnemonics_fall_back_to_other():
    text = make_listing([("f", ["vaddps xmm0, xmm1", "fxsave [rsp]",
                                "endbr64"])])
    v = tf_vector(_block(text), DICT)
    assert dict(zip(DICT.stems, v))["other"] == 3
    assert sum(v) == 3


def test_tf_single_instruction():
    v = tf_vector(_block(make_listing([("f", ["mov eax, ebx"])])), DICT)
    assert sum(v) == 1
    assert dict(zip(DICT.stems, v))["mov"] == 1


def test_tf_conservation_random_blocks():
    rng = random.Random(5)
    pool = ["mov eax, ebx", "add eax, 1", "cmp eax, 0", "push rax",
            "xor eax, eax", "lea rax, [rbp-8]", "nop"]
    for _ in range(40):
        lines = [rng.choice(pool) for _ in range(rng.randint(1, 30))] + ["ret"]
        block = _block(make_listing([("f", lines)]))
        v = tf_vector(block, DICT)
        assert len(v) == len(DICT.stems)
        assert sum(v) == len(block.instructions)


def test_idf_values():
    # single block: every present stem gets idf 1
    one = idf([_vec([3, 1])])
    assert one[0] == pytest.approx(1.0)
    assert one[1] == pytest.approx(1.0)
    # absent stem with three blocks: ln(4/1) + 1
    three = idf([_vec([1]), _vec([1]), _vec([1])])
    assert three[1] == pytest.approx(math.log(4) + 1, abs=1e-9)
    assert three[1] == pytest.approx(2.386, abs=5e-4)
    # fully common stem: idf 1 regardless of N
    assert three[0] == pytest.approx(1.0)


def test_idf_monotonic_in_document_frequency():
    vectors = [_vec([1, 1, 0]), _vec([1, 0, 0]), _vec([1, 1, 0])]
    w = idf(vectors)
    # document frequencies 3, 2 and 0 of N = 3
    assert w[:3] == pytest.approx([math.log(4 / (1 + df)) + 1 for df in (3, 2, 0)])
    assert w[2] > w[1] > w[0]


def _reference_idf(rows):
    # the definition, one count at a time
    n = len(rows)
    df = [0] * len(rows[0])
    for row in rows:
        for i, c in enumerate(row):
            if c > 0:
                df[i] += 1
    return tuple(math.log((1 + n) / (1 + d)) + 1.0 for d in df)


def test_idf_equals_the_definition_bit_for_bit():
    rng = random.Random(17)
    for _ in range(200):
        rows = [tuple(rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(32))
                for _ in range(rng.randint(1, 40))]
        assert idf(iter(rows)) == _reference_idf(rows)


def test_idf_empty_corpus():
    with pytest.raises(EmptyCorpus):
        idf([])
    with pytest.raises(EmptyCorpus):
        idf(iter(()))


def _totals(block):
    return dict(zip(DICT.stems,
                    distribution_from_vectors([tf_vector(block, DICT)])))


def test_term_distribution_sample_block():
    t = _totals(_block(CMOV_BLOCK_INTEL))
    assert sum(t.values()) == 10
    assert t["mov"] == 4
    assert max(t.values()) == 4
    assert [s for s, c in t.items() if c == 4] == ["mov"]


def test_term_distribution_uniform():
    text = make_listing([("f", ["mov eax, ebx", "add eax, 1", "cmp eax, 0"])])
    t = _totals(_block(text))
    assert {s: c for s, c in t.items() if c} == {"mov": 1, "add": 1, "cmp": 1}
    assert sum(t.values()) == 3


def test_term_totals_are_the_column_sums_of_count_rows():
    rng = random.Random(23)
    for _ in range(200):
        rows = [tuple(rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(32))
                for _ in range(rng.randint(1, 40))]
        assert distribution_from_vectors(iter(rows)) == tuple(map(sum, zip(*rows)))
    with pytest.raises(EmptyCorpus):
        distribution_from_vectors([])
    with pytest.raises(EmptyCorpus):
        distribution_from_vectors(iter(()))


