"""The records keep the semantics of frozen and plain dataclasses: equality
by fields within one class, hashing by fields when frozen, AttributeError
on assignment to a frozen field, and a repr that shows every field."""

import enum
import importlib
import pkgutil
import sys
from fractions import Fraction

import pytest

import ddghash
from ddghash import Record
from ddghash.blocks import BasicBlock
from ddghash.corpus import FeatureFile, decode_feature_file, encode_feature_file
from ddghash.ddg import DataDependencyGraph, DdgNode
from ddghash.disasm import FunctionListing, Instruction, Operand, ParseReport
from ddghash.errors import DdghashError
from ddghash.features import (FeatureParams, InstructionFamilyPolicy,
                              LabelMode, ProgramFeatureSet, SimilarityReport)
from ddghash.tfidf import TermDictionary

RAX = Operand(kind="reg", text="rax")
MOV = Instruction(mnemonic="mov", operands=(RAX,), raw_text="mov    %rax")
HASH = "0123456789abcdef" * 2


def _feature_set_fields():
    return dict(program_id="p", params=FeatureParams(), diagnostics={"blocks": 1},
                hashes=frozenset({HASH}), distinct_graphs=1)


def _feature_file_fields():
    return dict(feature_set=ProgramFeatureSet(**_feature_set_fields()),
                block_map={0: HASH}, order_edges=frozenset({(0, 0)}),
                term_counts=((1, 0),), term_stems=("mov", "other"),
                source_digest="sha256:" + "0" * 64, toolkit_version="0.0.1",
                distinct_asm_texts=1)


# the members of a FeatureFile that only its file keeps: a decoded file
# builds them on the first read of any one of them
FILE_ONLY = ("block_map", "order_edges", "term_counts", "term_stems",
             "source_digest", "toolkit_version")


# (class, a function giving fresh fields in declaration order, a field to
# change and its other value); fields are fresh because some are mutable
RECORDS = [
    (Operand, lambda: dict(kind="mem", value=None, text="[rbp+rax*4-8]"),
     "text", "[rbp+rax*4+8]"),
    (Instruction, lambda: dict(mnemonic="mov", operands=(RAX,),
                               raw_text="lock mov %rax", prefixes=("lock",)),
     "mnemonic", "movq"),
    (FunctionListing, lambda: dict(name="f", instructions=(MOV,),
                                   addresses=(4096,)),
     "addresses", (4097,)),
    (ParseReport, lambda: dict(syntax="att", functions=1, instructions=2,
                               skipped_lines=3, malformed=[(5, "bad", "x")], distinct_asm_texts=2),
     "skipped_lines", 0),
    (BasicBlock, lambda: dict(id=0, instructions=(MOV,),
                              successors=frozenset({1}), exit=None),
     "exit", "indirect"),
    (DdgNode, lambda: dict(id=0, label="reg"), "label", "mem"),
    (DataDependencyGraph, lambda: dict(
        nodes=(DdgNode(0, "reg"), DdgNode(1, "reg")), edges=frozenset({(1, 0)})),
     "edges", frozenset({(0, 1)})),
    (TermDictionary, lambda: dict(stems=("mov", "other"), rules={"mov": "mov"}),
     "rules", {"mo": "mov"}),
    (FeatureParams, lambda: dict(label_mode=LabelMode.LITERAL,
                                 policy=InstructionFamilyPolicy.ALL_DATA_OPERANDS,
                                 wl_iterations=2),
     "wl_iterations", 3),
    (ProgramFeatureSet, _feature_set_fields, "program_id", "q"),
    (SimilarityReport, lambda: dict(a_id="a", b_id="b", size_a=3, size_b=4,
                                    intersection=2),
     "intersection", 1),
    (FeatureFile, _feature_file_fields, "source_digest", "sha256:" + "1" * 64),
]
MUTABLE = {ParseReport, ProgramFeatureSet, FeatureFile}
UNHASHABLE = MUTABLE | {TermDictionary}  # a TermDictionary's rules are a dict
# in memory only, so not part of equality
NOT_COMPARED = {ProgramFeatureSet: ("distinct_graphs", 2),
                FeatureFile: ("distinct_asm_texts", 2)}

by_class = pytest.mark.parametrize(
    "cls, fields, changed, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])


@by_class
def test_equal_fields_give_equal_records(cls, fields, changed, other):
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert cls(**dict(fields(), **{changed: other})) != a


def _other(value):
    """A value unequal to `value`, of its kind where that is easy."""
    if isinstance(value, Record):  # its first field changed
        fields = {name: getattr(value, name) for name in value._fields}
        first = value._fields[0]
        return type(value)(**dict(fields, **{first: _other(fields[first])}))
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if value is None:
        return 0
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, (str, tuple, list)):
        return value + type(value)("x")
    if isinstance(value, frozenset):
        return frozenset() if value else frozenset({0})
    if isinstance(value, dict):
        return {**value, "x": 0}
    raise TypeError(f"no other value for {value!r}")


@by_class
def test_every_compared_field_counts(cls, fields, changed, other):
    a = cls(**fields())
    for name, value in fields().items():
        if name in cls._uncompared:  # test_in_memory_counts_are_not_compared
            continue
        b = cls(**dict(fields(), **{name: _other(value)}))
        assert b != a, name
        if cls not in UNHASHABLE:
            assert hash(b) != hash(a), name


def test_every_record_class_is_tested():
    for module in pkgutil.iter_modules(ddghash.__path__):
        if module.name != "__main__":
            importlib.import_module(f"ddghash.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            # the base FrozenRecord has no fields
            if sub.__module__.startswith("ddghash") and sub._fields:
                found.add(sub)
    assert found == {cls for cls, *_ in RECORDS}


@by_class
def test_records_of_another_class_are_unequal(cls, fields, changed, other):
    twin = type(f"{cls.__name__}Twin", (cls,), {"__slots__": ()})
    a, b = cls(**fields()), twin(**fields())
    assert a != b and b != a
    assert not a == b


@by_class
def test_assignment(cls, fields, changed, other):
    a = cls(**fields())
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError, match="no_such_field"):
        a.no_such_field
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    if cls in MUTABLE:
        setattr(a, changed, other)
        assert getattr(a, changed) == other
        return
    with pytest.raises(AttributeError, match=changed):
        setattr(a, changed, other)
    with pytest.raises(AttributeError, match=changed):
        delattr(a, changed)
    assert a == cls(**fields())


@by_class
def test_repr_shows_class_and_fields(cls, fields, changed, other):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields().items())
    assert repr(cls(**fields())) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", list(NOT_COMPARED), ids=lambda c: c.__name__)
def test_in_memory_counts_are_not_compared(cls):
    fields = next(make for c, make, _, _ in RECORDS if c is cls)
    name, other = NOT_COMPARED[cls]
    assert cls._uncompared == (name,)
    assert cls(**dict(fields(), **{name: other})) == cls(**fields())


def test_defaults():
    assert Operand("imm", value=1) == Operand("imm", 1, "")
    assert Instruction("nop", (), "nop").prefixes == ()
    assert FeatureParams() == FeatureParams(
        LabelMode.OPERAND_CLASS, InstructionFamilyPolicy.MOV_ONLY, 3)
    a, b = ParseReport(), ParseReport()
    a.malformed.append((1, "bad", "x"))
    assert b.malformed == []
    # read off the lines parsed and those malformed, not kept as a field
    assert "instruction_shaped" not in ParseReport._fields
    assert (a.instruction_shaped, b.instruction_shaped) == (1, 0)
    a.instructions = 4
    assert a.instruction_shaped == 5
    fs = ProgramFeatureSet("p", FeatureParams(), {}, frozenset({HASH}))
    assert fs.distinct_graphs is None


def test_decoded_feature_file_reads_its_own_fields():
    ff = FeatureFile(**dict(_feature_file_fields(), toolkit_version="9.9.9",
                            distinct_asm_texts=None))
    decoded = decode_feature_file(encode_feature_file(ff))
    assert decoded.toolkit_version == "9.9.9"
    assert decoded == ff
    assert decoded.distinct_asm_texts is None
    assert decoded.feature_set.distinct_graphs is None


def test_decoded_equal_count_rows_share_one_tuple():
    fs = ProgramFeatureSet(**dict(_feature_set_fields(), diagnostics={"blocks": 2}))
    ff = FeatureFile(**dict(_feature_file_fields(), feature_set=fs,
                            term_counts=((1, 0), (1, 0))))
    rows = decode_feature_file(encode_feature_file(ff)).term_counts
    assert rows == ((1, 0), (1, 0)) and rows[0] is rows[1]


def test_decoded_file_lets_go_of_its_text_once_read():
    text = encode_feature_file(FeatureFile(**_feature_file_fields()))
    before = sys.getrefcount(text)
    ff = decode_feature_file(text)
    assert sys.getrefcount(text) == before + 1  # held for the file-only members
    assert ff.source_digest == "sha256:" + "0" * 64
    assert sys.getrefcount(text) == before


def test_a_query_lets_go_of_the_text_with_the_file():
    text = encode_feature_file(FeatureFile(**_feature_file_fields()))
    before = sys.getrefcount(text)
    fs = decode_feature_file(text).feature_set
    assert sys.getrefcount(text) == before
    assert fs == ProgramFeatureSet(**_feature_set_fields())


def test_decoded_feature_set_is_a_plain_record():
    fs = decode_feature_file(encode_feature_file(FeatureFile(**_feature_file_fields()))
                             ).feature_set
    assert not hasattr(fs, "_fill")
    assert ProgramFeatureSet._fields == ("program_id", "params", "diagnostics",
                                         "hashes", "distinct_graphs")


@pytest.mark.parametrize("first", FILE_ONLY)
def test_first_read_of_a_file_only_member_fills_all_of_them_once(first, monkeypatch):
    import ddghash.corpus as corpus_module

    calls = []
    walk = corpus_module._walk
    monkeypatch.setattr(corpus_module, "_walk",
                        lambda *args: calls.append(args[2]) or walk(*args))
    expected = FeatureFile(**_feature_file_fields())
    ff = decode_feature_file(encode_feature_file(expected))
    assert len(calls) == 2  # the two walks up to program_id
    assert getattr(ff, first) == getattr(expected, first)
    assert len(calls) == 3 and not hasattr(ff, "_fill")
    for name in FILE_ONLY:
        assert object.__getattribute__(ff, name) == getattr(expected, name)
    assert ff == expected and len(calls) == 3


def test_damaged_block_map_leaves_the_query_members_readable():
    text = encode_feature_file(FeatureFile(**_feature_file_fields()))
    ff = decode_feature_file(text.replace('"block_map":{"0":', '"block_map":{"x":'),
                             "f")
    fs = ff.feature_set
    assert fs.program_id == "p"
    assert fs.params == FeatureParams()
    assert fs.hashes == {HASH}
    assert fs.diagnostics == {"blocks": 1}
    for name in (*FILE_ONLY, "block_map"):  # the fill is kept, so each read raises
        with pytest.raises(DdghashError, match="^f: member 'block_map': "):
            getattr(ff, name)
