"""Invariances of a block's hash that hold by construction.

A DDG has one node per operand text and an edge for each source ->
destination move, and its edges are a set. So renaming registers by a
bijection keeps the graph's shape and its class labels, and reordering a
block's instructions before its last keeps its nodes and edges: the
second is a blind spot of the representation (dependent instructions may
be swapped), not only an invariance. Both are checked on blocks of
generated listings and of the tests/data listings, each rewritten as a
one-block listing and run through parse, segment and hashing.
"""

import random
import re
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ddghash import isa
from ddghash.blocks import segment
from ddghash.disasm import parse_listing, parse_listing_with_report
from ddghash.features import (FeatureParams, InstructionFamilyPolicy,
                              LabelMode, make_feature_set)
from ddghash.tfidf import load_default_dictionary, tf_vector

from fixtures import gen_instructions, make_listing, render_listing

DATA = Path(__file__).parent / "data"
DICTIONARY = load_default_dictionary()
GP = sorted(isa.GP_REGISTERS)
# a whole register name: no register name is a mnemonic or a hex number
GP_RE = re.compile(r"\b(?:%s)\b" % "|".join(sorted(GP, key=len, reverse=True)))


def _blocks_of(text):
    """(syntax, asm texts) of each block of a listing."""
    functions, report = parse_listing_with_report(text)
    return [(report.syntax, [ins.raw_text for ins in block.instructions])
            for fn in functions for block in segment(fn)]


@lru_cache(maxsize=None)
def _data_blocks():
    return [block for path in sorted(DATA.glob("*.objdump"))
            for block in _blocks_of(path.read_text())]


@st.composite
def _generated_block(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    specs = gen_instructions(random.Random(seed), draw(st.integers(1, 40)))
    return draw(st.sampled_from(_blocks_of(
        render_listing(specs, att=draw(st.booleans()), seed=seed))))


blocks = st.one_of(_generated_block(), st.deferred(
    lambda: st.sampled_from(_data_blocks())))


def _features(syntax, lines, mode, policy):
    """The hash (None for an empty DDG) and count row of the one block of a
    listing of lines. It starts far above every jump target, so no jump
    splits it."""
    fn, = parse_listing(make_listing([("f", lines)], start=1 << 40), syntax=syntax)
    block, = segment(fn)
    _, block_map, _ = make_feature_set("p", [block], FeatureParams(mode, policy), {})
    return block_map.get(block.id), tf_vector(block, DICTIONARY)


@settings(deadline=None, max_examples=60)
@given(blocks, st.permutations(GP))
def test_renaming_registers_keeps_the_hash_under_class_and_unlabeled(block, image):
    syntax, lines = block
    rename = dict(zip(GP, image))
    renamed = [GP_RE.sub(lambda m: rename[m.group()], line) for line in lines]
    for mode in (LabelMode.OPERAND_CLASS, LabelMode.UNLABELED):
        for policy in InstructionFamilyPolicy:
            assert (_features(syntax, renamed, mode, policy)
                    == _features(syntax, lines, mode, policy)), (mode, policy)


@settings(deadline=None, max_examples=60)
@given(blocks, st.data())
def test_reordering_all_but_the_last_instruction_keeps_hash_and_counts(block, data):
    syntax, lines = block
    order = data.draw(st.permutations(range(len(lines) - 1)))
    reordered = [lines[i] for i in order] + lines[-1:]
    for mode in LabelMode:
        for policy in InstructionFamilyPolicy:
            assert (_features(syntax, reordered, mode, policy)
                    == _features(syntax, lines, mode, policy)), (mode, policy)
