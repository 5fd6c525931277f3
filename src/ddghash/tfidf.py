"""Stemmed-opcode term frequency baseline.

Mnemonics collapse into a fixed 32-stem dictionary via longest-prefix
rules shipped as a plain-text data file (data/stem_rules.txt); anything
the table misses lands on the reserved stem "other". Each basic block
yields one 32-dimensional count vector, and a corpus of blocks yields a
smoothed idf so no stem weight is ever zero.
"""

import math
from importlib import resources
from itertools import repeat
from operator import gt

from . import FrozenRecord
from .errors import EmptyCorpus, ZeroVector

OTHER = "other"


class TermDictionary(FrozenRecord):
    """Frozen, but unhashable: its rules are a dict."""

    __slots__ = ("stems", "rules", "_index", "_max_len", "_slots")

    def __init__(self, stems, rules):
        assert len(stems) == len(set(stems))
        object.__setattr__(self, "stems", stems)  # 32 stems, fixed order
        object.__setattr__(self, "rules", rules)  # prefix pattern -> stem
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(stems)})
        object.__setattr__(self, "_max_len", max(map(len, rules)))
        object.__setattr__(self, "_slots", {})  # mnemonic -> stem index

    def stem(self, mnemonic: str) -> str:
        for length in range(min(len(mnemonic), self._max_len), 0, -1):
            hit = self.rules.get(mnemonic[:length])
            if hit is not None:
                return hit
        return OTHER

    def slot(self, mnemonic: str) -> int:
        """The position of stem(mnemonic) in stems, worked out once per
        distinct mnemonic: the rules never change, so the answer is kept
        on first use."""
        slot = self._slots.get(mnemonic)
        if slot is None:
            slot = self._slots[mnemonic] = self._index[self.stem(mnemonic)]
        return slot


def parse_rules(text) -> TermDictionary:
    """Build a dictionary from "pattern stem" lines; stem order follows
    first appearance, with "other" appended last."""
    rules = {}
    order = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pattern, stem = line.split()
        rules[pattern] = stem
        if stem not in order:
            order.append(stem)
    if OTHER not in order:
        order.append(OTHER)
    return TermDictionary(stems=tuple(order), rules=rules)


def load_default_dictionary() -> TermDictionary:
    text = resources.files("ddghash").joinpath("data/stem_rules.txt").read_text()
    return parse_rules(text)


def tf_vector(block, dictionary: TermDictionary) -> tuple:
    """The block's count row: one count per dictionary stem."""
    counts = [0] * len(dictionary.stems)
    for ins in block.instructions:
        counts[dictionary.slot(ins.mnemonic)] += 1
    return tuple(counts)


def idf(rows) -> tuple:
    """Per-stem weights, the smoothed inverse document frequency over
    count rows: ln((1+N)/(1+df)) + 1."""
    rows = list(rows)
    if not rows:
        raise EmptyCorpus("idf needs at least one block")
    n = len(rows)
    # each stem's document frequency, counted over its column in C
    df = [sum(map(gt, column, repeat(0))) for column in zip(*rows)]
    return tuple(math.log((1 + n) / (1 + d)) + 1.0 for d in df)


def distribution_from_vectors(rows) -> tuple:
    """Per-stem totals: the column sums of count rows, in stem order."""
    totals = tuple(map(sum, zip(*rows)))
    if not totals:
        raise EmptyCorpus("no blocks to aggregate")
    return totals


def cosine_similarity(u, v, weights=None) -> float:
    """Cosine of two count rows over the 32 dimensions, optionally
    idf-weighted."""
    if weights is None:
        weights = [1.0] * len(u)
    wu = [c * w for c, w in zip(u, weights)]
    wv = [c * w for c, w in zip(v, weights)]
    nu = math.sqrt(sum(x * x for x in wu))
    nv = math.sqrt(sum(x * x for x in wv))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return sum(x * y for x, y in zip(wu, wv)) / (nu * nv)
