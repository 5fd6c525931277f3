"""Program feature sets and their set algebra.

A program is a deduplicated set of block-DDG hashes. make_feature_set
also gives the block-index to hash mapping the set was deduplicated from
and the CFG edge pairs that give it its partial order, which only a
feature file keeps. All similarity arithmetic is exact: sizes are ints
and coefficients Fractions, so inclusion-exclusion holds to the bit.
"""

import enum
from fractions import Fraction
from itertools import repeat
from operator import attrgetter

from . import FrozenRecord, Record, lazy_names
from .errors import IncompatibleCorpora

# the DDG builder and hasher load when make_feature_set first runs, or when
# the names are first read from outside (where a tracer may wrap them)
__getattr__, _bind_pipeline = lazy_names(globals(), {
    "build_ddg": "ddg", "wl_hash": "wlhash"})

DIGEST_BITS = 128  # the only WL digest width: 32 hex characters
_LABEL = attrgetter("label")  # a DDG node's label

# BasicBlock.exit, a block's unresolved exit: a jump that reaches no block
# of its function, named by the diagnostics count it feeds
INDIRECT = "indirect_transfers"  # no direct target
EXTERNAL = "external_targets"  # a target outside the function
DANGLING = "dangling_targets"  # a target inside the function, mid-instruction


class LabelMode(enum.Enum):
    """How a DDG node is labelled: not at all, by operand class, or by
    its canonical operand text."""

    UNLABELED = "unlabeled"
    OPERAND_CLASS = "operand_class"
    LITERAL = "literal"


class InstructionFamilyPolicy(enum.Enum):
    """Which instructions contribute DDG edges: the data-movement family
    (isa.MOV_FAMILY) only, or every instruction with operands."""

    MOV_ONLY = "mov_only"
    ALL_DATA_OPERANDS = "all_data_operands"


class FeatureParams(FrozenRecord):
    """Extraction settings; comparisons are gated on equality of these."""

    __slots__ = ("label_mode", "policy", "wl_iterations")

    def __init__(self, label_mode=LabelMode.OPERAND_CLASS,
                 policy=InstructionFamilyPolicy.MOV_ONLY, wl_iterations=3):
        if type(wl_iterations) is not int or wl_iterations < 1:
            raise ValueError(
                f"wl_iterations must be an integer >= 1, not {wl_iterations!r}")
        object.__setattr__(self, "label_mode", label_mode)
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "wl_iterations", wl_iterations)

    def as_dict(self):
        return {
            "label_mode": self.label_mode.value,
            "policy": self.policy.value,
            "wl_iterations": self.wl_iterations,
            "digest_bits": DIGEST_BITS,
        }

    @classmethod
    def from_dict(cls, p):
        """The inverse of as_dict, for a feature file's params member, which
        must hold the keys as_dict writes and no other: programs compare
        only when their params members are equal."""
        keys = cls().as_dict().keys()
        if p.keys() != keys:
            raise ValueError(f"expected the keys {sorted(keys)}, not {sorted(p)}")
        if type(p["digest_bits"]) is not int or p["digest_bits"] != DIGEST_BITS:
            raise ValueError(f"unsupported digest_bits {p['digest_bits']!r}")
        return cls(
            label_mode=LabelMode(p["label_mode"]),
            policy=InstructionFamilyPolicy(p["policy"]),
            wl_iterations=p["wl_iterations"],
        )


class ProgramFeatureSet(Record):
    """What a query reads of a program: its settings, diagnostics counts
    and deduplicated hash set. distinct_graphs, the number of graphs
    make_feature_set hashed, is in memory only: never in a file, and not
    part of equality."""

    __slots__ = ("program_id", "params", "diagnostics", "hashes",
                 "distinct_graphs")
    _uncompared = ("distinct_graphs",)

    def __init__(self, program_id, params, diagnostics, hashes,
                 distinct_graphs=None):
        self.program_id = program_id
        self.params = params
        self.diagnostics = diagnostics
        self.hashes = hashes  # frozenset of 32-hex digests
        self.distinct_graphs = distinct_graphs


class SimilarityReport(FrozenRecord):
    """The measured sizes of two hash sets and of their intersection;
    every other figure is derived from them."""

    __slots__ = ("a_id", "b_id", "size_a", "size_b", "intersection")

    def __init__(self, a_id, b_id, size_a, size_b, intersection):
        object.__setattr__(self, "a_id", a_id)
        object.__setattr__(self, "b_id", b_id)
        object.__setattr__(self, "size_a", size_a)
        object.__setattr__(self, "size_b", size_b)
        object.__setattr__(self, "intersection", intersection)

    @property
    def union(self) -> int:
        return self.size_a + self.size_b - self.intersection

    @property
    def diff_a_minus_b(self) -> int:
        return self.size_a - self.intersection

    @property
    def diff_b_minus_a(self) -> int:
        return self.size_b - self.intersection

    @property
    def jaccard(self) -> Fraction:
        return _safe_fraction(self.intersection, self.union)

    @property
    def containment_a_in_b(self) -> Fraction:
        """Share of a's hashes found in b; 1 iff a ⊆ b."""
        return _safe_fraction(self.intersection, self.size_a)

    @property
    def containment_b_in_a(self) -> Fraction:
        return _safe_fraction(self.intersection, self.size_b)

    def as_dict(self):
        return {
            "a_id": self.a_id,
            "b_id": self.b_id,
            "size_a": self.size_a,
            "size_b": self.size_b,
            "intersection": self.intersection,
            "union": self.union,
            "diff_a_minus_b": self.diff_a_minus_b,
            "diff_b_minus_a": self.diff_b_minus_a,
            "jaccard": decimal3(self.jaccard),
            "jaccard_exact": ratio(self.jaccard),
            "containment_a_in_b": decimal3(self.containment_a_in_b),
            "containment_a_in_b_exact": ratio(self.containment_a_in_b),
            "containment_b_in_a": decimal3(self.containment_b_in_a),
            "containment_b_in_a_exact": ratio(self.containment_b_in_a),
        }


def decimal3(value) -> str:
    return f"{float(value):.3f}"


def ratio(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}"


def make_feature_set(program_id, blocks, params, diagnostics):
    """Hash each block's DDG and assemble the feature set, in one pass
    over `blocks`, which may be any iterable of blocks. Returns the
    ProgramFeatureSet, the block map (block index -> hash, in block order)
    and the order edges (a frozenset of (block index, block index)).

    Each DDG is built, hashed and dropped, and no block is kept, so a
    caller that makes blocks as they are taken holds only those it has
    not yet handed over. Blocks whose DDG is empty are left out of the
    block map (and counted); the order edges are the blocks' successor
    links whose ends both map to a hash. A digest is a pure function of
    the node labels by id and the edges, and build_ddg numbers nodes
    0..n-1 in order, so each distinct (labels in node order, edges) key is
    hashed once. The diagnostics gain the block, hash, edge and exit counts.
    """
    _bind_pipeline()
    diag = dict(diagnostics)
    diag.update(dict.fromkeys((INDIRECT, EXTERNAL, DANGLING), 0))
    block_map = {}
    digests = {}  # ((label, ...), edges) -> digest
    # the successor links of hashed blocks; a link from any other block is
    # dropped, so it is only counted
    edges = []
    blocks_seen = links = 0
    policy, mode = params.policy, params.label_mode
    for blocks_seen, block in enumerate(blocks, 1):
        links += len(block.successors)
        if block.exit is not None:
            diag[block.exit] += 1
        graph = build_ddg(block, policy, mode)
        if not graph.nodes:
            continue
        key = (tuple(map(_LABEL, graph.nodes)), graph.edges)
        digest = digests.get(key)
        if digest is None:
            digest = digests[key] = wl_hash(graph, params.wl_iterations)
        block_map[block.id] = digest
        edges.extend(zip(repeat(block.id), block.successors))
    kept_edges = frozenset((a, b) for a, b in edges if b in block_map)
    diag["blocks"] = blocks_seen
    diag["empty_ddgs"] = blocks_seen - len(block_map)
    hashes = frozenset(block_map.values())
    diag["duplicate_hashes"] = len(block_map) - len(hashes)
    diag["dropped_order_edges"] = links - len(kept_edges)
    fs = ProgramFeatureSet(program_id, params, diag, hashes, len(digests))
    return fs, block_map, kept_edges


def _require_compatible(a: ProgramFeatureSet, b: ProgramFeatureSet):
    if a.params != b.params:
        raise IncompatibleCorpora(
            f"{a.program_id} built with {a.params.as_dict()}, "
            f"{b.program_id} with {b.params.as_dict()}"
        )


def _safe_fraction(num, den) -> Fraction:
    return Fraction(num, den) if den else Fraction(0)


def compare(a: ProgramFeatureSet, b: ProgramFeatureSet) -> SimilarityReport:
    """Exact set comparison; raises IncompatibleCorpora on metadata mismatch."""
    _require_compatible(a, b)
    return SimilarityReport(a.program_id, b.program_id, len(a.hashes),
                            len(b.hashes), len(a.hashes & b.hashes))


def five_number_summary(values):
    """min/q1/median/q3/max over similarity coefficients (exact input ok).
    The quartiles are statistics.quantiles(data, n=4, method="inclusive"),
    read off the one sorted list."""
    # float is monotone on exact values, so this is sorted(values)'s order,
    # with the exact comparison run only where two values round to one float
    data = sorted(values, key=lambda v: (float(v), v))
    if not data:
        raise ValueError("no values to summarize")
    return {
        "count": len(data),
        "min": data[0],
        "q1": _quartile(data, 1),
        "median": _quartile(data, 2),
        "q3": _quartile(data, 3),
        "max": data[-1],
    }


def _quartile(data, i):
    """The i-th inclusive quartile of sorted data, as statistics.quantiles
    interpolates it; a position that lands on an element is that element."""
    j, delta = divmod(i * (len(data) - 1), 4)
    if not delta:
        return data[j]
    return (data[j] * (4 - delta) + data[j + 1] * delta) / 4
