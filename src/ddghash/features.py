"""Program feature sets and their set algebra.

A program is a deduplicated set of block-DDG hashes plus the block-index
to hash mapping it was deduplicated from and the CFG edge pairs that give
the set its partial order. All similarity arithmetic is exact: sizes are
ints and coefficients Fractions, so inclusion-exclusion holds to the bit.
"""

import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .ddg import InstructionFamilyPolicy, LabelMode, build_ddg
from .errors import IncompatibleCorpora
from .wlhash import DIGEST_BITS, WLParams, wl_hash


@dataclass(frozen=True)
class FeatureParams:
    """Extraction settings; comparisons are gated on equality of these."""

    label_mode: LabelMode = LabelMode.OPERAND_CLASS
    policy: InstructionFamilyPolicy = InstructionFamilyPolicy.MOV_ONLY
    wl: WLParams = WLParams()

    def as_dict(self):
        return {
            "label_mode": self.label_mode.value,
            "policy": self.policy.value,
            "wl_iterations": self.wl.iterations,
            "digest_bits": DIGEST_BITS,
        }

    @classmethod
    def from_dict(cls, p):
        """The inverse of as_dict, for a feature file's params member."""
        if p["digest_bits"] != DIGEST_BITS:
            raise ValueError(f"unsupported digest_bits {p['digest_bits']!r}")
        return cls(
            label_mode=LabelMode(p["label_mode"]),
            policy=InstructionFamilyPolicy(p["policy"]),
            wl=WLParams(iterations=p["wl_iterations"]),
        )


class LazyFields:
    """Dataclass mixin for instances decoded from a file. One made by
    `deferred` builds each field named in `pending` (name -> zero-argument
    builder) on its first read and keeps it; equality and repr read
    every field, so they build them all."""

    @classmethod
    def deferred(cls, pending, **fields):
        obj = cls.__new__(cls)
        obj.__dict__.update(fields, _pending=pending)
        return obj

    def __getattr__(self, name):  # reached only for fields not yet built
        pending = self.__dict__.get("_pending", {})
        if name not in pending:
            raise AttributeError(name)
        value = pending[name]()
        del pending[name]
        setattr(self, name, value)
        return value


@dataclass
class ProgramFeatureSet(LazyFields):
    program_id: str
    params: FeatureParams
    block_map: dict  # block index -> 32-hex hash, insertion-ordered
    order_edges: frozenset  # (block index, block index)
    diagnostics: dict = field(default_factory=dict)
    hashes: frozenset = None  # distinct block_map values, computed once
    # graphs hashed by make_feature_set; in memory only, never in a file
    distinct_graphs: int = field(default=None, compare=False)

    def __post_init__(self):
        if self.hashes is None:
            self.hashes = frozenset(self.block_map.values())


@dataclass(frozen=True)
class SimilarityReport:
    a_id: str
    b_id: str
    size_a: int
    size_b: int
    intersection: int
    union: int
    diff_a_minus_b: int
    diff_b_minus_a: int
    jaccard: Fraction
    containment_a_in_b: Fraction  # share of a's hashes found in b; 1 iff a ⊆ b
    containment_b_in_a: Fraction

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

    def swapped(self) -> "SimilarityReport":
        """The report compare(b, a) would give, by swapping fields."""
        return SimilarityReport(
            a_id=self.b_id,
            b_id=self.a_id,
            size_a=self.size_b,
            size_b=self.size_a,
            intersection=self.intersection,
            union=self.union,
            diff_a_minus_b=self.diff_b_minus_a,
            diff_b_minus_a=self.diff_a_minus_b,
            jaccard=self.jaccard,
            containment_a_in_b=self.containment_b_in_a,
            containment_b_in_a=self.containment_a_in_b,
        )


def decimal3(value) -> str:
    return f"{float(value):.3f}"


def ratio(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}"


def make_feature_set(program_id, blocks, ddgs, cfg_edge_pairs, params,
                     diagnostics=None) -> ProgramFeatureSet:
    """Hash each non-empty DDG and assemble the feature set.

    blocks and ddgs must be aligned. Blocks whose DDG is empty are left
    out of the block map (and counted); order edges touching such blocks
    are dropped so every recorded edge endpoint maps to a hash. A digest
    is a pure function of the node labels by id and the edges, so each
    distinct (labels, edges) key is hashed once.
    """
    diag = dict(diagnostics or {})
    block_map = {}
    digests = {}  # (((node id, label), ...), edges) -> digest
    empty = 0
    for block, graph in zip(blocks, ddgs):
        if len(graph) == 0:
            empty += 1
            continue
        key = (tuple((node.id, node.label) for node in graph.nodes), graph.edges)
        digest = digests.get(key)
        if digest is None:
            digest = digests[key] = wl_hash(graph, params.wl)
        block_map[block.id] = digest
    kept_edges = frozenset(
        (a, b) for a, b in cfg_edge_pairs if a in block_map and b in block_map
    )
    diag["blocks"] = len(blocks)
    diag["empty_ddgs"] = empty
    diag["duplicate_hashes"] = len(block_map) - len(set(block_map.values()))
    diag["dropped_order_edges"] = len(set(cfg_edge_pairs)) - len(kept_edges)
    return ProgramFeatureSet(
        program_id=program_id,
        params=params,
        block_map=block_map,
        order_edges=kept_edges,
        diagnostics=diag,
        distinct_graphs=len(digests),
    )


def extract_feature_set(program_id, function_blocks_cfgs, params,
                        diagnostics=None) -> ProgramFeatureSet:
    """Assemble one feature set from per-function (blocks, cfg) pairs."""
    all_blocks = []
    all_edges = set()
    for blocks, cfg in function_blocks_cfgs:
        all_blocks.extend(blocks)
        all_edges.update(cfg.edge_pairs())
    ddgs = [build_ddg(b, params.policy, params.label_mode) for b in all_blocks]
    return make_feature_set(program_id, all_blocks, ddgs, all_edges, params,
                            diagnostics)


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
    sa, sb = a.hashes, b.hashes
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return SimilarityReport(
        a_id=a.program_id,
        b_id=b.program_id,
        size_a=len(sa),
        size_b=len(sb),
        intersection=inter,
        union=union,
        diff_a_minus_b=len(sa) - inter,
        diff_b_minus_a=len(sb) - inter,
        jaccard=_safe_fraction(inter, union),
        containment_a_in_b=_safe_fraction(inter, len(sa)),
        containment_b_in_a=_safe_fraction(inter, len(sb)),
    )


def set_difference(a: ProgramFeatureSet, b: ProgramFeatureSet) -> frozenset:
    _require_compatible(a, b)
    return a.hashes - b.hashes


def export_poset(fs: ProgramFeatureSet):
    """CFG edges lifted to hash pairs, deduplicated, in sorted order.

    An edge between two blocks that deduplicated to the same hash is kept
    as a self-pair.
    """
    pairs = {
        (fs.block_map[i], fs.block_map[j])
        for i, j in fs.order_edges
    }
    return sorted(pairs)


def five_number_summary(values):
    """min/q1/median/q3/max over similarity coefficients (exact input ok)."""
    data = sorted(values)
    if not data:
        raise ValueError("no values to summarize")
    if len(data) == 1:
        q1, med, q3 = data[0], data[0], data[0]
    else:
        q1, med, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return {
        "count": len(data),
        "min": data[0],
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": data[-1],
    }
