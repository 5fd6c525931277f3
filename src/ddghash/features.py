"""Program feature sets and their set algebra.

A program is a deduplicated set of block-DDG hashes plus the block-index
to hash mapping it was deduplicated from and the CFG edge pairs that give
the set its partial order. All similarity arithmetic is exact: sizes are
ints and coefficients Fractions, so inclusion-exclusion holds to the bit.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import lazy_names
from .errors import IncompatibleCorpora
from .isa import (DANGLING, EXTERNAL, INDIRECT, InstructionFamilyPolicy,
                  LabelMode)

# the DDG builder and hasher load when make_feature_set first runs, or when
# the names are first read from outside (where a tracer may wrap them)
__getattr__, _bind_pipeline = lazy_names(globals(), {
    "build_ddg": "ddg", "wl_hash": "wlhash"})

DIGEST_BITS = 128  # the only WL digest width: 32 hex characters

# the diagnostics member that counts each kind of block exit
_EXIT_COUNTS = {INDIRECT: "indirect_transfers", EXTERNAL: "external_targets",
                DANGLING: "dangling_targets"}


@dataclass(frozen=True)
class FeatureParams:
    """Extraction settings; comparisons are gated on equality of these."""

    label_mode: LabelMode = LabelMode.OPERAND_CLASS
    policy: InstructionFamilyPolicy = InstructionFamilyPolicy.MOV_ONLY
    wl_iterations: int = 3

    def __post_init__(self):
        if self.wl_iterations < 1:
            raise ValueError(
                f"wl_iterations must be >= 1, not {self.wl_iterations!r}")

    def as_dict(self):
        return {
            "label_mode": self.label_mode.value,
            "policy": self.policy.value,
            "wl_iterations": self.wl_iterations,
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
            wl_iterations=p["wl_iterations"],
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
    """The measured sizes of two hash sets and of their intersection;
    every other figure is derived from them."""

    a_id: str
    b_id: str
    size_a: int
    size_b: int
    intersection: int

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

    def swapped(self) -> "SimilarityReport":
        """The report compare(b, a) would give, by swapping fields."""
        return SimilarityReport(self.b_id, self.a_id, self.size_b, self.size_a,
                                self.intersection)


def decimal3(value) -> str:
    return f"{float(value):.3f}"


def ratio(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}"


def make_feature_set(program_id, blocks, params,
                     diagnostics) -> ProgramFeatureSet:
    """Hash each block's DDG and assemble the feature set.

    Each DDG is built, hashed and dropped. Blocks whose DDG is empty are
    left out of the block map (and counted); the order edges are the
    blocks' successor links whose ends both map to a hash. A digest is a
    pure function of the node labels by id and the edges, so each
    distinct (labels, edges) key is hashed once. The diagnostics gain the
    block, hash, edge and exit counts.
    """
    _bind_pipeline()
    diag = dict(diagnostics)
    diag.update(dict.fromkeys(_EXIT_COUNTS.values(), 0))
    block_map = {}
    digests = {}  # (((node id, label), ...), edges) -> digest
    for block in blocks:
        if block.exit is not None:
            diag[_EXIT_COUNTS[block.exit]] += 1
        graph = build_ddg(block, params.policy, params.label_mode)
        if len(graph) == 0:
            continue
        key = (tuple((node.id, node.label) for node in graph.nodes), graph.edges)
        digest = digests.get(key)
        if digest is None:
            digest = digests[key] = wl_hash(graph, params.wl_iterations)
        block_map[block.id] = digest
    edges = [(block.id, succ) for block in blocks for succ in block.successors]
    kept_edges = frozenset(
        (a, b) for a, b in edges if a in block_map and b in block_map
    )
    diag["blocks"] = len(blocks)
    diag["empty_ddgs"] = len(blocks) - len(block_map)
    diag["duplicate_hashes"] = len(block_map) - len(set(block_map.values()))
    diag["dropped_order_edges"] = len(edges) - len(kept_edges)
    return ProgramFeatureSet(
        program_id=program_id,
        params=params,
        block_map=block_map,
        order_edges=kept_edges,
        diagnostics=diag,
        distinct_graphs=len(digests),
    )


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
    """min/q1/median/q3/max over similarity coefficients (exact input ok)."""
    import statistics

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
