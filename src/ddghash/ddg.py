"""Data dependency graph construction, one graph per basic block.

A node is a canonical operand text, kept as its id and label; a directed
edge s -> d records data flowing from a source operand into a destination
operand. Under the default mov_only policy only the data-movement family
contributes (mov/movzx/movsx/movabs/cmov*/xchg, xchg in both directions).
The all_data_operands policy additionally lets every other instruction
with two or more operands contribute edges from each source-position
operand to its first (destination) operand.
"""

from functools import lru_cache
from operator import attrgetter

from . import FrozenRecord
from .features import InstructionFamilyPolicy, LabelMode
from .isa import MOV_FAMILY as _MOV_FAMILY


# each mode's label of an operand
_LABEL_OF = {LabelMode.UNLABELED: lambda operand: "*",
             LabelMode.OPERAND_CLASS: attrgetter("kind"),
             LabelMode.LITERAL: attrgetter("text")}


class DdgNode(FrozenRecord):
    __slots__ = ("id", "label")

    def __init__(self, id, label):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "label", label)


class DataDependencyGraph(FrozenRecord):
    __slots__ = ("nodes", "edges")

    def __init__(self, nodes, edges):
        object.__setattr__(self, "nodes", nodes)  # tuple of DdgNode
        # (src node id, dst node id) pairs, as a frozenset
        object.__setattr__(self, "edges", edges)

    def __len__(self):
        return len(self.nodes)


# one graph for every block without a contributing instruction
_EMPTY = DataDependencyGraph((), frozenset())
# a node is a pure value, and its ids and labels repeat across blocks
_node = lru_cache(maxsize=4096)(DdgNode)


def build_ddg(block, policy: InstructionFamilyPolicy, mode: LabelMode):
    """Build the block's DDG; blocks without contributing instructions
    share one empty graph, which downstream hashing skips. Nodes, in id order,
    number the distinct operand texts 0..n-1 in order of first use, the
    source of an edge before its destination."""
    all_data = policy is InstructionFamilyPolicy.ALL_DATA_OPERANDS
    ids = {}  # operand text -> node id
    members = []  # the operand first seen of each node, in id order
    edges = set()
    for ins in block.instructions:
        operands = ins.operands
        if ins.mnemonic in _MOV_FAMILY:
            if len(operands) != 2:
                continue
            dst, src = operands
            flows = ((src, dst),)
            if ins.mnemonic == "xchg":
                flows += ((dst, src),)
        elif all_data and operands:
            dst = operands[0]
            # a lone operand is a node with no edge, as a self-move is
            flows = [(src, dst) for src in operands[1:]] or ((dst, dst),)
        else:
            continue
        for src, dst in flows:
            s = ids.setdefault(src.text, len(members))
            if s == len(members):
                members.append(src)
            d = ids.setdefault(dst.text, len(members))
            if d == len(members):
                members.append(dst)
            if s != d:  # a self-move keeps its node but carries no dependency
                edges.add((s, d))
    if not members:
        return _EMPTY
    return DataDependencyGraph(
        tuple(map(_node, range(len(members)), map(_LABEL_OF[mode], members))),
        frozenset(edges))
