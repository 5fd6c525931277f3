"""Data dependency graph construction, one graph per basic block.

A node is a canonical operand text, kept as its id and label; a directed
edge s -> d records data flowing from a source operand into a destination
operand. Under the default mov_only policy only the data-movement family
contributes (mov/movzx/movsx/movabs/cmov*/xchg, xchg in both directions).
The all_data_operands policy additionally lets every other instruction
with two or more operands contribute edges from each source-position
operand to its first (destination) operand.
"""

from . import FrozenRecord, isa
from .features import InstructionFamilyPolicy, LabelMode


def node_label(operand, mode: LabelMode):
    """The node's label: "*", the operand's kind (its class label) or text."""
    if mode is LabelMode.UNLABELED:
        return "*"
    if mode is LabelMode.OPERAND_CLASS:
        return operand.kind
    return operand.text


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


def build_ddg(block, policy: InstructionFamilyPolicy, mode: LabelMode):
    """Build the block's DDG; blocks without contributing instructions
    yield an empty graph that downstream hashing skips. Nodes, in id order,
    number the distinct operand texts 0..n-1 in order of first use, the
    source of an edge before its destination."""
    all_data = policy is InstructionFamilyPolicy.ALL_DATA_OPERANDS
    ids = {}  # operand text -> node id
    nodes = []
    edges = set()
    for ins in block.instructions:
        operands = ins.operands
        if ins.mnemonic in isa.MOV_FAMILY:
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
        for flow in flows:
            for operand in flow:
                if operand.text not in ids:
                    ids[operand.text] = len(nodes)
                    nodes.append(DdgNode(len(nodes), node_label(operand, mode)))
            s, d = ids[flow[0].text], ids[flow[1].text]
            if s != d:  # a self-move keeps its node but carries no dependency
                edges.add((s, d))
    return DataDependencyGraph(tuple(nodes), frozenset(edges))
