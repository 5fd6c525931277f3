"""Data dependency graph construction, one graph per basic block.

Nodes are canonical operand texts; a directed edge s -> d records data
flowing from a source operand into a destination operand. Under the
default mov_only policy only the data-movement family contributes
(mov/movzx/movsx/movabs/cmov*/xchg, with xchg adding both directions).
The all_data_operands policy additionally lets every other instruction
with two or more operands contribute edges from each source-position
operand to its first (destination) operand.
"""

from . import FrozenRecord, isa
from .features import InstructionFamilyPolicy, LabelMode
from .isa import MEMORY, REGISTER


_CLASS_LABELS = {REGISTER: "reg", MEMORY: "mem"}


def node_label(operand, mode: LabelMode):
    if mode is LabelMode.UNLABELED:
        return "*"
    if mode is LabelMode.OPERAND_CLASS:
        return _CLASS_LABELS.get(operand.kind, "imm")
    return operand.text


class DdgNode(FrozenRecord):
    __slots__ = ("id", "text", "label")

    def __init__(self, id, text, label):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "label", label)


class DataDependencyGraph(FrozenRecord):
    __slots__ = ("block_id", "nodes", "edges")

    def __init__(self, block_id, nodes, edges):
        object.__setattr__(self, "block_id", block_id)
        object.__setattr__(self, "nodes", nodes)  # tuple of DdgNode
        # (src node id, dst node id) pairs, as a frozenset
        object.__setattr__(self, "edges", edges)

    def __len__(self):
        return len(self.nodes)


class _Builder:
    def __init__(self, block_id, mode):
        self.block_id = block_id
        self.mode = mode
        self.ids = {}
        self.nodes = []
        self.edges = set()

    def node(self, operand):
        nid = self.ids.get(operand.text)
        if nid is None:
            nid = len(self.nodes)
            self.ids[operand.text] = nid
            self.nodes.append(DdgNode(nid, operand.text, node_label(operand, self.mode)))
        return nid

    def edge(self, src, dst):
        s, d = self.node(src), self.node(dst)
        if s == d:
            return  # self-moves keep the node but carry no dependency
        self.edges.add((s, d))

    def finish(self):
        return DataDependencyGraph(
            block_id=self.block_id,
            nodes=tuple(self.nodes),
            edges=frozenset(self.edges),
        )


def build_ddg(block, policy=InstructionFamilyPolicy.MOV_ONLY,
              mode=LabelMode.OPERAND_CLASS):
    """Build the block's DDG; blocks without contributing instructions
    yield an empty graph that downstream hashing skips."""
    b = _Builder(block.id, mode)
    all_data = policy is InstructionFamilyPolicy.ALL_DATA_OPERANDS
    for ins in block.instructions:
        if ins.mnemonic in isa.MOV_FAMILY:
            if len(ins.operands) != 2:
                continue
            dst, src = ins.operands
            b.edge(src, dst)
            if ins.mnemonic == "xchg":
                b.edge(dst, src)
        elif all_data and ins.operands:
            dst = ins.operands[0]
            if len(ins.operands) == 1:
                b.node(dst)
            for src in ins.operands[1:]:
                b.edge(src, dst)
    return b.finish()
