"""Basic-block segmentation with each block's control flow exits.

Leaders are the first instruction of a function, every target of a direct
intra-function jump, and every instruction following a control transfer.
Blocks therefore partition the instruction stream in order, and a control
transfer can only ever sit in the final slot of its block.
"""

from bisect import bisect_left

from . import FrozenRecord, isa
from .disasm import FunctionListing
from .features import DANGLING, EXTERNAL, INDIRECT
from .isa import IMMEDIATE


class BasicBlock(FrozenRecord):
    """Instructions entered only at the first; addresses live in the listing."""

    __slots__ = ("id", "instructions", "successors", "exit")

    def __init__(self, id, instructions, successors, exit):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "instructions", instructions)  # tuple
        # ids of the blocks control passes to next, as a frozenset
        object.__setattr__(self, "successors", successors)
        # None, or the kind of jump that reaches no block of the function:
        # features.INDIRECT, EXTERNAL or DANGLING, each the name of the
        # diagnostics count it feeds
        object.__setattr__(self, "exit", exit)


def _direct_target(instr):
    """Target address of a direct jump/call, or None when indirect."""
    if len(instr.operands) == 1 and instr.operands[0].kind == IMMEDIATE:
        return instr.operands[0].value
    return None


def segment(listing: FunctionListing, first_id=0):
    """Split a function into basic blocks numbered from first_id.

    A block passes control to the block after it (fall-through, the
    return of a call, the resumption after a trap) unless it ends in an
    unconditional jump, a return or a halt, and to the block a direct
    jump or conditional jump targets. A call's target gets no successor.
    A jump that resolves to no block is recorded as the block's exit.
    """
    # the parser keeps a function's addresses strictly increasing
    instrs, addresses = listing.instructions, listing.addresses

    leaders = {0}
    transfers = {}  # index -> (falls through, target index or None, exit)
    for i, ins in enumerate(instrs):
        kind = isa.control_kind(ins.mnemonic)
        if kind is None:
            continue
        if i + 1 < len(instrs):
            leaders.add(i + 1)
        target = exit = None
        if kind in ("jump", "cond"):
            address = _direct_target(ins)
            if address is None:
                exit = INDIRECT
            else:
                at = bisect_left(addresses, address)
                if at < len(addresses) and addresses[at] == address:
                    target = at
                    leaders.add(target)
                else:  # a miss inside the function's span dangles
                    exit = DANGLING if 0 < at < len(addresses) else EXTERNAL
        transfers[i] = (kind not in ("jump", "ret", "halt"), target, exit)

    starts = sorted(leaders)
    ids = {start: first_id + n for n, start in enumerate(starts)}
    blocks = []
    for start, end in zip(starts, starts[1:] + [len(instrs)]):
        falls, target, exit = transfers.get(end - 1, (True, None, None))
        successors = {ids[target]} if target is not None else set()
        if falls and end in ids:
            successors.add(ids[end])
        blocks.append(
            BasicBlock(
                id=ids[start],
                instructions=tuple(instrs[start:end]),
                successors=frozenset(successors),
                exit=exit,
            )
        )
    return blocks
