"""Shared fixture builders: listing text generators and graph constructors."""

import functools
import json
import re
import shutil
import subprocess
from pathlib import Path

from ddghash.ddg import DataDependencyGraph, DdgNode
from ddghash.disasm import _parse_operand_cached

# Ten-instruction single-block listing used across the suite, in both
# syntaxes. The Intel form writes memory operands bracket-less ("rbp - 44")
# to exercise that normalization path.
CMOV_BLOCK_INTEL = """\
sample:     file format elf64-x86-64


Disassembly of section .text:

0000000000001000 <update_flags>:
    1000:\t8b 4d d4             \tmov    ecx, rbp - 44
    1003:\t89 c8                \tmov    eax, ecx
    1005:\t25 90 01 00 00       \tand    eax, 400
    100a:\t0d 8c 00 00 00       \tor     eax, 140
    100f:\t83 c9 01             \tor     ecx, 1
    1012:\t83 3d aa 00 00 00 00 \tcmp    rip + 170, 0
    1019:\t0f 45 c8             \tcmovne ecx, eax
    101c:\t89 4d d4             \tmov    rbp - 44, ecx
    101f:\tc7 05 b4 00 00 00 00 \tmov    rip + 180, 0
    1026:\te9 d5 ef ff ff       \tjmp    0x100000000
"""

CMOV_BLOCK_ATT = """\
sample:     file format elf64-x86-64


Disassembly of section .text:

0000000000001000 <update_flags>:
    1000:\t8b 4d d4             \tmov    -0x2c(%rbp),%ecx
    1003:\t89 c8                \tmov    %ecx,%eax
    1005:\t25 90 01 00 00       \tand    $0x190,%eax
    100a:\t0d 8c 00 00 00       \tor     $0x8c,%eax
    100f:\t83 c9 01             \tor     $0x1,%ecx
    1012:\t83 3d aa 00 00 00 00 \tcmpl   $0x0,0xaa(%rip)
    1019:\t0f 45 c8             \tcmovne %eax,%ecx
    101c:\t89 4d d4             \tmov    %ecx,-0x2c(%rbp)
    101f:\tc7 05 b4 00 00 00 00 \tmovl   $0x0,0xb4(%rip)
    1026:\te9 d5 ef ff ff       \tjmp    0x100000000
"""


def make_listing(functions, start=0x1000, step=4):
    """Wrap (name, [asm line]) pairs in objdump framing.

    Instruction addresses advance by `step` within and across functions,
    so tests can predict them: function k's i-th line sits at
    start + step * (lines before it).
    """
    out = ["sample:     file format elf64-x86-64", "",
           "Disassembly of section .text:", ""]
    addr = start
    for name, lines in functions:
        out.append(f"{addr:016x} <{name}>:")
        for asm in lines:
            out.append(f"    {addr:x}:\t90                   \t{asm}")
            addr += step
        out.append("")
    return "\n".join(out) + "\n"


# --- star-class programs ------------------------------------------------
#
# Class i (i >= 1) maps to (a, b) = divmod(i, 28): a stores from eax into a
# distinct memory slots, b loads into eax from b other slots. Under
# operand_class labels the resulting DDG is a directed double star whose
# WL hash is unique per (a, b), so a program built from a set of class ids
# has exactly that many distinct hashes.

def star_class_lines(class_id):
    a_out, b_in = divmod(class_id, 28)
    lines = []
    for k in range(a_out):
        lines.append(f"mov    DWORD PTR [rbp-{8 * (k + 1)}], eax")
    for k in range(b_in):
        lines.append(f"mov    eax, DWORD PTR [rbp+{8 * (k + 1)}]")
    lines.append("ret")
    return lines


def star_program(class_ids, start=0x1000):
    functions = [
        (f"blk_{pos:04d}", star_class_lines(cid))
        for pos, cid in enumerate(class_ids)
    ]
    return make_listing(functions, start=start)


def operand_of(token, syntax="intel"):
    """One operand token parsed as the listing parser parses an operand
    that is no branch target: a bare AT&T number is a memory reference."""
    return _parse_operand_cached(token.strip(), syntax, False)


# --- direct graph construction -------------------------------------------

def make_graph(n, edges, labels=None):
    if labels is None:
        labels = ["*"] * n
    nodes = tuple(DdgNode(i, labels[i]) for i in range(n))
    return DataDependencyGraph(nodes=nodes, edges=frozenset(edges))


def permute_graph(graph, perm):
    """Relabel node ids by perm and shuffle the node tuple ordering."""
    nodes = sorted(
        (DdgNode(perm[node.id], node.label) for node in graph.nodes),
        key=lambda nd: nd.id,
    )
    edges = frozenset((perm[u], perm[v]) for u, v in graph.edges)
    return DataDependencyGraph(nodes=tuple(nodes), edges=edges)


def random_graph(rng, max_nodes=12, edge_prob=0.3, label_pool=("reg", "mem", "imm")):
    n = rng.randint(1, max_nodes)
    labels = [rng.choice(label_pool) for _ in range(n)]
    edges = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < edge_prob
    }
    return make_graph(n, edges, labels)


# --- two-syntax instruction corpus ---------------------------------------

_REG64 = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "r8", "r9", "r12"]
_REG32 = ["eax", "ebx", "ecx", "edx", "esi", "edi", "r8d", "r13d"]
_REG8 = ["al", "bl", "cl", "dl"]


def _rand_mem(rng):
    form = rng.randrange(5)
    if form == 0:
        return ("mem", rng.choice(_REG64), None, None, rng.choice([-44, -8, 16, 0x2c]))
    if form == 1:
        return ("mem", rng.choice(_REG64), None, None, None)
    if form == 2:
        return ("mem", rng.choice(_REG64), rng.choice(_REG64),
                rng.choice([1, 2, 4, 8]), rng.choice([None, 8, -16]))
    if form == 3:
        return ("mem", None, rng.choice(_REG64), rng.choice([2, 4, 8]),
                rng.choice([None, 0x10]))
    return ("mem", None, None, None, rng.choice([0x601040, 0x20, 4096]))


def gen_instructions(rng, count):
    """Abstract instruction specs: (mnemonic, [operands], att_suffix).

    Operands are in Intel order (destination first). att_suffix marks
    forms objdump would print with a size suffix (no register operand to
    imply the width).
    """
    out = []
    for _ in range(count):
        pick = rng.randrange(10)
        if pick == 0:
            out.append(("mov", [("reg", rng.choice(_REG64)),
                                ("reg", rng.choice(_REG64))], None))
        elif pick == 1:
            out.append(("mov", [("reg", rng.choice(_REG32)),
                                ("imm", rng.randrange(0, 1 << 16))], None))
        elif pick == 2:
            out.append(("mov", [_rand_mem(rng), ("reg", rng.choice(_REG32))], None))
        elif pick == 3:
            out.append(("mov", [_rand_mem(rng),
                                ("imm", rng.randrange(0, 256))], "l"))
        elif pick == 4:
            mn = rng.choice(["add", "sub", "and", "or", "xor", "cmp"])
            if rng.random() < 0.5:
                out.append((mn, [("reg", rng.choice(_REG32)),
                                 ("imm", rng.randrange(0, 4096))], None))
            else:
                out.append((mn, [_rand_mem(rng),
                                 ("imm", rng.randrange(0, 128))], "q"))
        elif pick == 5:
            mn = rng.choice(["inc", "dec", "neg", "not"])
            out.append((mn, [("reg", rng.choice(_REG64))], None))
        elif pick == 6:
            out.append((rng.choice(["push", "pop"]),
                        [("reg", rng.choice(_REG64))], None))
        elif pick == 7:
            out.append(("lea", [("reg", rng.choice(_REG64)),
                                ("mem", rng.choice(_REG64), None, None,
                                 rng.choice([-24, 8, 100]))], None))
        elif pick == 8:
            mn = rng.choice(["jmp", "je", "jne", "ja", "call"])
            out.append((mn, [("target", rng.randrange(0x1000, 0x9000))], None))
        else:
            choice = rng.randrange(4)
            if choice == 0:
                out.append(("movzx", [("reg", rng.choice(_REG32)),
                                      ("reg", rng.choice(_REG8))], None))
            elif choice == 1:
                out.append(("xchg", [("reg", rng.choice(_REG64)),
                                     ("reg", rng.choice(_REG64))], None))
            elif choice == 2:
                out.append(("cmovne", [("reg", rng.choice(_REG32)),
                                       ("reg", rng.choice(_REG32))], None))
            else:
                out.append(("test", [("reg", rng.choice(_REG32)),
                                     ("reg", rng.choice(_REG32))], None))
    return out


def _intel_mem(spec, rng):
    _, base, index, scale, disp = spec
    parts = []
    if base:
        parts.append(base)
    if index:
        parts.append(f"{index}*{scale}")
    expr = "+".join(parts)
    if disp is not None:
        rendered = hex(disp) if rng.random() < 0.5 else str(disp)
        if disp < 0:
            rendered = "-" + (hex(-disp) if "x" in rendered else str(-disp))
            expr += rendered
        elif expr:
            expr += "+" + rendered
        else:
            expr = rendered
    if not base and not index:
        return f"ds:{expr}"
    qualifier = rng.choice(["", "DWORD PTR ", "QWORD PTR ", "BYTE PTR "])
    return f"{qualifier}[{expr}]"


def _att_mem(spec):
    _, base, index, scale, disp = spec
    head = "" if disp is None else hex(disp)
    if not base and not index:
        return head
    inner = f"%{base}" if base else ""
    if index:
        inner += f",%{index},{scale}"
    return f"{head}({inner})"


def _render_operand(spec, att, rng):
    kind = spec[0]
    if kind == "reg":
        return f"%{spec[1]}" if att else spec[1]
    if kind == "imm":
        rendered = hex(spec[1]) if rng.random() < 0.5 else str(spec[1])
        return f"${rendered}" if att else rendered
    if kind == "target":
        return f"{spec[1]:x}"
    return _att_mem(spec) if att else _intel_mem(spec, rng)


_ATT_MNEMONIC = {"movzx": "movzbl"}


def render_listing(specs, att, seed=0, start=0x1000):
    """Render abstract specs as one objdump-style function."""
    import random

    rng = random.Random(seed)
    lines = []
    for mnemonic, operands, suffix in specs:
        ops = list(operands)
        name = mnemonic
        if att:
            name = _ATT_MNEMONIC.get(mnemonic, mnemonic)
            if suffix:
                name += suffix
            ops.reverse()
        text = ", ".join(_render_operand(o, att, rng) for o in ops)
        lines.append(f"{name}    {text}" if text else name)
    return make_listing([("generated", lines)], start=start)


# --- bulk listing for throughput tests ------------------------------------

def large_listing(n_instructions, seed=7):
    import random

    rng = random.Random(seed)
    functions = []
    remaining = n_instructions
    fn = 0
    while remaining > 0:
        body = min(40, remaining)
        lines = []
        for i in range(body - 1):
            r = rng.randrange(4)
            if r == 0:
                lines.append(f"mov    {rng.choice(_REG64)}, {rng.choice(_REG64)}")
            elif r == 1:
                lines.append(f"mov    DWORD PTR [rbp-{8 * (i % 20 + 1)}], eax")
            elif r == 2:
                lines.append(f"add    {rng.choice(_REG32)}, {rng.randrange(512)}")
            else:
                lines.append(f"mov    eax, DWORD PTR [rbp+{8 * (i % 20 + 1)}]")
        lines.append("ret")
        functions.append((f"fn_{fn:05d}", lines))
        fn += 1
        remaining -= body
    return make_listing(functions)


def replace_first_count(text, value):
    """A feature file's text, in any layout, with value written over its
    first term count."""
    return re.sub(r'("term_counts":\s*\{\s*"\d+":\s*\[\s*)\d+',
                  lambda m: m.group(1) + value, text, count=1)


def member_span(text, key):
    """Where a top-level member of a feature file's text, in any layout,
    starts, where its value starts and where its value ends."""
    head = re.search(rf'"{key}"\s*:\s*', text)
    _, end = json.JSONDecoder().raw_decode(text, head.end())
    return head.start(), head.end(), end


def nest_hashes(text):
    """A feature file's text with its hashes nested 200,000 deep."""
    _, value, end = member_span(text, "hashes")
    return text[:value] + "[" * 200_000 + "]" * 200_000 + text[end:]


# --- listings objdump generates from an installed binary -------------------

BASE64 = "/usr/bin/base64"  # a few thousand instructions
LS = "/usr/bin/ls"  # about 22k instructions, with x87 code
APT_CACHE = "/usr/bin/apt-cache"  # C++, with template names to demangle

# the real binaries whose AT&T and Intel listings must give equal records:
# ls holds x87 code, sha1sum and sha512sum hold string moves
CROSS_SYNTAX_BINARIES = (BASE64, LS, "/usr/bin/sha1sum", "/usr/bin/sha512sum")


@functools.lru_cache(maxsize=None)
def objdump_text(binary, *flags):
    """objdump -d text of an installed binary, with extra objdump flags, made
    once per process; None when objdump or the binary is absent."""
    if shutil.which("objdump") is None or not Path(binary).is_file():
        return None
    return subprocess.run(["objdump", "-d", *flags, binary], capture_output=True,
                          text=True, check=True).stdout


def objdump_listings(binary):
    """(AT&T, Intel) objdump -d text of an installed binary; None when
    objdump or the binary is absent."""
    att = objdump_text(binary)
    return None if att is None else (att, objdump_text(binary, "-M", "intel"))
