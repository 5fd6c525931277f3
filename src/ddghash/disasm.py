"""Parser for objdump-style disassembly listings.

Consumes the text form only; producing the listing from a binary is the
caller's job (objdump -d, objdump -d -M intel, or anything line-compatible).
Both operand syntaxes are accepted and normalized to a single internal
shape: Intel operand order (destination first), lowercase mnemonics with
AT&T size suffixes folded away, and decimal displacements/immediates.

Format gotchas handled here:
  - function headers         "0000000000001000 <name>:"; a demangled C++
    name may hold "<", ">" and spaces, so the name runs to the last ">:"
  - instruction lines        "    1000:\t48 89 e5  \tmov    %rsp,%rbp"
  - byte-continuation lines  (opcode bytes only, no mnemonic) are skipped
  - an annotation is everything from the first "<" ("<sym+0x10>", nested
    "<f<int> >" ones too), a comment everything from the first "#"; both
    are stripped
  - branch targets print as bare hex without the 0x prefix
  - bare numbers elsewhere follow the usual 0x convention, decimal otherwise
  - memory operands may appear without brackets ("rbp - 44" style); they
    normalize identically to "[rbp-0x2c]"
  - size qualifiers (DWORD PTR ...) and segment prefixes are dropped
"""

import re
from functools import lru_cache

from . import FrozenRecord, Record, isa
from .errors import MalformedListing, NoInstructionsFound, UnparsableOperand
from .isa import IMMEDIATE, MEMORY, REGISTER

MAX_MALFORMED_RATIO = 0.10  # malformed share above which a listing is refused


class Operand(FrozenRecord):
    __slots__ = ("kind", "value", "text")

    def __init__(self, kind, value=None, text=""):
        object.__setattr__(self, "kind", kind)  # isa.REGISTER, MEMORY or IMMEDIATE
        object.__setattr__(self, "value", value)  # an immediate's int, else None
        # the canonical text, the one home of a memory operand's parts
        object.__setattr__(self, "text", text)


class Instruction(FrozenRecord):
    __slots__ = ("mnemonic", "operands", "raw_text", "prefixes")

    def __init__(self, mnemonic, operands, raw_text, prefixes=()):
        object.__setattr__(self, "mnemonic", mnemonic)
        object.__setattr__(self, "operands", operands)  # tuple of Operand
        object.__setattr__(self, "raw_text", raw_text)
        object.__setattr__(self, "prefixes", prefixes)  # tuple of str


class FunctionListing(FrozenRecord):
    __slots__ = ("name", "instructions", "addresses")

    def __init__(self, name, instructions, addresses):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "instructions", instructions)  # tuple
        # the address of each line, parallel to instructions
        object.__setattr__(self, "addresses", addresses)


class ParseReport(Record):
    __slots__ = ("syntax", "functions", "instructions", "skipped_lines",
                 "malformed", "distinct_asm_texts")

    def __init__(self, syntax="intel", functions=0, instructions=0,
                 skipped_lines=0, malformed=None, distinct_asm_texts=0):
        self.syntax = syntax
        self.functions = functions
        self.instructions = instructions
        self.skipped_lines = skipped_lines
        # (line_no, reason, line) of each malformed line; a fresh list each
        self.malformed = [] if malformed is None else malformed
        # asm texts parsed once each; not in as_dict()
        self.distinct_asm_texts = distinct_asm_texts

    @property
    def instruction_shaped(self):
        # each instruction-shaped line went into a function or is malformed
        return self.instructions + len(self.malformed)

    def as_dict(self):
        return {
            "syntax": self.syntax,
            "functions": self.functions,
            "instructions": self.instructions,
            "skipped_lines": self.skipped_lines,
            "malformed_lines": len(self.malformed),
        }


# One listing line. A function header is a hex address, then "<name>:",
# the name running to the last ">:". An instruction line is an indented hex
# address and ":", an optional opcode-bytes field (hex pairs up to the first
# tab), then the assembly text up to the first "<" or "#". Where no opcode
# field matched, a text made only of hex pairs is a byte continuation, and
# the line does not match. The bytes field starts with a pair, so a failed
# match never backs up onto its last pair.
_LINE_RE = re.compile(r"""
    [0-9a-fA-F]+\s+<(?P<name>.+)>:\s*$
  | \s+(?P<address>[0-9a-fA-F]+):\s*
    (?: [0-9a-f]{2}(?:[^\S\t]+[0-9a-f]{2})*[^\S\t]*\t\s*
      | (?!(?:[0-9a-f]{2}\s+)*[0-9a-f]{2}\s*(?:[<#]|$)) )
    (?P<asm>[^\s<#][^<#]*)
""", re.VERBOSE)
_MNEMONIC_OK_RE = re.compile(r"^[a-z][a-z0-9.]*$")
_INT_RE = re.compile(r"^-?(?:0x[0-9a-fA-F]+|\d+)$")
_HEX_TARGET_RE = re.compile(r"^(?:0x)?[0-9a-fA-F]+$")
_SIZE_QUALIFIER_RE = re.compile(
    r"^(?:byte|word|dword|qword|tbyte|fword|oword|xmmword|ymmword|zmmword)\s+ptr\s+",
    re.IGNORECASE,
)
_SEGMENT_RE = re.compile(r"^%?(cs|ds|es|fs|gs|ss):")
_OPERAND_PUNCT_RE = re.compile(r"[,()\[\]]")


# a token that spells no integer fails as the operand text it came from
def _parse_int(token, operand):
    token = token.strip()
    if not _INT_RE.match(token):
        raise UnparsableOperand(operand)
    return int(token, 16) if "0x" in token.lower() else int(token, 10)


def _split_operands(text):
    """Split on commas at depth zero (AT&T parens, Intel brackets)."""
    parts = []
    depth = start = 0
    for m in _OPERAND_PUNCT_RE.finditer(text):
        ch = m.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0:
            parts.append(text[start:m.start()].strip())
            start = m.end()
    parts.append(text[start:].strip())
    return [p for p in parts if p]


def _memory_operand(base, index, scale, disp):
    # displacements are signed: Intel objdump prints negative ones as
    # 64-bit two's complement hex (0xfffffffffffffb41)
    if disp is not None and disp >= 1 << 63:
        disp -= 1 << 64
    # drop a zero displacement when any register part is present, and fold
    # a lone scale-1 index into the base so equal addresses render equally
    if disp == 0 and (base or index):
        disp = None
    if base is None and index is not None and (scale is None or scale == 1):
        base, index, scale = index, None, None
    if index is not None and scale is None:
        scale = 1
    if base is None and index is None and disp is None:
        raise UnparsableOperand("<empty memory expression>")
    parts = []
    if base:
        parts.append(base)
    if index:
        parts.append(f"{index}*{scale}" if scale > 1 else index)
    text = "+".join(parts)
    if disp is not None:
        if not text:
            text = str(disp)
        else:
            text += str(disp) if disp < 0 else f"+{disp}"
    return Operand(kind=MEMORY, text=f"[{text}]")


def _register_operand(name):
    return Operand(kind=REGISTER, text=name)


def _immediate_operand(value):
    return Operand(kind=IMMEDIATE, value=value, text=f"imm:{value}")


def _parse_intel_memory_expr(inner):
    base = index = None
    scale = None
    disp = None
    for sign, term in _signed_terms(inner):
        if "*" in term:
            lhs, rhs = term.split("*", 1)
            lhs, rhs = lhs.strip(), rhs.strip()
            if lhs in isa.REGISTERS:
                reg, num = lhs, rhs
            elif rhs in isa.REGISTERS:
                reg, num = rhs, lhs
            else:
                raise UnparsableOperand(inner)
            if index is not None:
                raise UnparsableOperand(inner)
            index = reg
            scale = _parse_int(num, inner)
            if scale not in (1, 2, 4, 8):
                raise UnparsableOperand(inner)
        elif term in isa.REGISTERS:
            if base is None:
                base = term
            elif index is None:
                index = term
                scale = 1
            else:
                raise UnparsableOperand(inner)
        else:
            disp = (disp or 0) + sign * _parse_int(term, inner)
    return _memory_operand(base, index, scale, disp)


def _signed_terms(expr):
    """Yield (sign, term) over a +/- separated expression."""
    expr = expr.replace(" ", "")
    if not expr:
        raise UnparsableOperand(expr)
    terms = []
    sign = 1
    cur = []
    for i, ch in enumerate(expr):
        if ch in "+-" and cur:
            terms.append((sign, "".join(cur)))
            sign = -1 if ch == "-" else 1
            cur = []
        elif ch in "+-" and not cur and i == 0:
            sign = -1 if ch == "-" else 1
        else:
            cur.append(ch)
    if not cur:
        raise UnparsableOperand(expr)
    terms.append((sign, "".join(cur)))
    return terms


def _parse_att_operand(token, branch):
    token = token.strip()
    indirect = token.startswith("*")
    if indirect:
        token = token[1:].strip()
    if token.startswith("$"):
        return _immediate_operand(_parse_int(token[1:], token))
    token = _SEGMENT_RE.sub("", token).strip()
    if token.startswith("%"):
        name = token[1:].lower()
        if name not in isa.REGISTERS:
            raise UnparsableOperand(token)
        return _register_operand(name)
    if "(" in token and token.endswith(")"):
        head, inner = token[:-1].split("(", 1)
        disp = _parse_int(head, token) if head.strip() else None
        fields = [f.strip() for f in inner.split(",")]
        if len(fields) > 3:
            raise UnparsableOperand(token)
        base = fields[0].lstrip("%").lower() or None
        index = fields[1].lstrip("%").lower() or None if len(fields) >= 2 else None
        if any(reg not in isa.REGISTERS for reg in (base, index) if reg):
            raise UnparsableOperand(token)
        scale = None
        if len(fields) == 3 and fields[2]:
            scale = _parse_int(fields[2], token)
            if scale not in (1, 2, 4, 8):
                raise UnparsableOperand(token)
        return _memory_operand(base, index, scale, disp)
    if _HEX_TARGET_RE.match(token):
        if branch and not indirect:
            return _immediate_operand(int(token, 16))
        # bare number without $ is an absolute memory reference in AT&T
        return _memory_operand(None, None, None, _parse_int(token, token))
    raise UnparsableOperand(token)


def _parse_intel_operand(token, branch):
    token = token.strip()
    token = _SIZE_QUALIFIER_RE.sub("", token).strip()
    had_segment = bool(_SEGMENT_RE.match(token))
    token = _SEGMENT_RE.sub("", token).strip()
    if token.startswith("[") and token.endswith("]"):
        return _parse_intel_memory_expr(token[1:-1])
    if token.startswith("imm:"):
        return _immediate_operand(_parse_int(token[4:], token))
    low = token.lower()
    if low in isa.REGISTERS:
        return _register_operand(low)
    if branch and _HEX_TARGET_RE.match(token):
        return _immediate_operand(int(token, 16))
    if _INT_RE.match(token):
        value = _parse_int(token, token)
        if had_segment:
            return _memory_operand(None, None, None, value)
        return _immediate_operand(value)
    # bracket-less memory expressions: "rbp - 44", "rip+0x19fc9"
    if re.search(r"[+\-*]", token):
        return _parse_intel_memory_expr(token)
    raise UnparsableOperand(token)


@lru_cache(maxsize=65536)
def _parse_operand_cached(token, syntax, branch):
    if syntax == "att":
        return _parse_att_operand(token, branch)
    return _parse_intel_operand(token, branch)


def parse_operand(token, syntax="intel"):
    """Parse a single operand token into its normalized form.

    Canonical renderings: registers as the bare name, immediates as
    "imm:<decimal>", memory as "[base+index*scale+disp]" with a decimal
    displacement. The canonical text reparses to an equal Operand.
    """
    return _parse_operand_cached(token.strip(), syntax, False)


def detect_syntax(text):
    """Vote att/intel over the first 100 instruction lines of text."""
    return _vote(text.splitlines())


def _vote(lines):
    """Vote att/intel over the first 100 instruction lines.

    The %/$ sigils vote att; other operand text votes intel. Bare numeric
    operands (branch targets look the same in both syntaxes) and
    operand-free lines abstain. Ties resolve to intel.
    """
    att = intel = 0
    seen = 0
    for raw in lines:
        m = _LINE_RE.match(raw)
        if m is None or m["asm"] is None:
            continue
        seen += 1
        parts = m["asm"].split(None, 1)
        if len(parts) == 2:
            ops = parts[1].strip()
            if "%" in ops or "$" in ops:
                att += 1
            elif not _HEX_TARGET_RE.match(ops.removeprefix("*")):
                intel += 1
        if seen >= 100:
            break
    if seen == 0:
        raise NoInstructionsFound()
    return "att" if att > intel else "intel"


# asm texts that are no instruction: data directives and undecodable bytes
_NOT_INSTRUCTIONS = (".byte", ".word", ".long", ".quad", ".value", ".zero",
                     ".short", "(bad)")


def _parse_instruction(asm, syntax):
    att = syntax == "att"
    tokens = asm.split(None, 1)
    prefixes = []
    while tokens and tokens[0].lower() in isa.PREFIXES and len(tokens) > 1:
        prefixes.append(tokens[0].lower())
        tokens = tokens[1].split(None, 1)
    operand_text = tokens[1].strip() if len(tokens) > 1 else ""
    # size suffixes are not stripped for AT&T SIMD forms (movq %rax,%xmm0)
    simd = "%xmm" in operand_text or "%ymm" in operand_text or "%mm" in operand_text
    mnemonic = isa.normalize_mnemonic(tokens[0], att and not simd)
    if not _MNEMONIC_OK_RE.match(mnemonic):
        raise UnparsableOperand(mnemonic)

    branch = isa.control_kind(mnemonic) in ("jump", "cond", "call")
    operands = [
        _parse_operand_cached(tok, syntax, branch)
        for tok in _split_operands(operand_text)
    ]
    if len(operands) > 3:
        raise UnparsableOperand(operand_text)
    if att:
        operands.reverse()
        if mnemonic in isa.X87_REVERSED and operands and operands[0].text in isa.ST_I:
            mnemonic = isa.X87_REVERSED[mnemonic]
        elif mnemonic in isa.ATT_CVTSI2S or mnemonic in isa.ATT_STRING_OPS and \
                [op.kind for op in operands] == [MEMORY, MEMORY]:
            mnemonic = mnemonic[:-1]  # the size suffix
    if len(operands) == 1 and mnemonic in isa.SHIFT_ROTATE:
        operands.append(_immediate_operand(1))  # implicit shift-by-one
    return Instruction(
        mnemonic=mnemonic,
        operands=tuple(operands),
        raw_text=asm,
        prefixes=tuple(prefixes),
    )


def parse_listing_with_report(text, syntax=None):
    """Parse a full listing; returns (functions, report).

    Each distinct asm text is parsed once, and every line that spells it
    shares that Instruction; the lines' addresses are kept apart, in
    FunctionListing.addresses. Failures are not remembered, so every
    malformed line is reported at its own number.
    Raises NoInstructionsFound for inputs with no instruction lines and
    MalformedListing when more than MAX_MALFORMED_RATIO of the
    instruction-shaped lines fail to parse.
    """
    lines = text.splitlines()
    if syntax is None:
        syntax = _vote(lines)
    report = ParseReport(syntax=syntax)
    parsed = {}  # asm text -> Instruction
    pending = []  # (name, instructions, addresses) of each function, in order

    for line_no, raw in enumerate(lines, 1):
        m = _LINE_RE.match(raw)
        if m is None:
            if raw.strip():
                report.skipped_lines += 1
            continue
        name, address, asm = m.groups()
        if name is not None:
            pending.append((name, [], []))
            continue
        asm = asm.rstrip()
        if asm == "..." or asm.startswith(_NOT_INSTRUCTIONS):
            report.skipped_lines += 1
            continue
        address = int(address, 16)
        instr = parsed.get(asm)
        if instr is None:
            try:
                instr = parsed[asm] = _parse_instruction(asm, syntax)
            except UnparsableOperand as exc:
                report.malformed.append((line_no, str(exc), raw.rstrip()))
                continue
        if not pending:
            pending.append((f"unnamed_{address:x}", [], []))
        _, instructions, addresses = pending[-1]
        if addresses and address <= addresses[-1]:
            report.malformed.append((line_no, "non-increasing address", raw.rstrip()))
            continue
        instructions.append(instr)
        addresses.append(address)
    del lines  # the split text goes before the records are made into tuples
    functions = [FunctionListing(name, tuple(instructions), tuple(addresses))
                 for name, instructions, addresses in pending if instructions]
    report.functions = len(functions)
    report.instructions = sum(len(fn.instructions) for fn in functions)
    report.distinct_asm_texts = len(parsed)

    if report.instruction_shaped == 0:
        raise NoInstructionsFound()
    if len(report.malformed) > MAX_MALFORMED_RATIO * report.instruction_shaped:
        raise MalformedListing(report)
    return functions, report


def parse_listing(text, syntax=None):
    """Parse a listing into FunctionListings (see parse_listing_with_report)."""
    functions, _ = parse_listing_with_report(text, syntax=syntax)
    return functions
