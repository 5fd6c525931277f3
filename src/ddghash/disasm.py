"""Parser for objdump-style disassembly listings.

Consumes the text form only; producing the listing from a binary is the
caller's job (objdump -d, objdump -d -M intel, or anything line-compatible).
Both operand syntaxes are accepted and normalized to a single internal
shape: Intel operand order (destination first), lowercase mnemonics with
AT&T size suffixes folded away, and decimal displacements/immediates.

Format gotchas handled here:
  - function headers         "0000000000001000 <name>:"
  - instruction lines        "    1000:\t48 89 e5  \tmov    %rsp,%rbp"
  - byte-continuation lines  (opcode bytes only, no mnemonic) are skipped
  - trailing "# ..." comments and "<sym+0x10>" annotations are stripped
  - branch targets print as bare hex without the 0x prefix
  - bare numbers elsewhere follow the usual 0x convention, decimal otherwise
  - memory operands may appear without brackets ("rbp - 44" style); they
    normalize identically to "[rbp-0x2c]"
  - size qualifiers (DWORD PTR ...) and segment prefixes are dropped
"""

import re
from dataclasses import dataclass, field
from functools import lru_cache

from . import isa
from .errors import MalformedListing, NoInstructionsFound, UnparsableOperand

REGISTER = "register"
MEMORY = "memory"
IMMEDIATE = "immediate"

MAX_MALFORMED_RATIO = 0.10  # malformed share above which a listing is refused


@dataclass(frozen=True)
class Operand:
    kind: str
    base: str | None = None
    index: str | None = None
    scale: int | None = None
    displacement: int | None = None
    value: int | None = None
    text: str = ""


@dataclass(frozen=True)
class Instruction:
    address: int
    mnemonic: str
    operands: tuple[Operand, ...]
    raw_text: str
    prefixes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionListing:
    name: str
    instructions: tuple[Instruction, ...]


@dataclass
class ParseReport:
    syntax: str = "intel"
    functions: int = 0
    instructions: int = 0
    skipped_lines: int = 0
    instruction_shaped: int = 0
    malformed: list = field(default_factory=list)  # (line_no, reason, line)
    distinct_asm_texts: int = 0  # parsed once each; not part of as_dict()

    def as_dict(self):
        return {
            "syntax": self.syntax,
            "functions": self.functions,
            "instructions": self.instructions,
            "skipped_lines": self.skipped_lines,
            "malformed_lines": len(self.malformed),
        }


_FUNC_HEADER_RE = re.compile(r"^([0-9a-fA-F]+)\s+<([^<>]+)>:\s*$")
_INSTR_LINE_RE = re.compile(r"^\s+([0-9a-fA-F]+):\s*(.*)$")
_BYTES_FIELD_RE = re.compile(r"^(?:[0-9a-f]{2}\s+)*[0-9a-f]{2}\s*$")
_ANNOTATION_RE = re.compile(r"<[^<>]*>")
_MNEMONIC_OK_RE = re.compile(r"^[a-z][a-z0-9.]*$")
_INT_RE = re.compile(r"^-?(?:0x[0-9a-fA-F]+|\d+)$")
_HEX_TARGET_RE = re.compile(r"^(?:0x)?[0-9a-fA-F]+$")
_SIZE_QUALIFIER_RE = re.compile(
    r"^(?:byte|word|dword|qword|tbyte|fword|oword|xmmword|ymmword|zmmword)\s+ptr\s+",
    re.IGNORECASE,
)
_SEGMENT_RE = re.compile(r"^%?(cs|ds|es|fs|gs|ss):")


def _parse_int(token):
    token = token.strip()
    if not _INT_RE.match(token):
        raise ValueError(token)
    return int(token, 16) if "0x" in token.lower() else int(token, 10)


def _split_operands(text):
    """Split on commas at depth zero (AT&T parens, Intel brackets)."""
    if not any(ch in text for ch in "()[]"):
        return [p for p in (part.strip() for part in text.split(",")) if p]
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
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
    return Operand(kind=MEMORY, base=base, index=index, scale=scale,
                   displacement=disp, text=f"[{text}]")


def _register_operand(name):
    return Operand(kind=REGISTER, base=name, text=name)


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
            scale = _parse_int(num)
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
            try:
                disp = (disp or 0) + sign * _parse_int(term)
            except ValueError:
                raise UnparsableOperand(inner) from None
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
        try:
            return _immediate_operand(_parse_int(token[1:]))
        except ValueError:
            raise UnparsableOperand(token) from None
    token = _SEGMENT_RE.sub("", token).strip()
    if token.startswith("%"):
        name = token[1:].lower()
        if not name:
            raise UnparsableOperand(token)
        return _register_operand(name)
    if "(" in token and token.endswith(")"):
        head, inner = token[:-1].split("(", 1)
        try:
            disp = _parse_int(head) if head.strip() else None
            fields = [f.strip() for f in inner.split(",")]
            if len(fields) > 3:
                raise UnparsableOperand(token)
            base = fields[0].lstrip("%").lower() or None
            index = fields[1].lstrip("%").lower() or None if len(fields) >= 2 else None
            scale = None
            if len(fields) == 3 and fields[2]:
                scale = _parse_int(fields[2])
                if scale not in (1, 2, 4, 8):
                    raise UnparsableOperand(token)
        except ValueError:
            raise UnparsableOperand(token) from None
        return _memory_operand(base, index, scale, disp)
    if _HEX_TARGET_RE.match(token):
        if branch and not indirect:
            return _immediate_operand(int(token, 16))
        # bare number without $ is an absolute memory reference in AT&T
        return _memory_operand(None, None, None, _parse_int(token))
    raise UnparsableOperand(token)


def _parse_intel_operand(token, branch):
    token = token.strip()
    token = _SIZE_QUALIFIER_RE.sub("", token).strip()
    had_segment = bool(_SEGMENT_RE.match(token))
    token = _SEGMENT_RE.sub("", token).strip()
    if token.startswith("[") and token.endswith("]"):
        return _parse_intel_memory_expr(token[1:-1])
    if token.startswith("imm:"):
        try:
            return _immediate_operand(_parse_int(token[4:]))
        except ValueError:
            raise UnparsableOperand(token) from None
    low = token.lower()
    if low in isa.REGISTERS:
        return _register_operand(low)
    if branch and _HEX_TARGET_RE.match(token):
        return _immediate_operand(int(token, 16))
    if _INT_RE.match(token):
        value = _parse_int(token)
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


_BARE_TARGET_RE = re.compile(r"^\*?(?:0x)?[0-9a-fA-F]+$")


def detect_syntax(text):
    """Vote att/intel over the first 100 instruction-shaped lines.

    The %/$ sigils vote att; other operand text votes intel. Bare numeric
    operands (branch targets look the same in both syntaxes) and
    operand-free lines abstain. Ties resolve to intel.
    """
    att = intel = 0
    seen = 0
    for raw in text.splitlines():
        m = _INSTR_LINE_RE.match(raw)
        if not m:
            continue
        asm = _extract_asm(m.group(2))
        if asm is None:
            continue
        seen += 1
        parts = asm.split(None, 1)
        if len(parts) == 2:
            ops = parts[1].strip()
            if "%" in ops or "$" in ops:
                att += 1
            elif not _BARE_TARGET_RE.match(ops):
                intel += 1
        if seen >= 100:
            break
    if seen == 0:
        raise NoInstructionsFound("no instruction lines in input")
    return "att" if att > intel else "intel"


def _extract_asm(rest):
    """Split the post-address part of an instruction line into assembly text.

    Returns None for byte-continuation lines (opcode bytes, no mnemonic).
    """
    rest = _ANNOTATION_RE.sub("", rest)
    hash_pos = rest.find("#")
    if hash_pos != -1:
        rest = rest[:hash_pos]
    fields = rest.split("\t")
    if len(fields) >= 2 and _BYTES_FIELD_RE.match(fields[0].strip()):
        asm = "\t".join(fields[1:]).strip()
    else:
        candidate = rest.strip()
        if _BYTES_FIELD_RE.match(candidate):
            return None
        asm = candidate
    return asm or None


_DATA_DIRECTIVES = (".byte", ".word", ".long", ".quad", ".value", ".zero", ".short")


def _parse_instruction(address, asm, syntax):
    att = syntax == "att"
    tokens = asm.split(None, 1)
    prefixes = []
    while tokens and tokens[0].lower() in isa.PREFIXES and len(tokens) > 1:
        prefixes.append(tokens[0].lower())
        tokens = tokens[1].split(None, 1)
    mnemonic = isa.normalize_mnemonic(tokens[0], att)
    operand_text = tokens[1].strip() if len(tokens) > 1 else ""

    simd = "%xmm" in operand_text or "%ymm" in operand_text or "%mm" in operand_text
    if att and simd:
        # size suffixes are not stripped for SIMD forms (movq %rax,%xmm0)
        mnemonic = tokens[0].lower()
        if mnemonic == "movsxd":
            mnemonic = "movsx"

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
    if len(operands) == 1 and mnemonic in isa.SHIFT_ROTATE:
        operands.append(_immediate_operand(1))  # implicit shift-by-one
    return Instruction(
        address=address,
        mnemonic=mnemonic,
        operands=tuple(operands),
        raw_text=asm,
        prefixes=tuple(prefixes),
    )


def parse_listing_with_report(text, syntax=None):
    """Parse a full listing; returns (functions, report).

    Each distinct asm text is parsed once: a repeat builds its Instruction
    from the first parse's fields and its own address. Failures are not
    remembered, so every malformed line is reported at its own number.
    Raises NoInstructionsFound for inputs with no instruction lines and
    MalformedListing when more than MAX_MALFORMED_RATIO of the
    instruction-shaped lines fail to parse.
    """
    if syntax is None:
        syntax = detect_syntax(text)
    report = ParseReport(syntax=syntax)
    parsed = {}  # asm text -> (mnemonic, operands, prefixes)

    functions = []
    current_name = None
    current_instructions = []
    last_address = None

    def flush():
        nonlocal current_name, current_instructions, last_address
        if current_name is not None and current_instructions:
            functions.append(
                FunctionListing(current_name, tuple(current_instructions))
            )
            report.functions += 1
        current_name = None
        current_instructions = []
        last_address = None

    for line_no, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        header = _FUNC_HEADER_RE.match(raw)
        if header:
            flush()
            current_name = header.group(2)
            continue
        m = _INSTR_LINE_RE.match(raw)
        if not m:
            report.skipped_lines += 1
            continue
        asm = _extract_asm(m.group(2))
        if asm is None or asm == "..." or asm.startswith(_DATA_DIRECTIVES) \
                or asm.startswith("(bad)"):
            report.skipped_lines += 1
            continue
        report.instruction_shaped += 1
        address = int(m.group(1), 16)
        fields = parsed.get(asm)
        if fields is None:
            try:
                instr = _parse_instruction(address, asm, syntax)
            except (UnparsableOperand, ValueError) as exc:
                report.malformed.append((line_no, str(exc), raw.rstrip()))
                continue
            parsed[asm] = (instr.mnemonic, instr.operands, instr.prefixes)
        else:
            instr = Instruction(address, fields[0], fields[1], asm, fields[2])
        if last_address is not None and address <= last_address:
            report.malformed.append((line_no, "non-increasing address", raw.rstrip()))
            continue
        if current_name is None:
            current_name = f"unnamed_{address:x}"
        last_address = address
        current_instructions.append(instr)
        report.instructions += 1
    flush()
    report.distinct_asm_texts = len(parsed)

    if report.instruction_shaped == 0:
        raise NoInstructionsFound("no instruction lines in input")
    if len(report.malformed) > MAX_MALFORMED_RATIO * report.instruction_shaped:
        raise MalformedListing(report)
    return functions, report


def parse_listing(text, syntax=None):
    """Parse a listing into FunctionListings (see parse_listing_with_report)."""
    functions, _ = parse_listing_with_report(text, syntax=syntax)
    return functions
