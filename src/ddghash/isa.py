"""x86/64 mnemonic and register tables, and the operand kinds the
pipeline names.

Everything here is plain data consulted by the parser, segmenter and
DDG builder. The tables cover the common integer/SSE subset
produced by objdump on typical binaries; unknown mnemonics pass through
untouched and stem to "other" downstream.
"""

# Operand.kind, each the operand's class label in a DDG node
REGISTER = "reg"
MEMORY = "mem"
IMMEDIATE = "imm"


# Condition codes used by j<cc>, cmov<cc>, set<cc>.
CONDITION_CODES = (
    "o", "no", "b", "c", "nae", "nb", "nc", "ae", "e", "z", "ne", "nz",
    "be", "na", "nbe", "a", "s", "ns", "p", "pe", "np", "po", "l", "nge",
    "nl", "ge", "le", "ng", "nle", "g", "cxz", "ecxz", "rcxz",
)

GP_REGISTERS = {
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    "eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp",
    "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
    "ax", "bx", "cx", "dx", "si", "di", "bp", "sp",
    "r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w",
    "al", "bl", "cl", "dl", "ah", "bh", "ch", "dh",
    "sil", "dil", "bpl", "spl",
    "r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b",
}

SIMD_REGISTERS = (
    {f"xmm{i}" for i in range(16)}
    | {f"ymm{i}" for i in range(16)}
    | {f"zmm{i}" for i in range(32)}
    | {f"mm{i}" for i in range(8)}
    | {f"st({i})" for i in range(8)}
    | {"st"}
)

SEGMENT_REGISTERS = {"cs", "ds", "es", "fs", "gs", "ss"}

OTHER_REGISTERS = {"rip", "eip", "eflags", "rflags", "fs_base", "gs_base"} | {
    f"cr{i}" for i in range(9)
} | {f"dr{i}" for i in range(8)} | {f"k{i}" for i in range(8)}

REGISTERS = GP_REGISTERS | SIMD_REGISTERS | SEGMENT_REGISTERS | OTHER_REGISTERS

# Instruction prefixes stripped off the mnemonic into Instruction.prefixes.
# Segment overrides appear standalone before multi-byte nops (cs nopw ...).
PREFIXES = {"lock", "rep", "repe", "repz", "repne", "repnz", "bnd", "notrack",
            "data16", "addr32"} | SEGMENT_REGISTERS

# the control-transfer class of each mnemonic that transfers control
CONTROL_KINDS = {
    mnemonic: kind
    for kind, mnemonics in (
        ("jump", ("jmp", "ljmp")),
        ("cond", [f"j{cc}" for cc in CONDITION_CODES]),
        ("call", ("call", "lcall")),
        ("ret", ("ret", "retf", "iret", "lret")),
        ("int", ("int", "int1", "int3", "into")),
        ("syscall", ("syscall", "sysenter", "sysexit", "sysret")),
        ("halt", ("hlt",)),
    )
    for mnemonic in mnemonics
}

# control_kind(mnemonic): its CONTROL_KINDS class, None for straight-line code
control_kind = CONTROL_KINDS.get


CMOV_MNEMONICS = {f"cmov{cc}" for cc in CONDITION_CODES}

# Data-movement family for DDG extraction under the mov_only policy.
MOV_FAMILY = {"mov", "movabs", "movzx", "movsx", "xchg"} | CMOV_MNEMONICS


# Mnemonics whose AT&T spelling may carry a b/w/l/q operand-size suffix
# that Intel syntax omits. "cmovb"/"jb"/"setb" style mnemonics are NOT
# derivable from this set (their trailing letter is a condition code), so
# only suffixed forms of the bases below are ever rewritten.
SUFFIX_STRIP_BASES = (
    {
        "mov", "movabs", "add", "sub", "and", "or", "xor", "cmp", "test",
        "lea", "push", "pop", "call", "ret", "jmp", "inc", "dec", "neg",
        "not", "mul", "imul", "div", "idiv", "shl", "shr", "sar", "sal",
        "rol", "ror", "rcl", "rcr", "adc", "sbb", "xchg", "leave", "iret",
        "bswap", "bt", "bts", "btr", "xadd", "nop",
    }
    | CMOV_MNEMONICS
)

# Shift/rotate forms whose by-one variant prints without the immediate in
# AT&T syntax (sar %rsi) but with it in Intel (sar rsi,1).
SHIFT_ROTATE = {"shl", "shr", "sal", "sar", "rol", "ror", "rcl", "rcr"}

_SIZE_SUFFIXES = "bwlq"

# AT&T names of the sign-extension instructions, which Intel syntax
# spells differently.
ATT_ALIASES = {"cbtw": "cbw", "cwtl": "cwde", "cltq": "cdqe",
               "cwtd": "cwd", "cltd": "cdq", "cqto": "cqo"}


# x87 mnemonics whose AT&T spelling carries a memory-operand size suffix
# (s, l, t or ll: flds, fildll, fstpt) that Intel syntax omits. A closed
# list, so fldl2t, fldl2e and fldlg2 stay as they are.
X87_SUFFIX_BASES = {
    "fld", "fst", "fstp", "fild", "fist", "fistp", "fisttp", "fadd", "fsub",
    "fsubr", "fmul", "fdiv", "fdivr", "fcom", "fcomp", "fiadd", "fisub",
    "fisubr", "fimul", "fidiv", "fidivr", "ficom", "ficomp",
}

# AT&T swaps the reversed and plain forms of register-register x87
# subtraction and division when the destination is st(i), i != 0: AT&T
# fsub %st,%st(1) is Intel fsubr st(1),st.
X87_REVERSED = {"fsub": "fsubr", "fsubr": "fsub", "fsubp": "fsubrp",
                "fsubrp": "fsubp", "fdiv": "fdivr", "fdivr": "fdiv",
                "fdivp": "fdivrp", "fdivrp": "fdivp"}
ST_I = {f"st({i})" for i in range(1, 8)}  # the x87 registers but st(0)

# AT&T size-suffixed names that suffix folding cannot see, so the parser
# drops the suffix. A string move or compare (movsq, cmpsb; Intel movs,
# cmps) is told from SSE movsd by its two memory operands; the %xmm operand
# of cvtsi2sdl (Intel cvtsi2sd) keeps it out of suffix folding.
ATT_STRING_OPS = {op + size for op in ("movs", "cmps") for size in "bwlq"}
ATT_CVTSI2S = {f"{v}cvtsi2s{p}{size}"
               for v in ("", "v") for p in "sd" for size in "lq"}


def normalize_mnemonic(mnemonic, att):
    """Lowercase and, for AT&T input, fold operand-size suffixes away.

    movzbl/movzbq/... -> movzx, movsbl/movslq/... -> movsx, movsxd -> movsx,
    movl -> mov, pushq -> push, fildll -> fild, fstpt -> fstp, and so on;
    the AT&T sign-extension names become their Intel ones (cltq -> cdqe,
    see ATT_ALIASES). Intel-mode input is only lowercased (movsxd is still
    folded so both syntaxes agree). The x87 reversed forms and the string
    ops depend on the operands, and cvtsi2s*'s %xmm operand keeps it out
    of the folding here, so the parser folds these (X87_REVERSED,
    ATT_STRING_OPS, ATT_CVTSI2S).
    """
    m = mnemonic.lower()
    if m == "movsxd":
        return "movsx"
    if not att:
        return m
    if m in ATT_ALIASES:
        return ATT_ALIASES[m]
    if len(m) == 6 and m.startswith(("movz", "movs")) and \
            m[4] in _SIZE_SUFFIXES and m[5] in _SIZE_SUFFIXES:
        return "movzx" if m[3] == "z" else "movsx"
    if len(m) > 2 and m[-1] in _SIZE_SUFFIXES and m[:-1] in SUFFIX_STRIP_BASES:
        return m[:-1]
    if m.endswith("ll") and m[:-2] in X87_SUFFIX_BASES:
        return m[:-2]
    if m[-1:] in ("s", "l", "t") and m[:-1] in X87_SUFFIX_BASES:
        return m[:-1]
    return m
