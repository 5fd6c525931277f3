"""A fixed amount of pure-Python work that measures the machine's speed.

    python3 perfbench/calibrate.py

The benchmark starts this script between ddghash commands and times it
like a command. Its work never changes and imports nothing from the
repository, so its wall time moves only with the speed the host gives
the benchmark. The mix mirrors the pipeline: regex parsing of listing
lines, dict and set building, sha256 digests of small keys, sorting and
a JSON round trip. It prints one digest, the same on every run.
"""

import hashlib
import json
import re

LINES = 12_000
MNEMONICS = ["mov", "lea", "add", "sub", "cmp", "jne", "call", "push", "pop",
             "xor", "test", "ret", "and", "shl"]
REGS = ["%rax", "%rbx", "%rcx", "%rdx", "%rsi", "%rdi", "%rbp", "%rsp",
        "%r8", "%r9", "%r12", "%r13"]
LINE = re.compile(r"^ *([0-9a-f]+):\t((?:[0-9a-f]{2} )+)\s*\t(\S+)\s*(.*)$")


def listing():
    state = 12345
    lines = []
    for i in range(LINES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        mnem = MNEMONICS[state % len(MNEMONICS)]
        ops = ",".join(REGS[(state >> s) % len(REGS)] for s in (4, 9)[:1 + state % 2])
        code = " ".join(f"{(state >> s) & 0xFF:02x}" for s in range(0, 8 * (2 + state % 4), 8))
        lines.append(f"  {0x401000 + 4 * i:x}:\t{code} \t{mnem}   {ops}")
    return lines


def main():
    rows = []
    for line in listing():
        m = LINE.match(line)
        rows.append((int(m[1], 16), m[3], tuple(m[4].split(","))))
    counts = {}
    digests = set()
    for start in range(0, len(rows), 8):
        block = rows[start:start + 8]
        graph = {}
        for _, mnem, ops in block:
            counts[mnem] = counts.get(mnem, 0) + 1
            for op in ops:
                graph.setdefault(op, set()).add(mnem)
        for _ in range(3):
            graph = {k: {hashlib.sha256(repr((k, sorted(v))).encode()).hexdigest()[:16]}
                     for k, v in sorted(graph.items())}
        digests.update(d for v in graph.values() for d in v)
    doc = json.loads(json.dumps({"counts": counts, "digests": sorted(digests)}))
    print(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())


if __name__ == "__main__":
    main()
