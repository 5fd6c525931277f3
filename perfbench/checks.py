"""Independent checks of what the ddghash CLI wrote and printed.

Every expected value is recomputed here from the files on disk (or from
the listing text) by this module's own code; nothing is compared against
a saved copy of earlier output. Each check returns a list of problem
strings; an empty list means the output is correct.
"""

import hashlib
import json
import random
import statistics
from fractions import Fraction
from hashlib import blake2b


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decimal3(value) -> str:
    # the CLI's documented rendering of a coefficient: three decimals
    return f"{float(value):.3f}"


def ratio(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}"


def fraction(num, den) -> Fraction:
    return Fraction(num, den) if den else Fraction(0)


# -- feature files ---------------------------------------------------------

def check_feature_file(doc, program_id, listing_sha256, params):
    """Invariants every feature file must hold on its own."""
    problems = []
    where = f"{program_id}.features.json"
    block_map = doc["block_map"]
    if doc["program_id"] != program_id:
        problems.append(f"{where}: program_id is {doc['program_id']!r}")
    if doc["hashes"] != sorted(set(block_map.values())):
        problems.append(f"{where}: hashes != sorted distinct block_map values")
    for a, b in doc["order_edges"]:
        if str(a) not in block_map or str(b) not in block_map:
            problems.append(f"{where}: order edge {a}->{b} leaves block_map")
            break
    diag = doc["diagnostics"]
    counts = doc["term_counts"]
    if len(counts) != diag["blocks"]:
        problems.append(f"{where}: {len(counts)} term_counts rows for "
                        f"{diag['blocks']} blocks")
    if sum(sum(row) for row in counts.values()) != diag["instructions"]:
        problems.append(f"{where}: term_counts sum != diagnostics.instructions")
    if doc["source_digest"] != "sha256:" + listing_sha256:
        problems.append(f"{where}: source_digest does not match the listing")
    for key, value in params.items():
        if doc["params"].get(key) != value:
            problems.append(f"{where}: params.{key} is "
                            f"{doc['params'].get(key)!r}, requested {value!r}")
    return problems


def check_same_records(doc_a, doc_b):
    """Two syntaxes of one binary must normalize to identical records."""
    return [
        f"{doc_a['program_id']} vs {doc_b['program_id']}: {key} differs"
        for key in ("block_map", "hashes", "order_edges", "term_counts")
        if doc_a[key] != doc_b[key]
    ]


def check_index(index, docs):
    """index.json must equal the inverted index derived from the files."""
    problems = []
    inverted = {}
    for pid, doc in docs.items():
        for h in doc["hashes"]:
            inverted.setdefault(h, []).append(pid)
    inverted = {h: sorted(ps) for h, ps in inverted.items()}
    if index.get("inverted") != inverted:
        problems.append("index.json: inverted index differs from the files")
    programs = index.get("programs", {})
    if set(programs) != set(docs):
        problems.append("index.json: program set differs from the files")
    for pid in set(programs) & set(docs):
        entry, doc = programs[pid], docs[pid]
        if (entry["hashes"], entry["blocks"]) != (len(doc["hashes"]),
                                                  len(doc["term_counts"])):
            problems.append(f"index.json: {pid} counts differ from its file")
    return problems


# -- the wl/1 graph hash, written from docs/formats.md ---------------------

def _label_list(labels):
    return "".join(f"{len(lab.encode('utf-8'))}:{lab}" for lab in sorted(labels))


def _digest(text):
    return blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def wl1(labels, edges, iterations):
    """labels: node -> label; edges: (src, dst) pairs. Returns 32 hex."""
    preds = {v: [] for v in labels}
    succs = {v: [] for v in labels}
    for s, d in edges:
        succs[s].append(d)
        preds[d].append(s)
    payload = [f"ddghash-wl/1\nnodes={len(labels)}\nedges={len(edges)}\n"
               f"iterations={iterations}\n"]
    for rnd in range(iterations + 1):
        if rnd:
            labels = {
                v: _digest(_label_list([labels[v]])
                           + "|i" + _label_list(labels[u] for u in preds[v])
                           + "|o" + _label_list(labels[w] for w in succs[v]))
                for v in labels
            }
        payload.append(f"round={rnd}\n{_label_list(labels.values())}\n")
    return _digest("".join(payload))


def check_wl_sample(ddghash, listing_text, doc, params, rng, sample_size):
    """Re-hash a seeded sample of blocks with wl1 over ddghash.build_ddg.

    Blocks are numbered the way the feature file numbers them: in listing
    order, counting on across functions.
    """
    functions, _ = ddghash.parse_listing_with_report(listing_text)
    blocks = []
    for fn in functions:
        blocks.extend(ddghash.segment(fn, first_id=len(blocks)))
    policy = ddghash.InstructionFamilyPolicy(params["policy"])
    mode = ddghash.LabelMode(params["label_mode"])
    block_map = doc["block_map"]
    problems = []
    if len(blocks) != doc["diagnostics"]["blocks"]:
        return [f"{doc['program_id']}: {len(blocks)} blocks re-segmented, "
                f"file says {doc['diagnostics']['blocks']}"]
    for block in rng.sample(blocks, min(sample_size, len(blocks))):
        graph = ddghash.build_ddg(block, policy, mode)
        recorded = block_map.get(str(block.id))
        if not graph.nodes:
            if recorded is not None:
                problems.append(f"{doc['program_id']}: block {block.id} has "
                                f"an empty DDG but a hash")
            continue
        expected = wl1({n.id: n.label for n in graph.nodes}, list(graph.edges),
                       params["wl_iterations"])
        if recorded != expected:
            problems.append(f"{doc['program_id']}: block {block.id} hash "
                            f"{recorded} != wl/1 {expected}")
    return problems


# -- query outputs ---------------------------------------------------------

def compare_fields(a_id, sa, b_id, sb):
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    jac = fraction(inter, union)
    ca = fraction(inter, len(sa))
    cb = fraction(inter, len(sb))
    return {
        "a_id": a_id, "b_id": b_id, "size_a": len(sa), "size_b": len(sb),
        "intersection": inter, "union": union,
        "diff_a_minus_b": len(sa) - inter, "diff_b_minus_a": len(sb) - inter,
        "jaccard": decimal3(jac), "jaccard_exact": ratio(jac),
        "containment_a_in_b": decimal3(ca), "containment_a_in_b_exact": ratio(ca),
        "containment_b_in_a": decimal3(cb), "containment_b_in_a_exact": ratio(cb),
    }


class QueryOracle:
    """Expected query answers, computed once per distinct command from the
    corpus files' hash sets."""

    def __init__(self, docs):
        self.sets = {pid: frozenset(doc["hashes"]) for pid, doc in docs.items()}
        self.docs = docs
        self.ids = sorted(docs)
        self._cache = {}

    def expected(self, argv):
        key = tuple(argv)
        if key not in self._cache:
            self._cache[key] = getattr(self, "_" + argv[0])(*argv[1:])
        return self._cache[key]

    def check(self, argv, stdout):
        try:
            got = json.loads(stdout)
        except ValueError:
            return [f"{' '.join(argv)}: output is not JSON"]
        want = self.expected(argv)
        if argv[0] in ("compare", "tfstats"):  # the fields the files determine
            got = {k: got.get(k) for k in want}
        if argv[0] == "tfstats" and isinstance(got["totals"], list):
            got["totals"] = {s: c for s, c in got["totals"]}  # order is display
        if got != want:
            return [f"{' '.join(argv)}: output differs from the recomputed answer"]
        return []

    def _compare(self, a, b):
        return compare_fields(a, self.sets[a], b, self.sets[b])

    def _nearest(self, query, _k_flag, k):
        sq = self.sets[query]
        rows = [compare_fields(query, sq, pid, self.sets[pid])
                for pid in self.ids if pid != query]
        rows.sort(key=lambda r: (-Fraction(r["jaccard_exact"]),
                                 -Fraction(r["containment_b_in_a_exact"]),
                                 r["b_id"]))
        return {"schema_version": 1, "results": rows[:int(k)]}

    def _contain(self, _flag, threshold):
        limit = Fraction(threshold)
        rows = []
        for inner in self.ids:
            si = self.sets[inner]
            if not si:
                continue
            for outer in self.ids:
                if outer != inner:
                    c = Fraction(len(si & self.sets[outer]), len(si))
                    if c >= limit:
                        rows.append((inner, outer, c))
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return {"schema_version": 1, "results": [
            {"inner": i, "outer": o, "containment": decimal3(c)}
            for i, o, c in rows]}

    def _matrix(self, _all, _stats):
        pairs = [(a, b) for i, a in enumerate(self.ids) for b in self.ids[i + 1:]]
        values = {}
        for a, b in pairs:
            inter = len(self.sets[a] & self.sets[b])
            values[(a, b)] = fraction(inter, len(self.sets[a]) + len(self.sets[b]) - inter)
        data = sorted(values.values())
        q1, med, q3 = statistics.quantiles(data, n=4, method="inclusive")
        doc = {"schema_version": 1, "count": len(data)}
        for k, v in (("min", data[0]), ("q1", q1), ("median", med),
                     ("q3", q3), ("max", data[-1])):
            doc[k] = decimal3(v)
        doc["pairs"] = [{"id_a": a, "id_b": b, "jaccard": decimal3(values[(a, b)])}
                        for a, b in pairs]
        return doc

    def _tfstats(self, pid):
        doc = self.docs[pid]
        rows = list(doc["term_counts"].values())
        totals = [sum(col) for col in zip(*rows)]
        return {"instructions": sum(totals),
                "totals": dict(zip(doc["term_stems"], totals))}


def seeded_rng(seed, purpose):
    """An independent stream per purpose, so one use cannot shift another."""
    return random.Random(f"{seed}:{purpose}")
