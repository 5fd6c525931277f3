"""Acceptance suite: every shipped guarantee, one criterion per test.

Runs under pytest (tests/test_acceptance.py -v) or standalone
(python tests/test_acceptance.py), printing one pass/fail line per
criterion either way.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script from a checkout: find its package
    sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "src"))

import iso_oracle
from fixtures import (CMOV_BLOCK_INTEL, CROSS_SYNTAX_BINARIES, gen_instructions,
                      large_listing, make_graph, make_listing, objdump_listings,
                      permute_graph, random_graph, render_listing, star_program)

from ddghash.blocks import segment
from ddghash.corpus import Corpus, FeatureFile, build_feature_file, \
    decode_feature_file, encode_feature_file
from ddghash.ddg import InstructionFamilyPolicy, LabelMode, build_ddg
from ddghash.disasm import parse_listing_with_report
from ddghash.features import FeatureParams, ProgramFeatureSet, compare
from ddghash.tfidf import load_default_dictionary, tf_vector
from ddghash.wlhash import wl_hash

PARAMS = FeatureParams()
DATA = Path(__file__).parent / "data"


def _cli(corpus, *argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ddghash", "-C", str(corpus), *argv],
        capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    return proc.returncode, proc.stdout, proc.stderr


# 1 ------------------------------------------------------------------------

def criterion_1_wl_soundness():
    """200 random digraphs (<=12 nodes) hash identically to a random node
    permutation of themselves; required 100% equality in < 5 s."""
    rng = random.Random(0xC0FFEE)
    start = time.monotonic()
    for _ in range(200):
        g = random_graph(rng, max_nodes=12)
        perm = list(range(len(g.nodes)))
        rng.shuffle(perm)
        assert wl_hash(g) == wl_hash(permute_graph(g, perm))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"soundness run took {elapsed:.2f}s"


# 2 ------------------------------------------------------------------------

def criterion_2_wl_conditional_completeness():
    """Over all connected digraphs with <=5 nodes (one per isomorphism
    class via the brute-force permutation oracle), every equal-hash pair
    must be certified 1-WL-indistinguishable by the independent color
    refinement check. Zero uncertified collisions, < 60 s."""
    start = time.monotonic()
    reps = iso_oracle.enumerate_canonical_digraphs(5, connected_only=True)
    by_hash = {}
    for n, edges in reps:
        g = make_graph(n, edges, labels=["*"] * n)
        by_hash.setdefault(wl_hash(g), []).append((n, edges))
    collisions = 0
    for group in by_hash.values():
        for i, (n1, e1) in enumerate(group):
            for n2, e2 in group[i + 1:]:
                collisions += 1
                assert not iso_oracle.are_isomorphic(n1, e1, n2, e2), \
                    "enumeration produced isomorphic duplicates"
                assert iso_oracle.color_refinement_equivalent(n1, e1, n2, e2), \
                    f"uncertified collision: {sorted(e1)} vs {sorted(e2)}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"completeness run took {elapsed:.2f}s"
    return f"{len(reps)} classes, {collisions} certified collisions"


# 3 ------------------------------------------------------------------------

def _fake_set(pid, hashes):
    return ProgramFeatureSet(program_id=pid, params=PARAMS, diagnostics={},
                             hashes=frozenset(hashes))


def criterion_3_set_algebra_identities():
    """Inclusion-exclusion, jaccard symmetry, J(A,A)=1, J(A,empty)=0 and
    jaccard <= min(containments) hold exactly on 1,000 random pairs, and
    the reference cardinalities (234, 622, 113) give union 743 and
    jaccard 113/743 (the identity is enforced)."""
    rng = random.Random(1812)
    empty = _fake_set("empty", set())
    for _ in range(1000):
        ha = {f"{rng.randrange(80):032x}" for _ in range(rng.randint(1, 50))}
        hb = {f"{rng.randrange(80):032x}" for _ in range(rng.randint(1, 50))}
        a, b = _fake_set("a", ha), _fake_set("b", hb)
        r = compare(a, b)
        assert r.union == r.size_a + r.size_b - r.intersection
        assert r.diff_a_minus_b == r.size_a - r.intersection
        assert r.diff_b_minus_a == r.size_b - r.intersection
        assert r.jaccard == compare(b, a).jaccard
        assert compare(a, a).jaccard == Fraction(1)
        assert compare(a, empty).jaccard == Fraction(0)
        assert r.jaccard <= min(r.containment_a_in_b, r.containment_b_in_a) <= 1

    a = _fake_set("ls", {f"{i:032x}" for i in range(1, 235)})
    b = _fake_set("zeus", {f"{i:032x}" for i in range(122, 744)})
    r = compare(a, b)
    assert (r.size_a, r.size_b, r.intersection) == (234, 622, 113)
    assert (r.diff_a_minus_b, r.diff_b_minus_a) == (121, 509)
    assert r.union == 743
    assert r.jaccard == Fraction(113, 743)
    assert f"{float(r.jaccard):.3f}" == "0.152"


# 4 ------------------------------------------------------------------------

def criterion_4_sample_block_end_to_end(tmp_path):
    """The ten-instruction fixture: one basic block; mov_only/literal DDG
    has 5 nodes and 5 edges; tf vector mov=4 cmov=1 and=1 or=2 cmp=1 jmp=1
    total=10; two separate process runs write byte-identical feature
    files."""
    fns, _ = parse_listing_with_report(CMOV_BLOCK_INTEL)
    blocks = segment(fns[0])
    assert len(blocks) == 1 and len(blocks[0].instructions) == 10

    g = build_ddg(blocks[0], InstructionFamilyPolicy.MOV_ONLY,
                  LabelMode.LITERAL)
    assert len(g.nodes) == 5 and len(g.edges) == 5

    dictionary = load_default_dictionary()
    v = tf_vector(blocks[0], dictionary)
    nonzero = {s: c for s, c in zip(dictionary.stems, v) if c}
    assert nonzero == {"mov": 4, "cmov": 1, "and": 1, "or": 2, "cmp": 1,
                       "jmp": 1}
    assert sum(v) == 10

    src = tmp_path / "sample.objdump"
    src.write_text(CMOV_BLOCK_INTEL)
    outputs = []
    for run_dir in ("c1", "c2"):
        corpus = tmp_path / run_dir
        code, _, err = _cli(corpus, "ingest", str(src), "--id", "sample")
        assert code == 0, err
        outputs.append((corpus / "sample.features.json").read_bytes())
    assert outputs[0] == outputs[1], "feature files differ across processes"


# 5 ------------------------------------------------------------------------

def criterion_5_dedup_contract():
    """Two identical blocks produce |block_map| = 2 but |hashes| = 1."""
    text = make_listing([
        ("b0", ["mov eax, ebx", "ret"]),
        ("b1", ["mov eax, ebx", "ret"]),
    ])
    ff = build_feature_file(text, "dup", PARAMS)
    assert len(ff.block_map) == 2
    assert len(ff.feature_set.hashes) == 1


# 6 ------------------------------------------------------------------------

def criterion_6_containment_discovery(tmp_path):
    """With A's hash set a strict subset of B's, contain --threshold 1.0
    returns exactly (A, B, 1.0)."""
    corpus = tmp_path / "corpus"
    for pid, ids in (("a", range(1, 31)), ("b", range(1, 61))):
        src = tmp_path / f"{pid}.objdump"
        src.write_text(star_program(ids))
        code, _, err = _cli(corpus, "ingest", str(src), "--id", pid)
        assert code == 0, err
    code, out, err = _cli(corpus, "--format", "json", "contain",
                          "--threshold", "1.0")
    assert code == 0, err
    rows = json.loads(out)["results"]
    assert rows == [{"inner": "a", "outer": "b", "containment": "1.000"}]


# 7 ------------------------------------------------------------------------

def criterion_7_statistics_pipeline(tmp_path):
    """Pair jaccards {0.064, 0.204, 0.270} through --stats report
    min 0.064, median 0.204, max 0.270."""
    shared_ab = range(4000, 4032)   # 32
    shared_ac = range(5000, 5102)   # 102
    shared_bc = range(6000, 6054)   # 54
    programs = {
        "a": list(range(1000, 1306)) + list(shared_ab) + list(shared_ac),
        "b": list(range(2000, 2006)) + list(shared_ab) + list(shared_bc),
        "c": list(range(3000, 3006)) + list(shared_ac) + list(shared_bc),
    }
    corpus = tmp_path / "corpus"
    for pid, ids in programs.items():
        src = tmp_path / f"{pid}.objdump"
        src.write_text(star_program(ids))
        code, _, err = _cli(corpus, "ingest", str(src), "--id", pid)
        assert code == 0, err
    code, out, err = _cli(corpus, "--format", "json", "matrix", "--all",
                          "--stats")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["min"] == "0.064"
    assert doc["median"] == "0.204"
    assert doc["max"] == "0.270"
    jaccards = sorted(p["jaccard"] for p in doc["pairs"])
    assert jaccards == ["0.064", "0.204", "0.270"]


# 8 ------------------------------------------------------------------------

def criterion_8_persistence(tmp_path):
    """100 random feature sets survive save/load exactly; re-ingesting
    unchanged input rewrites nothing."""
    rng = random.Random(64)
    for _ in range(100):
        n_blocks = rng.randint(0, 25)
        block_map = {
            i: f"{rng.randrange(1 << 64):032x}"
            for i in range(n_blocks) if rng.random() < 0.8
        }
        ids = list(block_map)
        edges = {
            (rng.choice(ids), rng.choice(ids))
            for _ in range(rng.randint(0, 15)) if len(ids) >= 2
        }
        ff = FeatureFile(
            feature_set=ProgramFeatureSet(
                program_id=f"p{rng.randrange(10**9)}",
                params=FeatureParams(
                    label_mode=rng.choice(list(LabelMode)),
                    policy=rng.choice(list(InstructionFamilyPolicy)),
                ),
                diagnostics={"blocks": n_blocks},
                hashes=frozenset(block_map.values()),
            ),
            block_map=block_map,
            order_edges=frozenset(edges),
            term_counts=tuple(tuple(rng.randrange(4) for _ in range(32))
                              for _ in range(n_blocks)),
            term_stems=tuple(load_default_dictionary().stems),
            source_digest=f"sha256:{rng.randrange(1 << 64):064x}",
        )
        assert decode_feature_file(encode_feature_file(ff)) == ff

    text = star_program(range(1, 40))
    corpus = Corpus(tmp_path / "corpus")
    corpus.ingest(text, "p", PARAMS)
    stored = corpus._path("p")
    before_bytes = stored.read_bytes()
    before_stat = stored.stat().st_mtime_ns
    corpus.ingest(text, "p", PARAMS)
    assert stored.read_bytes() == before_bytes
    assert stored.stat().st_mtime_ns == before_stat


# 9 ------------------------------------------------------------------------

def criterion_9_parser_equivalence():
    """>= 500 generated instructions rendered in AT&T and Intel syntax
    parse to field-identical records at the same addresses, and so do
    /usr/bin/true's listings in tests/data and, where objdump is
    installed, those of the installed CROSS_SYNTAX_BINARIES."""
    rng = random.Random(0xA55)
    specs = gen_instructions(rng, 500)
    pairs = [(render_listing(specs, att=True, seed=2),
              render_listing(specs, att=False, seed=1)),
             tuple((DATA / f"true_{s}.objdump").read_text()
                   for s in ("att", "intel"))]
    for binary in CROSS_SYNTAX_BINARIES:
        if objdump_listings(binary) is not None:
            pairs.append(objdump_listings(binary))
    counts = []
    for att_text, intel_text in pairs:
        (att_fns, _), (intel_fns, _) = map(parse_listing_with_report,
                                           (att_text, intel_text))
        assert [f.addresses for f in att_fns] == [f.addresses for f in intel_fns]
        att = [i for f in att_fns for i in f.instructions]
        intel = [i for f in intel_fns for i in f.instructions]
        assert len(intel) == len(att)
        for a, b in zip(intel, att):
            assert (a.mnemonic, a.operands, a.prefixes) == \
                (b.mnemonic, b.operands, b.prefixes)
        counts.append(len(att))
    assert counts[0] == 500
    return f"instructions per listing pair: {counts}"


# 10 -----------------------------------------------------------------------

def criterion_10_throughput():
    """Parsing + segmentation + DDG + hashing of a 100,000-instruction
    listing finishes in < 10 s."""
    text = large_listing(100_000)
    start = time.monotonic()
    ff = build_feature_file(text, "big", PARAMS)
    elapsed = time.monotonic() - start
    assert ff.feature_set.diagnostics["instructions"] == 100_000
    assert elapsed < 10.0, f"ingest took {elapsed:.2f}s"
    return f"{elapsed:.2f}s for 100k instructions"


CRITERIA = [
    ("1 WL soundness (200 permuted pairs)", criterion_1_wl_soundness, False),
    ("2 WL conditional completeness (<=5-node catalog)",
     criterion_2_wl_conditional_completeness, False),
    ("3 set-algebra identities (1000 pairs + reference cardinalities)",
     criterion_3_set_algebra_identities, False),
    ("4 ten-instruction block end to end",
     criterion_4_sample_block_end_to_end, True),
    ("5 dedup contract", criterion_5_dedup_contract, False),
    ("6 containment discovery", criterion_6_containment_discovery, True),
    ("7 statistics pipeline", criterion_7_statistics_pipeline, True),
    ("8 persistence round-trip and idempotence", criterion_8_persistence, True),
    ("9 parser syntax equivalence", criterion_9_parser_equivalence, False),
    ("10 ingest throughput", criterion_10_throughput, False),
]


def _report(name, fn, tmp_path=None):
    try:
        detail = fn(tmp_path) if tmp_path is not None else fn()
    except AssertionError as exc:
        print(f"FAIL  criterion {name}: {exc}")
        raise
    suffix = f" [{detail}]" if detail else ""
    print(f"PASS  criterion {name}{suffix}")


@pytest.mark.parametrize("name,fn,needs_tmp",
                         CRITERIA, ids=[c[0].split()[0] for c in CRITERIA])
def test_acceptance(name, fn, needs_tmp, tmp_path):
    _report(name, fn, tmp_path if needs_tmp else None)


if __name__ == "__main__":
    import tempfile

    failures = 0
    for name, fn, needs_tmp in CRITERIA:
        try:
            if needs_tmp:
                with tempfile.TemporaryDirectory() as tmp:
                    _report(name, fn, Path(tmp))
            else:
                _report(name, fn)
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
