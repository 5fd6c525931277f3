import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddghash.corpus import (Corpus, FeatureFile, decode_feature_file,
                            encode_feature_file)
from ddghash.ddg import InstructionFamilyPolicy, LabelMode
from ddghash.errors import (DdghashError, MalformedListing,
                            NoInstructionsFound, UnknownProgram)
from ddghash.features import FeatureParams, ProgramFeatureSet, compare
from ddghash.wlhash import WLParams

from fixtures import star_program

PARAMS = FeatureParams()


def _random_feature_file(rng):
    n_blocks = rng.randint(0, 30)
    block_map = {}
    for i in range(n_blocks):
        if rng.random() < 0.8:
            block_map[i] = f"{rng.randrange(1 << 60):032x}"
    ids = list(block_map)
    edges = set()
    for _ in range(rng.randint(0, 20)):
        if len(ids) >= 2:
            edges.add((rng.choice(ids), rng.choice(ids)))
    term_counts = {
        i: tuple(rng.randrange(5) for _ in range(32)) for i in range(n_blocks)
    }
    fs = ProgramFeatureSet(
        program_id=f"prog{rng.randrange(10**6)}",
        params=PARAMS,
        block_map=block_map,
        order_edges=frozenset(edges),
        diagnostics={"blocks": n_blocks, "empty_ddgs": n_blocks - len(block_map)},
    )
    return FeatureFile(
        feature_set=fs,
        term_counts=term_counts,
        term_stems=tuple(f"s{i}" for i in range(32)),
        source_digest=f"sha256:{rng.randrange(1 << 64):064x}",
    )


def test_round_trip_random_feature_files():
    rng = random.Random(8)
    for _ in range(50):
        ff = _random_feature_file(rng)
        assert decode_feature_file(encode_feature_file(ff)) == ff


def test_format_version_checked():
    ff = _random_feature_file(random.Random(1))
    doc = json.loads(encode_feature_file(ff))
    doc["format_version"] = 99
    with pytest.raises(Exception):
        decode_feature_file(json.dumps(doc))


@pytest.mark.parametrize("mutate", [
    lambda t: t.replace('"hashes": ', '"hashez": ', 1),
    lambda t: t.replace('\n  "order_edges": ', '\n  "extra": 1,\n  "order_edges": ', 1),
    lambda t: t.replace('\n}\n', ',\n  "zzz": 1\n}\n'),
    lambda t: t.replace(',\n  "params": ', '\n  "params": ', 1),
    lambda t: t.replace('"program_id": "', '"program_id": 1 + "', 1),
    lambda t: t.replace('"digest_bits": 128', '"digest_bits": 64', 1),
], ids=["renamed", "extra_inside", "extra_last", "no_comma", "bad_value",
        "digest_bits_64"])
def test_non_canonical_text_names_source(mutate):
    text = encode_feature_file(_random_feature_file(random.Random(3)))
    with pytest.raises(DdghashError, match="^corp/p.features.json: "):
        decode_feature_file(mutate(text), "corp/p.features.json")


def test_ingest_dedup_counts(tmp_path):
    # 300 blocks over 234 distinct DDG classes
    class_ids = list(range(1, 235)) + list(range(1, 67))
    corpus = Corpus(tmp_path / "corpus")
    ff = corpus.ingest(star_program(class_ids), "prog", PARAMS)
    fs = ff.feature_set
    assert len(fs.block_map) == 300
    assert len(fs.hashes) == 234
    assert fs.diagnostics["duplicate_hashes"] == 66


def test_ingest_idempotent(tmp_path):
    text = star_program(range(1, 20))
    corpus = Corpus(tmp_path / "corpus")
    corpus.ingest(text, "p", PARAMS)
    stored = corpus._path("p")
    first = stored.read_bytes()
    first_mtime = stored.stat().st_mtime_ns
    corpus.ingest(text, "p", PARAMS)
    assert stored.read_bytes() == first
    assert stored.stat().st_mtime_ns == first_mtime


def test_ingest_failure_writes_nothing(tmp_path):
    corpus = Corpus(tmp_path / "corpus")
    with pytest.raises(NoInstructionsFound):
        corpus.ingest("this is not a listing\n", "bad", PARAMS)
    truncated = "0000000000001000 <f>:\n" + "\n".join(
        f"    {0x1000 + i:x}:\t90\tmov [}}x{{], eax" for i in range(20)
    )
    with pytest.raises(MalformedListing):
        corpus.ingest(truncated, "trunc", PARAMS)
    assert not (tmp_path / "corpus" / "bad.features.json").exists()
    assert not (tmp_path / "corpus" / "trunc.features.json").exists()


def test_unknown_program(tmp_path):
    corpus = Corpus(tmp_path)
    with pytest.raises(UnknownProgram):
        corpus.load("ghost")


def _build_corpus(tmp_path, programs):
    corpus = Corpus(tmp_path / "corpus")
    for pid, class_ids in programs.items():
        corpus.ingest(star_program(class_ids), pid, PARAMS)
    return corpus


def test_compare_through_store(tmp_path):
    corpus = _build_corpus(tmp_path, {
        "a": range(1, 51),
        "b": range(26, 76),
    })
    rep = corpus.compare("a", "b")
    assert rep.size_a == rep.size_b == 50
    assert rep.intersection == 25
    assert rep.union == 75


def test_nearest_subset_outranks_on_tie(tmp_path):
    # query = {1..60}; sub ⊂ query and other overlap with the same jaccard,
    # but sub is fully contained in the query so it must rank first
    corpus = _build_corpus(tmp_path, {
        "query": range(1, 61),
        "sub": range(1, 31),       # J = 30/60 = 1/2, containment 1
        "other": range(31, 121),   # J = 30/120 = 1/4
        "half": range(31, 91),     # J = 30/90 = 1/3
    })
    ranked = corpus.nearest("query", k=10)
    assert [pid for pid, _ in ranked] == ["sub", "half", "other"]

    tie = _build_corpus(tmp_path / "tie", {
        "query": range(1, 41),
        "inner": range(1, 21),      # J = 20/40 = 1/2, containment 1
        "straddle": range(21, 61),  # J = 20/60 = 1/3
        "even": range(1, 41),       # J = 1
    })
    ranked = tie.nearest("query", k=2)
    assert ranked[0][0] == "even"
    assert ranked[0][1].jaccard == 1
    assert ranked[1][0] == "inner"


def test_nearest_k_larger_than_corpus(tmp_path):
    corpus = _build_corpus(tmp_path, {"a": range(1, 5), "b": range(1, 5)})
    assert len(corpus.nearest("a", k=50)) == 1


def test_find_containments(tmp_path):
    corpus = _build_corpus(tmp_path, {
        "inner": range(1, 31),
        "outer": range(1, 61),
    })
    rows = corpus.find_containments(Fraction(1))
    assert rows == [("inner", "outer", Fraction(1))]

    disjoint = _build_corpus(tmp_path / "d", {
        "x": range(1, 20),
        "y": range(20, 40),
    })
    assert disjoint.find_containments(Fraction(1, 100)) == []


def test_find_containments_matches_pair_scan(tmp_path):
    rng = random.Random(23)
    programs = {
        f"p{i}": sorted(rng.sample(range(1, 60), rng.randint(3, 25)))
        for i in range(6)
    }
    corpus = _build_corpus(tmp_path, programs)
    threshold = Fraction(1, 2)
    got = corpus.find_containments(threshold)
    expected = []
    sets = {pid: set(ids) for pid, ids in programs.items()}
    for a, sa in sets.items():
        for b, sb in sets.items():
            if a != b and Fraction(len(sa & sb), len(sa)) >= threshold:
                expected.append((a, b, Fraction(len(sa & sb), len(sa))))
    expected.sort(key=lambda r: (-r[2], r[0], r[1]))
    assert got == expected


def test_pairwise_matrix(tmp_path):
    corpus = _build_corpus(tmp_path, {
        "a": range(1, 21),
        "b": range(1, 21),
        "c": range(100, 140),
    })
    reports = corpus.pairwise_matrix(["a", "b", "c"])
    assert reports[("a", "b")].jaccard == 1
    assert reports[("a", "c")].jaccard == 0
    assert reports[("b", "c")].jaccard == 0
    assert reports[("b", "a")].jaccard == reports[("a", "b")].jaccard
    sets = {pid: corpus.load(pid).feature_set for pid in "abc"}
    for (a, b), rep in reports.items():
        assert rep == compare(sets[a], sets[b])


def test_index_consistency(tmp_path):
    corpus = _build_corpus(tmp_path, {
        "a": range(1, 21),
        "b": range(10, 31),
    })
    index = corpus.rebuild_index()
    on_disk = json.loads((corpus.root / "index.json").read_text())
    assert on_disk == index
    for pid in corpus.ids():
        hashes = corpus.load(pid).feature_set.hashes
        assert index["programs"][pid]["hashes"] == len(hashes)
        for h in hashes:
            assert pid in index["inverted"][h]
    for h, pids in index["inverted"].items():
        for pid in pids:
            assert h in corpus.load(pid).feature_set.hashes


def test_decoded_hashes_are_stored_once(tmp_path):
    corpus = _build_corpus(tmp_path, {"a": range(1, 21)})
    fs = corpus.load("a").feature_set
    assert fs.hashes is fs.hashes
    assert fs.hashes == frozenset(fs.block_map.values())


def test_concurrent_writers_use_separate_temp_files(tmp_path, monkeypatch):
    corpus = Corpus(tmp_path / "corpus")
    first, second = (_random_feature_file(random.Random(seed)) for seed in (1, 2))
    second.feature_set.program_id = pid = first.feature_set.program_id
    real_replace = os.replace
    temps = []

    def replace(src, dst):
        temps.append(src)
        if len(temps) == 1:
            # a second writer of the same id runs start to finish while the
            # first has written its temp file but not yet moved it into place
            corpus.save(second)
            assert src.read_text() == encode_feature_file(first)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    path = corpus.save(first)
    assert len(temps) == 2 and temps[0] != temps[1]
    assert path.read_text() == encode_feature_file(first)
    assert [p.name for p in corpus.root.iterdir()] == [f"{pid}.features.json"]


def _reference_encoding(ff):
    """The canonical text as json.dumps writes it: the writer's spec."""
    fs = ff.feature_set
    doc = {
        "format_version": 1,
        "program_id": fs.program_id,
        "params": fs.params.as_dict(),
        "block_map": {str(i): h for i, h in fs.block_map.items()},
        "hashes": sorted(fs.hashes),
        "order_edges": sorted([a, b] for a, b in fs.order_edges),
        "diagnostics": fs.diagnostics,
        "term_stems": list(ff.term_stems),
        "term_counts": {str(i): list(c) for i, c in ff.term_counts.items()},
        "source_digest": ff.source_digest,
        "toolkit_version": ff.toolkit_version,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_TEXT = st.text(max_size=10)


@st.composite
def _feature_files(draw):
    block_ids = st.integers(0, 150)
    digests = st.text("0123456789abcdef", min_size=32, max_size=32)
    rows = draw(st.lists(st.tuples(*[st.integers(0, 12)] * draw(st.integers(0, 4))),
                         min_size=1, max_size=3))  # few rows, so rows repeat
    fs = ProgramFeatureSet(
        program_id=draw(_TEXT),
        params=FeatureParams(
            label_mode=draw(st.sampled_from(LabelMode)),
            policy=draw(st.sampled_from(InstructionFamilyPolicy)),
            wl=WLParams(iterations=draw(st.integers(1, 5)))),
        block_map=draw(st.dictionaries(block_ids, digests | _TEXT, max_size=30)),
        order_edges=draw(st.frozensets(st.tuples(block_ids, block_ids), max_size=12)),
        diagnostics=draw(st.dictionaries(
            _TEXT, st.integers() | _TEXT | st.booleans() | st.none(), max_size=5)),
    )
    return FeatureFile(
        feature_set=fs,
        term_counts=draw(st.dictionaries(block_ids, st.sampled_from(rows), max_size=30)),
        term_stems=tuple(draw(st.lists(_TEXT, max_size=4))),
        source_digest=draw(_TEXT),
        toolkit_version=draw(_TEXT),
    )


@settings(deadline=None)
@given(_feature_files())
def test_writer_matches_json_dumps(ff):
    assert encode_feature_file(ff) == _reference_encoding(ff)


def _writer_case(block_map=(), edges=(), term_counts=(), program_id="p",
                 diagnostics=None):
    fs = ProgramFeatureSet(program_id=program_id, params=PARAMS,
                           block_map=dict(block_map), order_edges=frozenset(edges),
                           diagnostics=diagnostics or {"blocks": len(term_counts)})
    return FeatureFile(feature_set=fs, term_counts=dict(term_counts),
                       term_stems=("mov", "other"), source_digest="sha256:00")


# each case: a file and fragments that its text holds in this order
@pytest.mark.parametrize("ff, fragments", [
    (_writer_case(), ['"block_map": {}', '"hashes": []', '"order_edges": []',
                      '"term_counts": {}']),
    (_writer_case(block_map={i: f"{i:032x}" for i in (2, 10, 100, 3)},
                  edges={(10, 2), (2, 10), (100, 3)},
                  term_counts={i: (i, 0) for i in (2, 10, 100, 3)}),
     ['"10": "', '"100": "', '"2": "', '"3": "',
      '"order_edges": [\n    [\n      2,\n      10\n    ],\n    [\n      10,'
      '\n      2\n    ],\n    [\n      100,\n      3\n    ]\n  ]',
      '"10": [\n      10,\n      0\n    ],\n    "100": [']),
    (_writer_case(term_counts={i: ((1, 0), (0, 2), ())[i % 3] for i in range(12)}),
     ['"10": [\n      0,\n      2\n    ],\n    "11": [],\n    "2": []']),
    (_writer_case(program_id='dis"asm\\ \u00fc\n\u2028',
                  diagnostics={"note": 'tab\t"q"', "blocks": 3, "\u00e9": None}),
     ['"diagnostics": {\n    "blocks": 3,\n    "note": "tab\\t\\"q\\"",\n'
      '    "\\u00e9": null\n  }',
      '"program_id": "dis\\"asm\\\\ \\u00fc\\n\\u2028"']),
], ids=["empty", "ids_as_strings", "repeated_rows", "escaping"])
def test_writer_edge_cases(ff, fragments):
    text = encode_feature_file(ff)
    assert text == _reference_encoding(ff)
    positions = [text.index(fragment) for fragment in fragments]
    assert positions == sorted(positions)
    assert decode_feature_file(text) == ff
