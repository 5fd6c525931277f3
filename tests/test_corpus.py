import gc
import json
import os
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddghash import corpus as corpus_module
from ddghash.blocks import segment
from ddghash.cli import main
from ddghash.corpus import (Corpus, FeatureFile, build_feature_file,
                            decode_feature_file, encode_feature_file)
from ddghash.ddg import InstructionFamilyPolicy, LabelMode
from ddghash.disasm import parse_listing_with_report
from ddghash.errors import (DdghashError, MalformedListing,
                            NoInstructionsFound, UnknownProgram)
from ddghash.features import (FeatureParams, ProgramFeatureSet, compare,
                              make_feature_set)
from ddghash.tfidf import load_default_dictionary, tf_vector

from fixtures import nest_hashes, replace_first_count, star_program

PARAMS = FeatureParams()
DATA = Path(__file__).parent / "data"


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
    term_counts = tuple(
        tuple(rng.randrange(5) for _ in range(32)) for _ in range(n_blocks)
    )
    fs = ProgramFeatureSet(
        program_id=f"prog{rng.randrange(10**6)}",
        params=PARAMS,
        diagnostics={"blocks": n_blocks, "empty_ddgs": n_blocks - len(block_map)},
        hashes=frozenset(block_map.values()),
    )
    return FeatureFile(
        feature_set=fs,
        block_map=block_map,
        order_edges=frozenset(edges),
        term_counts=term_counts,
        term_stems=tuple(f"s{i}" for i in range(32)),
        source_digest=f"sha256:{rng.randrange(1 << 64):064x}",
        toolkit_version=f"0.{rng.randrange(10)}.0",
    )


def _layouts(text):
    """A feature file's text as written and re-serialized with indent=2,
    the layout of format_version 1's first writer."""
    return text, json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_round_trip_random_feature_files():
    rng = random.Random(8)
    for _ in range(50):
        ff = _random_feature_file(rng)
        for text in _layouts(encode_feature_file(ff)):
            assert decode_feature_file(text) == ff


def test_format_version_checked():
    ff = _random_feature_file(random.Random(1))
    doc = json.loads(encode_feature_file(ff))
    doc["format_version"] = 99
    with pytest.raises(Exception):
        decode_feature_file(json.dumps(doc))


def _sub(pattern, replacement):
    return lambda t: re.sub(pattern, replacement, t, count=1)


@pytest.mark.parametrize("mutate", [
    _sub(r'"hashes":', '"hashez":'),
    _sub(r'(,\s*)("order_edges":)', r'\1"extra": 1,\2'),
    _sub(r'\}\s*$', ',"zzz": 1}\n'),
    _sub(r',(\s*"params":)', r'\1'),
    _sub(r'("program_id":\s*)"', r'\1 1 + "'),
    _sub(r'"digest_bits":\s*128', '"digest_bits": 64'),
    _sub(r'"wl_iterations":\s*3', '"wl_iterations": 0'),
    *(lambda t, v=v: replace_first_count(t, v)
      for v in ('"x"', "-1", "true", "1.5", "null", "[1]")),
    nest_hashes,
    # the encoder would write back what the fill builds of these
    _sub(r'("block_map":\s*\{\s*")', r'\g<1>0'),
    _sub(r'("block_map":\s*\{\s*")', r'\1-'),
    _sub(r'("block_map":\s*\{\s*"\d+":\s*)"\w+"', r'\g<1>5'),
    _sub(r'("block_map":\s*\{\s*"\d+":\s*)"\w+"', r'\1"not a digest"'),
    _sub(r'("order_edges":\s*\[\s*)\[[^]]*\]', r'\1[true, "x"]'),
    _sub(r'("order_edges":\s*\[\s*)\[[^]]*\]', r'\1[0, 99999]'),
    # params that differ compare as different settings; hashes are written
    # sorted and distinct; the other three members are strings
    _sub(r'("digest_bits":\s*128)', r'\1, "extra": 1'),
    _sub(r'("hashes":\s*\[\s*)("\w+")(\s*,\s*)("\w+")', r'\1\4\3\2'),
    _sub(r'("hashes":\s*\[\s*)("\w+")', r'\1\2, \2'),
    # a hash is 32 lowercase hex digits, and each is some block's
    _sub(r'("hashes":\s*\[\s*)"\w+"', r'\1"0"'),
    _sub(r'("hashes":\s*\[\s*)"\w+"\s*,\s*', r'\1'),
    _sub(r'("program_id":\s*)"\w+"', r'\g<1>5'),
    _sub(r'("source_digest":\s*)"[^"]+"', r'\1[1, 2]'),
    _sub(r'("source_digest":\s*)"[^"]+"', r'\1"?"'),
    _sub(r'("toolkit_version":\s*)"[^"]+"', r'\1{"x": 1}'),
], ids=["renamed", "extra_inside", "extra_last", "no_comma", "bad_value",
        "digest_bits_64", "wl_iterations_0", "count_str", "count_negative",
        "count_bool", "count_float", "count_null", "count_list", "deep_nesting",
        "block_id_padded", "block_id_negative", "block_hash_not_str",
        "block_hash_not_a_digest", "order_pair_not_ints", "order_end_not_hashed",
        "params_extra_key", "hashes_unsorted", "hashes_repeated", "hash_0",
        "hash_missing_a_block_hash", "program_id_not_str",
        "source_digest_not_str", "source_digest_not_sha256",
        "toolkit_version_not_str"])
def test_non_canonical_text_names_source(mutate):
    for text in _layouts(encode_feature_file(_random_feature_file(random.Random(3)))):
        assert mutate(text) != text
        with pytest.raises(DdghashError, match="^corp/p.features.json: member '"):
            # repr reads every member; most are decoded on first read
            repr(decode_feature_file(mutate(text), "corp/p.features.json"))


@pytest.mark.parametrize("mutate", [
    _sub(r'("block_map":\s*\{\s*"\d+":\s*)"\w+"', r'\g<1>' + "[" * 500 + "]" * 500),
    _sub(r'("order_edges":\s*\[\s*)\[[^]]*\]', r'\1' + "[" * 500 + "]" * 500),
], ids=["block_hash", "order_pair"])
def test_an_error_does_not_render_the_value_it_refuses(mutate):
    # a value nested just short of the recursion limit decodes, and
    # rendering it again for the message would raise RecursionError
    text = mutate(encode_feature_file(_random_feature_file(random.Random(3))))
    with pytest.raises(DdghashError) as info:
        repr(decode_feature_file(text, "corp/p.features.json"))
    assert "[[" not in str(info.value)


def test_ingest_dedup_counts(tmp_path):
    # 300 blocks over 234 distinct DDG classes
    class_ids = list(range(1, 235)) + list(range(1, 67))
    corpus = Corpus(tmp_path / "corpus")
    ff = corpus.ingest(star_program(class_ids), "prog", PARAMS)
    fs = ff.feature_set
    assert len(ff.block_map) == 300
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


# a listing whose every line is malformed
TRUNCATED = "0000000000001000 <f>:\n" + "\n".join(
    f"    {0x1000 + i:x}:\t90\tmov [}}x{{], eax" for i in range(20)
)


def test_ingest_failure_writes_nothing(tmp_path):
    corpus = Corpus(tmp_path / "corpus")
    with pytest.raises(NoInstructionsFound):
        corpus.ingest("this is not a listing\n", "bad", PARAMS)
    with pytest.raises(MalformedListing):
        corpus.ingest(TRUNCATED, "trunc", PARAMS)
    assert not (tmp_path / "corpus" / "bad.features.json").exists()
    assert not (tmp_path / "corpus" / "trunc.features.json").exists()


@pytest.fixture
def collector():
    """Restores the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_build_leaves_the_collector_as_it_found_it(collector, monkeypatch, enabled):
    (gc.enable if enabled else gc.disable)()
    during = []

    def spy(*args):
        during.append(gc.isenabled())
        return make_feature_set(*args)

    monkeypatch.setattr(corpus_module, "make_feature_set", spy)
    build_feature_file(star_program(range(1, 20)), "p", PARAMS)
    assert during == [False]
    assert gc.isenabled() is enabled
    with pytest.raises(NoInstructionsFound):
        build_feature_file("this is not a listing\n", "bad", PARAMS)
    assert gc.isenabled() is enabled
    with pytest.raises(MalformedListing):
        build_feature_file(TRUNCATED, "trunc", PARAMS)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("listing", ["true_att", "true_intel", "false_intel"])
@pytest.mark.parametrize("params", [
    PARAMS,
    FeatureParams(label_mode=LabelMode.LITERAL,
                  policy=InstructionFamilyPolicy.ALL_DATA_OPERANDS),
], ids=["default", "literal"])
def test_build_makes_no_cyclic_garbage(params, listing):
    # what makes pausing the collector leak-free: reference counting alone
    # frees everything a build drops, and what it returns
    text = (DATA / f"{listing}.objdump").read_text()
    gc.collect()
    ff = build_feature_file(text, listing, params)
    assert gc.collect() == 0
    del ff
    assert gc.collect() == 0


def test_build_shares_one_tuple_per_distinct_count_row():
    ff = build_feature_file((DATA / "true_att.objdump").read_text(), "true_att",
                            PARAMS)
    rows = ff.term_counts
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)


@pytest.mark.parametrize("listing", ["true_att", "false_intel"])
def test_term_counts_are_one_tuple_in_block_order(listing):
    text = (DATA / f"{listing}.objdump").read_text()
    built = build_feature_file(text, listing, PARAMS)
    decoded = decode_feature_file(encode_feature_file(built))
    dictionary = load_default_dictionary()
    blocks = []
    for fn in parse_listing_with_report(text)[0]:
        blocks.extend(segment(fn, first_id=len(blocks)))
    assert [b.id for b in blocks] == list(range(len(blocks)))
    for ff in (built, decoded):
        assert type(ff.term_counts) is tuple
        assert len(ff.term_counts) == ff.feature_set.diagnostics["blocks"] == len(blocks)
        assert ff.term_counts == tuple(tf_vector(b, dictionary) for b in blocks)


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
    assert [rep.b_id for rep in ranked] == ["sub", "half", "other"]
    assert {rep.a_id for rep in ranked} == {"query"}

    tie = _build_corpus(tmp_path / "tie", {
        "query": range(1, 41),
        "inner": range(1, 21),      # J = 20/40 = 1/2, containment 1
        "straddle": range(21, 61),  # J = 20/60 = 1/3
        "even": range(1, 41),       # J = 1
    })
    ranked = tie.nearest("query", k=2)
    assert [rep.b_id for rep in ranked] == ["even", "inner"]
    assert ranked[0].jaccard == 1


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
    # one report per unordered pair, keyed in the order of ids
    assert list(reports) == [("a", "b"), ("a", "c"), ("b", "c")]
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


def test_index_lists_an_ingest_saved_while_it_was_rebuilt(tmp_path):
    # two writers on one directory: B saves a program and rebuilds the
    # index while A's rebuild is loading the files it listed before
    a = _build_corpus(tmp_path, {"a": range(1, 21)})
    b = Corpus(a.root)
    load = a.load

    def load_while_b_ingests(pid):
        if "b" not in b.ids():
            b.ingest(star_program(range(10, 31)), "b", PARAMS)
            b.rebuild_index()
        return load(pid)

    a.load = load_while_b_ingests
    index = a.rebuild_index()
    written = (a.root / "index.json").read_bytes()
    assert list(index["programs"]) == ["a", "b"]
    assert json.loads(written) == index
    assert Corpus(a.root).rebuild_index() == index
    assert (a.root / "index.json").read_bytes() == written


def test_decoded_hashes_are_stored_once(tmp_path):
    corpus = _build_corpus(tmp_path, {"a": range(1, 21)})
    ff = corpus.load("a")
    fs = ff.feature_set
    assert fs.hashes is fs.hashes
    assert fs.hashes == frozenset(ff.block_map.values())


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


def test_failed_replace_removes_its_temp_file(tmp_path, capsys):
    corpus = Corpus(tmp_path / "corpus")
    target = corpus._path("p")
    target.mkdir(parents=True)  # os.replace cannot put a file over a directory
    with pytest.raises(IsADirectoryError):
        corpus.ingest(star_program([1, 2]), "p", PARAMS)
    assert list(corpus.root.iterdir()) == [target]
    listing = tmp_path / "p.objdump"
    listing.write_text(star_program([1, 2]))
    assert main(["-C", str(corpus.root), "ingest", str(listing)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{listing}: [Errno 21] Is a directory: ")
    assert "Traceback" not in err
    assert list(corpus.root.iterdir()) == [target]


def _reference_encoding(ff):
    """The canonical text as json.dumps writes it from the document with
    string keys: the writer's spec."""
    fs = ff.feature_set
    doc = {
        "format_version": 1,
        "program_id": fs.program_id,
        "params": fs.params.as_dict(),
        "block_map": {str(i): h for i, h in ff.block_map.items()},
        "hashes": sorted(fs.hashes),
        "order_edges": sorted([a, b] for a, b in ff.order_edges),
        "diagnostics": fs.diagnostics,
        "term_stems": list(ff.term_stems),
        "term_counts": {str(i): list(c) for i, c in enumerate(ff.term_counts)},
        "source_digest": ff.source_digest,
        "toolkit_version": ff.toolkit_version,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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
            wl_iterations=draw(st.integers(1, 5))),
        diagnostics=draw(st.dictionaries(
            _TEXT, st.integers() | _TEXT | st.booleans() | st.none(), max_size=5)),
        hashes=draw(st.frozensets(digests | _TEXT, max_size=30)),
    )
    return FeatureFile(
        feature_set=fs,
        block_map=draw(st.dictionaries(block_ids, digests | _TEXT, max_size=30)),
        order_edges=draw(st.frozensets(st.tuples(block_ids, block_ids), max_size=12)),
        term_counts=tuple(draw(st.lists(st.sampled_from(rows), max_size=30))),
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
                           diagnostics=diagnostics or {"blocks": len(term_counts)},
                           hashes=frozenset(dict(block_map).values()))
    return FeatureFile(feature_set=fs, block_map=dict(block_map),
                       order_edges=frozenset(edges), term_counts=tuple(term_counts),
                       term_stems=("mov", "other"), source_digest="sha256:" + "0" * 64)


# each case: a file and fragments that its text holds in this order
@pytest.mark.parametrize("ff, fragments", [
    (_writer_case(), ['"block_map":{}', '"hashes":[]', '"order_edges":[]',
                      '"term_counts":{}']),
    (_writer_case(block_map={i: f"{i:032x}" for i in (2, 10, 100, 3)},
                  edges={(10, 2), (2, 10), (100, 3)},
                  term_counts=[(i, 0) for i in range(101)]),
     ['"10":"', '"100":"', '"2":"', '"3":"',
      '"order_edges":[[2,10],[10,2],[100,3]]', '"10":[10,0],"100":[']),
    (_writer_case(term_counts=[((1, 0), (0, 2), (0, 0))[i % 3] for i in range(12)]),
     ['"10":[0,2],"11":[0,0],"2":[0,0]']),
    (_writer_case(program_id='dis"asm\\ \u00fc\n\u2028',
                  term_counts=[(0, 1)] * 3,
                  diagnostics={"note": 'tab\t"q"', "blocks": 3, "\u00e9": None}),
     ['"diagnostics":{"blocks":3,"note":"tab\\t\\"q\\"","\\u00e9":null}',
      '"program_id":"dis\\"asm\\\\ \\u00fc\\n\\u2028"']),
], ids=["empty", "ids_as_strings", "repeated_rows", "escaping"])
def test_writer_edge_cases(ff, fragments):
    text = encode_feature_file(ff)
    assert text == _reference_encoding(ff)
    positions = [text.index(fragment) for fragment in fragments]
    assert positions == sorted(positions)
    for layout in _layouts(text):
        assert decode_feature_file(layout) == ff
