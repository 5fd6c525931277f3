import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ddghash.cli import main, threshold

from fixtures import (BASE64, CMOV_BLOCK_INTEL, make_listing, member_span,
                      nest_hashes, objdump_listings, replace_first_count,
                      star_program)

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    capsys.readouterr()  # drain output from corpus-seeding commands
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error, reported by argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _seed_corpus(tmp_path, programs):
    corpus = str(tmp_path / "corpus")
    for pid, class_ids in programs.items():
        src = tmp_path / f"{pid}.objdump"
        src.write_text(star_program(class_ids))
        assert main(["-C", corpus, "ingest", str(src), "--id", pid]) == 0
    return corpus


def test_usage_error_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for name in ("a", "b", "bad name", "d/a"):
        (tmp_path / f"{name}.objdump").write_text(star_program([1]))
    for argv in ([], ["ingest"],
                 ["ingest", "x.objdump", "--iters", "0"],
                 ["ingest", "-"],
                 ["ingest", "a.objdump", "--id", "../escaped"],
                 ["ingest", "a.objdump", "bad name.objdump"],
                 ["ingest", "a.objdump", "d/a.objdump"],  # both have the id a
                 ["contain", "--threshold", "nan"],
                 ["contain", "--threshold", "inf"],
                 ["contain", "--threshold", "0"],
                 ["contain", "--threshold", "1.5"],
                 ["nearest", "x", "-k", "0"],
                 ["nearest", "x", "-k", "-1"],
                 ["matrix", "a", "b", "a"],
                 ["matrix", "--all", "a", "b"],
                 ["matrix", "a", "b", "--pairs-out", "pairs.csv"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: ddghash"), argv
        if argv[:1] in (["ingest"], ["matrix"]) and len(argv) > 1:
            assert f"ddghash {argv[0]}: error: " in err, argv
        if "threshold" in argv:
            assert "--threshold must be in (0, 1]" in err
        if argv in (["ingest", "a.objdump", "d/a.objdump"], ["matrix", "a", "b", "a"]):
            assert "an id may appear only once" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.objdump", "b.objdump", "bad name.objdump", "d"]  # nothing written
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["a.objdump"]


def test_ingest_id_with_multiple_paths_is_usage_error(tmp_path, capsys):
    a = tmp_path / "a.objdump"
    a.write_text(star_program([1]))
    b = tmp_path / "b.objdump"
    b.write_text(star_program([2]))
    with pytest.raises(SystemExit) as exc:
        main(["-C", str(tmp_path / "c"), "ingest", str(a), str(b), "--id", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ddghash")
    assert "ddghash ingest: error: " in err
    assert not (tmp_path / "c").exists()


def test_ingest_from_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(star_program([1, 2, 3])))
    corpus = str(tmp_path / "corpus")
    code, out, _ = run(capsys, "-C", corpus, "ingest", "-", "--id", "piped")
    assert code == 0
    assert (tmp_path / "corpus" / "piped.features.json").is_file()


def test_corpus_dir_from_environment(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p.objdump"
    src.write_text(star_program([1, 2]))
    monkeypatch.setenv("DDGHASH_CORPUS", str(tmp_path / "envcorpus"))
    code, _, _ = run(capsys, "ingest", str(src), "--id", "p")
    assert code == 0
    assert (tmp_path / "envcorpus" / "p.features.json").is_file()


NOT_UTF8 = b"\xff" + star_program([1, 2, 3]).encode()


@pytest.mark.parametrize("content", [None, NOT_UTF8],
                         ids=["missing_file", "non_utf8_file"])
def test_unreadable_path_exit_1(tmp_path, capsys, content):
    path = tmp_path / "listing.objdump"
    if content is not None:
        path.write_bytes(content)
    code, _, err = run(capsys, "-C", str(tmp_path / "corpus"), "ingest", str(path))
    assert code == 1
    assert str(path) in err
    assert "Traceback" not in err
    assert not (tmp_path / "corpus").exists()


def _stdin_bytes(monkeypatch, data):
    # how stdin decodes under the POSIX locale: non-UTF-8 bytes would
    # become surrogates, and newlines stay untranslated
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n"))


@pytest.mark.parametrize("data, message", [(NOT_UTF8, "not UTF-8 text"),
                                           (None, "stdin is closed")],
                         ids=["non_utf8", "closed"])
def test_unreadable_stdin_exit_1(tmp_path, capsys, monkeypatch, data, message):
    if data is None:
        monkeypatch.setattr("sys.stdin", None)
    else:
        _stdin_bytes(monkeypatch, data)
    code, _, err = run(capsys, "-C", str(tmp_path / "corpus"), "--format", "json",
                       "ingest", "-", "--id", "piped")
    assert code == 1
    assert err.startswith(f"-: {message}")
    assert not (tmp_path / "corpus").exists()


def test_stdin_and_file_ingest_alike(tmp_path, capsys, monkeypatch):
    data = star_program([1, 2, 3]).replace("\n", "\r\n").encode()
    src = tmp_path / "p.objdump"
    src.write_bytes(data)
    assert main(["-C", str(tmp_path / "from_file"), "ingest", str(src)]) == 0
    _stdin_bytes(monkeypatch, data)
    assert main(["-C", str(tmp_path / "from_stdin"), "ingest", "-", "--id", "p"]) == 0
    for name in ("p.features.json", "index.json"):
        assert ((tmp_path / "from_file" / name).read_bytes()
                == (tmp_path / "from_stdin" / name).read_bytes())


@pytest.mark.parametrize("name", ["p.features.json", "index.json"])
def test_ingest_replaces_a_file_that_is_not_utf8(tmp_path, capsys, name):
    src = tmp_path / "p.objdump"
    src.write_text(star_program([1, 2, 3]))
    clean = tmp_path / "clean"
    assert main(["-C", str(clean), "ingest", str(src)]) == 0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / name).write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "-C", str(corpus), "ingest", str(src))
    assert (code, err) == (0, "")
    for kept in ("p.features.json", "index.json"):
        assert (corpus / kept).read_bytes() == (clean / kept).read_bytes()


def test_keep_going_continues(tmp_path, capsys):
    good = tmp_path / "ok.objdump"
    good.write_text(star_program([1, 2, 3]))
    code, out, err = run(capsys, "-C", str(tmp_path / "c"), "ingest",
                         "--keep-going", "/no/such/file", str(good))
    assert code == 1
    assert "ok:" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ingest_stops_at_a_failure_but_reports_and_indexes_what_it_saved(
        tmp_path, capsys, fmt):
    corpus = tmp_path / "c"
    code, out, err = run(capsys, "-C", str(corpus), "--format", fmt, "ingest",
                         str(DATA / "true_att.objdump"), "/no/such.objdump",
                         str(DATA / "true_intel.objdump"))
    assert code == 1
    assert err == ("/no/such.objdump: [Errno 2] No such file or directory: "
                   "'/no/such.objdump'\n")
    saved = corpus / "true_att.features.json"
    if fmt == "json":
        result, = json.loads(out)["results"]
        assert (result["program_id"], result["file"]) == ("true_att", str(saved))
        assert (result["instructions"], result["distinct_hashes"]) == (2534, 97)
    else:
        assert out == (f"true_att: 40 functions, 2534 instructions, 778 blocks, "
                       f"369 hashed (409 empty DDGs), 97 distinct hashes -> "
                       f"{saved} [97 lines skipped, 1 malformed]\n")
    index = json.loads((corpus / "index.json").read_text())
    assert list(index["programs"]) == ["true_att"]
    # no listing after the failing one is read
    assert sorted(p.name for p in corpus.iterdir()) == ["index.json", saved.name]


INGEST_FIELDS = ["program_id", "file", "functions", "instructions", "skipped_lines",
                 "malformed_lines", "blocks", "empty_ddgs", "hashed_blocks",
                 "distinct_hashes", "duplicate_hashes", "distinct_asm_texts",
                 "distinct_graphs"]


@pytest.mark.parametrize("names, saved", [
    (["true_att", "true_intel"], ["true_att", "true_intel"]),
    (["true_att", "missing"], ["true_att"]),
    (["missing", "true_att"], []),
], ids=["both_saved", "second_fails", "first_fails"])
def test_ingest_reports_each_listing_saved_in_every_format(tmp_path, capsys,
                                                           names, saved):
    corpus = tmp_path / "corpus"
    argv = ["-C", str(corpus), "ingest", *(str(DATA / f"{n}.objdump") for n in names)]
    out = {}
    for fmt in ("text", "json", "csv"):
        code, out[fmt], _ = run(capsys, "--format", fmt, *argv)
        assert code == (0 if saved == names else 1)
    results = json.loads(out["json"])["results"]
    assert [r["program_id"] for r in results] == saved
    assert all(list(r) == INGEST_FIELDS for r in results)
    # csv: the json report's fields as the header, then one row per listing
    rows = list(csv.reader(io.StringIO(out["csv"])))
    assert rows == [INGEST_FIELDS] + [[str(v) for v in r.values()] for r in results]
    assert [line.split(":")[0] for line in out["text"].splitlines()] == saved


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_damaged_file_elsewhere_fails_the_index_not_the_ingest(tmp_path, capsys, fmt):
    corpus = tmp_path / "corpus"
    assert main(["-C", str(corpus), "ingest", str(DATA / "true_att.objdump")]) == 0
    junk = corpus / "junk.features.json"
    junk.write_text('{"x": 1}')
    code, out, err = run(capsys, "-C", str(corpus), "--format", fmt, "ingest",
                         str(DATA / "true_intel.objdump"))
    assert code == 1
    assert err == f"error: {junk}: member 'block_map': missing or out of order\n"
    saved = corpus / "true_intel.features.json"
    assert saved.is_file()
    if fmt == "json":
        result, = json.loads(out)["results"]
        assert (result["program_id"], result["file"]) == ("true_intel", str(saved))
    else:
        assert out.startswith("true_intel: 40 functions, 2534 instructions")
        assert f" -> {saved} " in out and out.count("\n") == 1
    # the index was not rewritten, so it still lists only the first program
    index = json.loads((corpus / "index.json").read_text())
    assert list(index["programs"]) == ["true_att"]


def test_ingest_refreshes_index(tmp_path, capsys):
    _seed_corpus(tmp_path, {"a": range(1, 5)})
    # no id names these files, an editor's lock file among them, so they
    # are not programs: not indexed, not read
    for stray in (".#a.features.json", "a b.features.json"):
        (tmp_path / "corpus" / stray).write_text("{")
    corpus = _seed_corpus(tmp_path, {"b": range(3, 8)})
    index = json.loads((tmp_path / "corpus" / "index.json").read_text())
    assert set(index["programs"]) == {"a", "b"}
    assert all(len(pids) >= 1 for pids in index["inverted"].values())
    for argv in (["nearest", "a"], ["matrix", "--all"], ["contain"]):
        code, _, err = run(capsys, "-C", corpus, *argv)
        assert (code, err) == (0, ""), argv


def test_ingest_reports_counts(tmp_path, capsys):
    src = tmp_path / "prog.objdump"
    src.write_text(star_program([1, 1, 2]))
    corpus = str(tmp_path / "corpus")
    code, out, _ = run(capsys, "-C", corpus, "ingest", str(src), "--id", "prog")
    assert code == 0
    assert "3 blocks" in out
    assert "2 distinct hashes" in out
    assert (tmp_path / "corpus" / "prog.features.json").is_file()


def test_ingest_json_reports_work_done_outside_the_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out, _ = run(capsys, "-C", str(corpus), "--format", "json", "ingest",
                       str(DATA / "true_att.objdump"))
    assert code == 0
    result, = json.loads(out)["results"]
    assert result["distinct_asm_texts"] == 1181  # of 2534 instructions
    assert result["distinct_graphs"] == 107  # for 369 hashed blocks, 97 hashes
    assert "distinct_" not in (corpus / "true_att.features.json").read_text()


# sha256 of the document of <id>.features.json for each tests/data listing
# under each setting: json.dumps(sort_keys=True, indent=2) of the file's
# json.loads, plus a newline
PINNED_DOCUMENTS = {
    (): {
        "true_att": "67f5127254e96e5606bbcc5ea4d32077320dd82944e136c8c5b15544b43958ed",
        "true_intel": "24e445c008084801d317d0c654be894d35b77200d8751b30b805a1e8b6b62858",
        "false_intel": "44d00b6b9d92e2e0e96a97991bd8269913de835efbc9de6dd16c4e92212975d3",
    },
    ("--mode", "literal", "--policy", "all_data_operands"): {
        "true_att": "f4b1f4a5a08371bb6541d0c11ea607c8ad5fdf596f11308b62f00e929c3a0359",
        "true_intel": "18cc5666e010077dfad6c032843b00b4c37d4d0ed161c4d7efdfb568d8a381ff",
        "false_intel": "c786ec636817a309a22ebc8fbf892ddb8d9e91a490dd7cd8445fe9e00ded3c66",
    },
    ("--mode", "unlabeled", "--iters", "2"): {
        "true_att": "1ef1b81917e84e9565d0de5e36f21e23b5580670cbefb9ea3399f77d638747bf",
        "true_intel": "0d965e3554f0d6aaaa411aebb9c72a6c001a89a46a0141bc087387a7d2eaabfb",
        "false_intel": "2e138ed32e2446e6809389e5f9cbdfafbf211bd8e62057ce4a95529d60f5a7b1",
    },
}

# sha256 of the same files' bytes
PINNED_FILES = {
    (): {
        "true_att": "7ba4d32c565b0dea1a0409df2c0fb41390aeeaf7a39b8680f45cfe8375e8a577",
        "true_intel": "3c9435f33df1e8b897066b8fedd6b455ceb39e8a603c66635878b1e48f9c29aa",
        "false_intel": "aa6966ee00e4b1ac3f28e1d7b88a3e6090879c332d3f1a91f4aa8264bc9a7c62",
    },
    ("--mode", "literal", "--policy", "all_data_operands"): {
        "true_att": "01cc5483a9dadc91935c8e18466fd9939a1f50483685da6ccca405e4fc6045cf",
        "true_intel": "d24a27f7b5ce39558f63ad0c5f37ab2d202818b0ea53ab3ecc7f582cd463d33b",
        "false_intel": "0ee340abf7b85869cd1b79c43da7c9164bd267911426a3f8a5c86baefcbb01e5",
    },
    ("--mode", "unlabeled", "--iters", "2"): {
        "true_att": "ea9a1e806e09cdc66daecf823ea571975528c6109a5fb670d7b550244abe2c38",
        "true_intel": "fdb2324ea2ac32b1058095acac4303459edef8606f7c091d32b6f4713f608ba2",
        "false_intel": "d72b991dc80897d3fcd33bafbf7cc8b56a01128fca2a716bb250f034aa16eacc",
    },
}


@pytest.mark.parametrize("listing", ["true_att", "true_intel", "false_intel"])
@pytest.mark.parametrize("setting", list(PINNED_DOCUMENTS),
                         ids=["default", "literal", "unlabeled"])
def test_feature_file_bytes_are_pinned(tmp_path, capsys, setting, listing):
    """The files' exact bytes and their documents: how the pipeline saves
    work must not move them."""
    corpus = tmp_path / "corpus"
    code, _, err = run(capsys, "-C", str(corpus), "ingest",
                       str(DATA / f"{listing}.objdump"), *setting)
    assert code == 0, err
    data = (corpus / f"{listing}.features.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_FILES[setting][listing]
    document = json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n"
    assert (hashlib.sha256(document.encode()).hexdigest()
            == PINNED_DOCUMENTS[setting][listing])


# hashed_blocks and distinct_graphs of ingest --format json for each
# tests/data listing under each setting
PINNED_GRAPH_COUNTS = {
    (): {"true_att": (369, 107), "true_intel": (369, 107), "false_intel": (371, 107)},
    ("--mode", "literal", "--policy", "all_data_operands"): {
        "true_att": (772, 649), "true_intel": (772, 649), "false_intel": (772, 649)},
    ("--mode", "unlabeled", "--iters", "2"): {
        "true_att": (369, 57), "true_intel": (369, 57), "false_intel": (371, 57)},
}


@pytest.mark.parametrize("setting", list(PINNED_GRAPH_COUNTS),
                         ids=["default", "literal", "unlabeled"])
def test_ingest_report_graph_counts_are_pinned(tmp_path, capsys, setting):
    """hashed_blocks is read off the diagnostics and distinct_graphs counts
    the digest memo's keys: neither may move with what a DDG holds."""
    code, out, err = run(capsys, "-C", str(tmp_path / "corpus"), "--format", "json",
                         "ingest", *setting, *(str(DATA / f"{pid}.objdump")
                                               for pid in PINNED_GRAPH_COUNTS[()]))
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert {r["program_id"]: (r["hashed_blocks"], r["distinct_graphs"])
            for r in results} == PINNED_GRAPH_COUNTS[setting]


def _ingest_in_a_new_process(corpus, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "ddghash", "-C", str(corpus), "ingest",
         *map(str, args)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("setting", list(PINNED_DOCUMENTS)[:2], ids=["default", "literal"])
def test_one_ingest_process_writes_what_separate_ones_write(tmp_path, setting):
    """State an ingest keeps in memory for the next listing (parsed
    operands, refined WL labels) never reaches a file: ingesting B after A
    in one process writes what ingesting B alone does."""
    listings = [DATA / f"{pid}.objdump" for pid in ("true_att", "true_intel", "false_intel")]
    if objdump_listings(BASE64) is not None:
        for syntax, text in zip(("att", "intel"), objdump_listings(BASE64)):
            path = tmp_path / f"base64_{syntax}.objdump"
            path.write_text(text)
            listings.append(path)
    _ingest_in_a_new_process(tmp_path / "forward", *listings, *setting)
    _ingest_in_a_new_process(tmp_path / "backward", *reversed(listings), *setting)
    for path in listings:
        _ingest_in_a_new_process(tmp_path / "apart", path, *setting)
    trees = [{p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
             for name in ("forward", "backward", "apart")]
    assert len(trees[0]) == len(listings) + 1  # and index.json
    assert trees[0] == trees[1] == trees[2]


def test_compare_reference_cardinalities(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {
        "ls": range(1, 235),
        "zeus": range(122, 744),
    })
    code, out, _ = run(capsys, "-C", corpus, "compare", "ls", "zeus")
    assert code == 0
    assert "intersection:        113" in out
    assert "union:               743" in out
    assert "121" in out and "509" in out
    assert "113/743 = 0.152" in out


def test_compare_self_jaccard_one(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"x": range(1, 30)})
    code, out, _ = run(capsys, "-C", corpus, "compare", "x", "x")
    assert code == 0
    assert "1/1 = 1.000" in out


def test_compare_unknown_program_exit_1(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"x": range(1, 5)})
    code, _, err = run(capsys, "-C", corpus, "compare", "x", "ghost")
    assert code == 1
    assert "ghost" in err


def test_compare_incompatible_metadata_exit_1(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    a = tmp_path / "a.objdump"
    a.write_text(star_program([1, 2]))
    b = tmp_path / "b.objdump"
    b.write_text(star_program([1, 2]))
    assert main(["-C", corpus, "ingest", str(a), "--id", "a"]) == 0
    assert main(["-C", corpus, "ingest", str(b), "--id", "b",
                 "--mode", "literal"]) == 0
    code, _, err = run(capsys, "-C", corpus, "compare", "a", "b")
    assert code == 1
    assert "label_mode" in err


def test_compare_json_round_trips(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 30), "b": range(10, 40)})
    code, out, _ = run(capsys, "-C", corpus, "--format", "json",
                       "compare", "a", "b")
    assert code == 0
    doc = json.loads(out)
    for key in ("schema_version", "a_id", "b_id", "size_a", "size_b",
                "intersection", "union", "diff_a_minus_b", "diff_b_minus_a",
                "jaccard", "jaccard_exact", "containment_a_in_b",
                "containment_b_in_a"):
        assert key in doc
    assert doc["intersection"] == 20


def test_compare_csv_single_row(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 10), "b": range(5, 14)})
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv",
                       "compare", "a", "b")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert "intersection" in rows[0]
    assert rows[1][rows[0].index("intersection")] == "5"


def test_matrix_unknown_id_exit_1(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5), "b": range(1, 5)})
    code, _, err = run(capsys, "-C", corpus, "matrix", "a", "ghost")
    assert code == 1
    assert "ghost" in err


def test_nearest_unknown_query_exit_1(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5)})
    code, _, err = run(capsys, "-C", corpus, "nearest", "ghost")
    assert code == 1
    assert "ghost" in err


def test_matrix_json_contains_full_reports(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 10), "b": range(5, 14)})
    code, out, _ = run(capsys, "-C", corpus, "--format", "json",
                       "matrix", "--all")
    assert code == 0
    doc = json.loads(out)
    assert doc["ids"] == ["a", "b"]
    assert doc["jaccard_matrix"][0][0] == "1.000"
    (report,) = doc["reports"]
    for key in ("size_a", "size_b", "intersection", "union", "jaccard",
                "containment_a_in_b", "containment_b_in_a"):
        assert key in report


def test_matrix_csv_diagonal(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {
        "a": range(1, 20), "b": range(5, 25), "c": range(100, 120),
    })
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv",
                       "matrix", "--all")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "a", "b", "c"]
    assert len(rows) == 4
    for i in range(3):
        assert rows[i + 1][i + 1] == "1.000"
    # each pair's one report fills both of its cells
    assert [row[1:] for row in rows[1:]] == [list(col) for col in zip(*rows[1:])][1:]


def test_matrix_stats_summary(tmp_path, capsys):
    # pairwise jaccards engineered to 8/125, 51/250, 27/100
    a_only = range(1000, 1306)  # 306 (class ids here only need distinctness)
    b_only = range(2000, 2006)  # 6
    c_only = range(3000, 3006)  # 6
    ab = range(4000, 4032)      # 32
    ac = range(5000, 5102)      # 102
    bc = range(6000, 6054)      # 54
    corpus = _seed_corpus(tmp_path, {
        "a": list(a_only) + list(ab) + list(ac),
        "b": list(b_only) + list(ab) + list(bc),
        "c": list(c_only) + list(ac) + list(bc),
    })
    code, out, _ = run(capsys, "-C", corpus, "matrix", "--all", "--stats")
    assert code == 0
    assert "min:    0.064" in out
    assert "median: 0.204" in out
    assert "max:    0.270" in out


def test_matrix_stats_pairs_out(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 20), "b": range(5, 25)})
    pairs = tmp_path / "pairs.csv"
    code, out, _ = run(capsys, "-C", corpus, "matrix", "--all", "--stats",
                       "--pairs-out", str(pairs))
    assert code == 0
    rows = list(csv.reader(pairs.open()))
    assert rows[0] == ["id_a", "id_b", "jaccard"]
    assert len(rows) == 2


# the pairs of the tests/data corpus, in the order --stats lists them
_DATA_PAIRS = [("false_intel", "true_att"), ("false_intel", "true_intel"),
               ("true_att", "true_intel")]


@pytest.mark.parametrize("setting, jaccards, quartiles", [
    ((), ["1.000"] * 3, ["1.000"] * 5),
    (("--mode", "literal", "--policy", "all_data_operands"),
     ["0.838", "0.838", "1.000"], ["0.838", "0.838", "0.838", "0.919", "1.000"]),
], ids=["default", "literal"])
def test_matrix_stats_json_and_csv(tmp_path, capsys, setting, jaccards, quartiles):
    corpus = str(tmp_path / "corpus")
    assert main(["-C", corpus, "ingest", *setting, *(
        str(DATA / f"{pid}.objdump") for pid in ("true_att", "true_intel", "false_intel"))]) == 0
    code, out, _ = run(capsys, "-C", corpus, "--format", "json", "matrix", "--all", "--stats")
    assert code == 0
    assert json.loads(out)["pairs"] == [{"id_a": a, "id_b": b, "jaccard": j}
                                        for (a, b), j in zip(_DATA_PAIRS, jaccards)]
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv", "matrix", "--all", "--stats")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["statistic", "value"], ["count", "3"],
        *map(list, zip(["min", "q1", "median", "q3", "max"], quartiles))]


@pytest.mark.parametrize("argv", [["matrix", "a"], ["matrix", "--all"]])
def test_matrix_needs_two_programs(tmp_path, capsys, argv):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5)})
    code, out, err = run(capsys, "-C", corpus, *argv)
    assert (code, out, err) == (1, "", "matrix needs at least two programs\n")


def test_nearest_ranking(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {
        "query": range(1, 41),
        "same": range(1, 41),
        "close": range(1, 21),
    })
    code, out, _ = run(capsys, "-C", corpus, "nearest", "query", "-k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1. same")
    assert "jaccard=1.000" in lines[0]
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv",
                       "nearest", "query", "-k", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[:2] == [["program_id", "jaccard", "containment_in_query"],
                        ["same", "1.000", "1.000"]]


def test_contain_threshold(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {
        "inner": range(1, 31),
        "outer": range(1, 61),
    })
    code, out, _ = run(capsys, "-C", corpus, "contain", "--threshold", "1.0")
    assert code == 0
    assert out.strip() == "inner contained in outer: 1.000"
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv",
                       "contain", "--threshold", "1.0")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["inner", "outer", "containment"], ["inner", "outer", "1.000"]]


def test_threshold_is_read_exactly(capsys):
    assert threshold("0.1") == Fraction(1, 10)
    assert threshold("1e-10") == Fraction(1, 10**10)
    assert threshold("1") == threshold("1.0") == 1
    with pytest.raises(SystemExit) as exc:
        main(["contain", "--threshold", "abc"])
    assert exc.value.code == 2
    assert "argument --threshold: invalid threshold value: 'abc'" in capsys.readouterr().err


def test_contain_at_a_tiny_threshold_lists_every_pair_that_shares_a_hash(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5), "b": range(3, 9),
                                     "c": range(4, 6), "d": range(20, 24)})
    hashes = {p.name.split(".")[0]: set(json.loads(p.read_text())["hashes"])
              for p in Path(corpus).glob("*.features.json")}
    expected = sorted(
        ((i, o, Fraction(len(hashes[i] & hashes[o]), len(hashes[i])))
         for i in hashes for o in hashes if i != o and hashes[i] & hashes[o]),
        key=lambda r: (-r[2], r[0], r[1]))
    assert {i for i, _, _ in expected} == {"a", "b", "c"}  # d shares nothing
    code, out, err = run(capsys, "-C", corpus, "--format", "csv",
                         "contain", "--threshold", "1e-10")
    assert (code, err) == (0, "")
    assert list(csv.reader(io.StringIO(out)))[1:] == [
        [i, o, f"{float(c):.3f}"] for i, o, c in expected]


def test_threshold_reads_an_exponent_of_any_size_at_once(tmp_path):
    # a float of 1e-100000000 underflows to 0.0 but is finite; an exact
    # fraction of it would be built from 10**100000000
    corpus = tmp_path / "corpus"
    for pid in ("true_att", "false_intel"):
        assert main(["-C", str(corpus), "ingest", str(DATA / f"{pid}.objdump")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    outputs = [subprocess.run(
        [sys.executable, "-m", "ddghash", "-C", str(corpus), "--format", "csv",
         "contain", "--threshold", value],
        capture_output=True, text=True, env=env, timeout=60)
        for value in ("1e-10", "1e-100000000", "1e-999999999999999999")]
    assert outputs[0].returncode == 0 and outputs[0].stdout.count("\n") > 1
    assert [(p.returncode, p.stdout, p.stderr) for p in outputs[1:]] == [
        (0, outputs[0].stdout, "")] * 2
    # beyond a Decimal's exponents the value reads as NaN, which is out
    beyond = subprocess.run(
        [sys.executable, "-m", "ddghash", "-C", str(corpus), "contain",
         "--threshold", "1e-9999999999999999999999999"],
        capture_output=True, text=True, env=env, timeout=60)
    assert beyond.returncode == 2
    assert "--threshold must be in (0, 1]" in beyond.stderr


def test_a_directory_named_like_a_feature_file_is_no_program(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5), "b": range(3, 9)})
    queries = (["matrix", "--all"], ["nearest", "a"], ["contain"])
    before = [run(capsys, "-C", corpus, *argv) for argv in queries]
    index = (Path(corpus) / "index.json").read_bytes()
    (Path(corpus) / "zz.features.json").mkdir()
    # a re-ingest rebuilds the index over the corpus's programs
    (tmp_path / "b.objdump").write_text(star_program(range(3, 9)))
    assert run(capsys, "-C", corpus, "ingest", str(tmp_path / "b.objdump"))[0] == 0
    assert (Path(corpus) / "index.json").read_bytes() == index
    assert [run(capsys, "-C", corpus, *argv) for argv in queries] == before
    assert all(code == 0 for code, _, _ in before)


def test_queries_refuse_mixed_settings(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5)})
    src = tmp_path / "b.objdump"
    src.write_text(star_program(range(1, 9)))
    assert main(["-C", corpus, "ingest", str(src), "--mode", "literal"]) == 0
    for query in (["contain"], ["matrix", "--all"], ["nearest", "a"]):
        code, out, err = run(capsys, "-C", corpus, *query)
        assert code == 1, query
        assert out == ""
        assert err.startswith("error: ") and "literal" in err


def test_tfstats_modal_stem(tmp_path, capsys):
    src = tmp_path / "sample.objdump"
    src.write_text(CMOV_BLOCK_INTEL)
    corpus = str(tmp_path / "corpus")
    assert main(["-C", corpus, "ingest", str(src), "--id", "sample"]) == 0
    code, out, _ = run(capsys, "-C", corpus, "tfstats", "sample")
    assert code == 0
    assert "modal stem mov" in out
    assert "0.400" in out
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv", "tfstats", "sample")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[:2] == [["stem", "count"], ["mov", "4"]]
    assert len(rows) == 33  # header + one row per stem


# tfstats --format json of true_att under the default settings
TRUE_ATT_TFSTATS = {
    "schema_version": 1, "program_id": "true_att", "instructions": 2534,
    "modal_stem": "mov", "modal_share": "0.332",
    "totals": [
        ["mov", 841], ["jcc", 269], ["jmp", 188], ["cmp", 183], ["xor", 159],
        ["lea", 143], ["nop", 137], ["call", 126], ["test", 100], ["push", 82],
        ["other", 81], ["add", 55], ["pop", 41], ["and", 33], ["setcc", 30],
        ["sub", 20], ["ret", 18], ["shr", 8], ["xchg", 8], ["cmov", 6],
        ["shl", 3], ["or", 2], ["neg", 1], ["adc", 0], ["dec", 0], ["div", 0],
        ["inc", 0], ["mul", 0], ["not", 0], ["rot", 0], ["sbb", 0], ["string", 0],
    ],
}


def test_tfstats_json_of_true_att(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    assert main(["-C", corpus, "ingest", str(DATA / "true_att.objdump")]) == 0
    code, out, err = run(capsys, "-C", corpus, "--format", "json", "tfstats", "true_att")
    assert (code, err) == (0, "")
    assert json.loads(out) == TRUE_ATT_TFSTATS


def test_tfstats_breaks_a_tie_for_the_modal_stem_by_name(tmp_path, capsys):
    # mov comes before add in stem order, but ties sort by stem name
    src = tmp_path / "tie.objdump"
    src.write_text(make_listing([("f", ["mov    eax, ebx", "add    eax, 1",
                                        "mov    ebx, ecx", "add    ebx, 2",
                                        "cmp    eax, ebx"])]))
    corpus = str(tmp_path / "corpus")
    assert main(["-C", corpus, "ingest", str(src)]) == 0
    code, out, _ = run(capsys, "-C", corpus, "--format", "json", "tfstats", "tie")
    doc = json.loads(out)
    assert code == 0
    assert (doc["instructions"], doc["modal_stem"], doc["modal_share"]) == (5, "add", "0.400")
    assert doc["totals"][:4] == [["add", 2], ["mov", 2], ["cmp", 1], ["adc", 0]]
    code, out, _ = run(capsys, "-C", corpus, "tfstats", "tie")
    assert out.splitlines() == ["tie: 5 instructions, modal stem add (share 0.400)",
                                "  add      2", "  mov      2", "  cmp      1"]


def test_tfstats_vectors_csv(tmp_path, capsys):
    src = tmp_path / "sample.objdump"
    src.write_text(CMOV_BLOCK_INTEL)
    corpus = str(tmp_path / "corpus")
    assert main(["-C", corpus, "ingest", str(src), "--id", "sample"]) == 0
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv",
                       "tfstats", "sample", "--vectors")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows[0]) == 32
    assert rows[0][0] == "mov"
    assert len(rows) == 2  # header + one block


def test_tfstats_reads_the_files_own_stems(tmp_path, capsys):
    src = tmp_path / "sample.objdump"
    src.write_text(CMOV_BLOCK_INTEL)
    corpus = str(tmp_path / "corpus")
    assert main(["-C", corpus, "ingest", str(src), "--id", "sample"]) == 0
    path = tmp_path / "corpus" / "sample.features.json"
    doc = json.loads(path.read_text())
    stems = doc["term_stems"]
    doc["term_stems"] = stems[::-1]
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    # the file's label for the slot that counts the four movs
    label = stems[::-1][stems.index("mov")]
    code, out, _ = run(capsys, "-C", corpus, "tfstats", "sample")
    assert code == 0
    assert f"modal stem {label} (share 0.400)" in out
    code, out, _ = run(capsys, "-C", corpus, "--format", "csv",
                       "tfstats", "sample", "--vectors")
    assert code == 0
    assert next(csv.reader(io.StringIO(out))) == stems[::-1]
    # rows that do not hold one count per stem are refused
    doc["term_stems"] = stems[:-1]
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for argv in (["tfstats", "sample"], ["tfstats", "sample", "--vectors"]):
        code, out, err = run(capsys, "-C", corpus, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: {path}: member 'term_counts': "), err


def test_tfstats_unknown_program(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"x": range(1, 5)})
    code, _, err = run(capsys, "-C", corpus, "tfstats", "ghost")
    assert code == 1
    assert "ghost" in err


# -- program ids stay inside the corpus -------------------------------------

@pytest.mark.parametrize("bad_id", ["../escaped", "a/b", ".hidden", "-x", ""])
def test_ingest_rejects_unsafe_id(tmp_path, capsys, bad_id):
    src = tmp_path / "p.objdump"
    src.write_text(star_program(range(1, 5)))
    corpus = tmp_path / "work" / "corpus"
    code, _, err = run(capsys, "-C", str(corpus), "ingest", str(src),
                       f"--id={bad_id}")
    assert code == 2
    assert "invalid program id" in err
    assert not list((tmp_path / "work").rglob("*.features.*"))


def test_ingest_rejects_unsafe_file_stem(tmp_path, capsys):
    good = tmp_path / "good.objdump"
    good.write_text(star_program(range(1, 5)))
    bad = tmp_path / "bad name.objdump"
    bad.write_text(star_program(range(1, 5)))
    corpus = tmp_path / "corpus"
    code, _, err = run(capsys, "-C", str(corpus), "ingest", str(good), str(bad))
    assert code == 2
    assert "'bad name'" in err
    assert not corpus.exists()  # checked before any input is ingested


def test_query_rejects_unsafe_id(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"inside": range(1, 5)})
    # a valid feature file one level up must not be reachable by id
    outside = tmp_path / "outside.features.json"
    outside.write_text((tmp_path / "corpus" / "inside.features.json").read_text())
    for argv in (["compare", "../outside", "inside"],
                 ["nearest", "../outside"],
                 ["tfstats", "../outside"],
                 ["matrix", "inside", "../outside"]):
        code, out, err = run(capsys, "-C", corpus, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: invalid program id '../outside'")


def test_every_id_fits_in_a_file_name(tmp_path, capsys):
    # the temp name of a 200-character id's file is 236 bytes at most
    src = tmp_path / "p.objdump"
    src.write_text(star_program(range(1, 5)))
    corpus = str(tmp_path / "corpus")
    longest, too_long = "a" * 200, "b" * 201
    assert run(capsys, "-C", corpus, "ingest", str(src), "--id", longest)[0] == 0
    long_stem = tmp_path / f"{too_long}.objdump"
    long_stem.write_text(src.read_text())
    # refused before any listing is read: the first does not exist
    for argv in ([str(tmp_path / "none.objdump"), "--id", too_long],
                 [str(long_stem)]):
        code, _, err = run(capsys, "-C", corpus, "ingest", *argv)
        assert code == 2 and f"invalid program id '{too_long}'" in err, argv
    for argv in (["compare", too_long, longest], ["nearest", too_long],
                 ["tfstats", too_long], ["matrix", longest, too_long],
                 ["compare", "c" * 250, longest]):
        code, out, err = run(capsys, "-C", corpus, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: invalid program id '"), argv
    assert run(capsys, "-C", corpus, "compare", longest, longest)[0] == 0


def test_queries_refuse_a_file_named_for_another_program(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5), "b": range(3, 9)})
    copy = tmp_path / "corpus" / "copy.features.json"
    copy.write_text((tmp_path / "corpus" / "a.features.json").read_text())
    for argv in (["compare", "copy", "b"],
                 ["nearest", "b"],
                 ["matrix", "--all"]):
        code, out, err = run(capsys, "-C", corpus, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: {copy}: program_id 'a' "), err


# -- feature files that are not whole canonical documents --------------------

def _corrupt_corpus(tmp_path, mutate):
    corpus = tmp_path / "corpus"
    for pid in ("true_att", "true_intel"):
        assert main(["-C", str(corpus), "ingest", str(DATA / f"{pid}.objdump")]) == 0
    path = corpus / "true_att.features.json"
    damaged = mutate(path.read_text())
    path.write_bytes(damaged if isinstance(damaged, bytes) else damaged.encode())
    return str(corpus), path


def _drop_member(text, key):
    """The text without one member, not the last, and the ',' after it."""
    start, _, end = member_span(text, key)
    return text[:start] + text[re.compile(r"\s*,\s*").match(text, end).end():]


_QUERIES = (["compare", "true_att", "true_intel"],
            ["tfstats", "true_att"],
            ["nearest", "true_intel"],
            ["matrix", "--all"],
            ["contain"])


@pytest.mark.parametrize("mutate, queries", [
    (lambda text: text[:1000], _QUERIES),
    (lambda text: _drop_member(text, "order_edges"), _QUERIES),
    (lambda text: b"\xff" + text.encode(), _QUERIES),
    # only tfstats reads term_counts
    (lambda text: replace_first_count(text, '"x"'), [["tfstats", "true_att"]]),
    (nest_hashes, _QUERIES),
    # diagnostics are checked at every load
    (lambda text: re.sub(r'("diagnostics":\s*\{\s*"blocks":\s*)\d+', r'\1"x"',
                         text, count=1), _QUERIES),
    # only tfstats reads on to the end of the document
    (lambda text: text + "{}", [["tfstats", "true_att"], ["tfstats", "true_att", "--vectors"]]),
    (lambda text: text.replace('"hashes":[', '"hashes":[1,', 1), _QUERIES),
    (lambda text: re.sub(r'"term_stems":\[[^]]*\]', '"term_stems":[]', text, count=1),
     [["tfstats", "true_att"], ["tfstats", "true_att", "--vectors"]]),
    # block_map is checked with the other file-only members
    (lambda text: text.replace('"block_map":{"', '"block_map":{"0', 1),
     [["tfstats", "true_att"], ["tfstats", "true_att", "--vectors"]]),
], ids=["truncated", "missing_member", "not_utf8", "count_not_int", "deep_nesting",
        "blocks_not_int", "text_after_document", "hash_not_str", "no_stems",
        "block_id_padded"])
def test_corrupt_feature_file_fails_cleanly(tmp_path, capsys, mutate, queries):
    corpus, path = _corrupt_corpus(tmp_path, mutate)
    for argv in queries:
        code, out, err = run(capsys, "-C", corpus, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: {path}: "), err
        assert "Traceback" not in err


@pytest.mark.parametrize("layout", [
    json.dumps,
    lambda doc: json.dumps(doc, indent=4),
], ids=["compact", "indent4"])
def test_reserialized_feature_file_answers_every_query(tmp_path, capsys, layout):
    """A file another JSON tool wrote out again reads as the original does."""
    corpus, path = _corrupt_corpus(tmp_path, lambda text: text)
    queries = [*_QUERIES, ["tfstats", "true_att", "--vectors"]]
    answers = [run(capsys, "-C", corpus, "--format", "json", *argv)
               for argv in queries]
    path.write_text(layout(json.loads(path.read_text())))
    for argv, answer in zip(queries, answers):
        assert answer[0] == 0, argv
        assert run(capsys, "-C", corpus, "--format", "json", *argv) == answer, argv


def test_feature_files_decode_as_utf8_under_an_ascii_locale(tmp_path):
    # with locale coercion and UTF-8 mode off, the C locale's encoding is
    # ASCII; a feature file is still read as UTF-8
    corpus, path = _corrupt_corpus(tmp_path, lambda text: b"\xff" + text.encode())
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ddghash.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "-C", corpus,
         "compare", "true_att", "true_intel"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: 'utf-8' codec can't decode "
                                  "byte 0xff in position 0"), proc.stderr


def test_tfstats_on_a_file_without_count_rows_fails_cleanly(tmp_path, capsys):
    # the reader wants one count row per block, so no rows at all is named
    corpus, path = _corrupt_corpus(
        tmp_path, lambda text: re.sub(r'"term_counts":\{[^}]*\}', '"term_counts":{}',
                                      text, count=1))
    blocks = json.loads(path.read_text())["diagnostics"]["blocks"]
    for argv in [(), ("--vectors",)]:
        assert run(capsys, "-C", corpus, "tfstats", "true_att", *argv) == (
            1, "", f"error: {path}: member 'term_counts': 0 rows for {blocks} blocks\n")


def test_queries_leave_term_counts_undecoded(tmp_path, capsys):
    # a damaged term_counts member breaks tfstats only: set queries never read it
    corpus, path = _corrupt_corpus(
        tmp_path, lambda text: re.sub(r'"term_counts":\s*\{', r"\g<0>]", text, count=1))
    code, out, _ = run(capsys, "-C", corpus, "compare", "true_att", "true_intel")
    assert code == 0
    assert "jaccard:             1/1 = 1.000" in out
    code, _, err = run(capsys, "-C", corpus, "tfstats", "true_att")
    assert code == 1
    assert err.startswith(f"error: {path}: member 'term_counts': ")


def _rekey_count_row(key):
    """A mutation that moves block 1's count row to `key` (None drops it)."""
    def mutate(text):
        doc = json.loads(text)
        row = doc["term_counts"].pop("1")
        if key is not None:
            doc["term_counts"][key(doc["diagnostics"]["blocks"])] = row
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return mutate


@pytest.mark.parametrize("key", [
    None, lambda blocks: str(blocks), lambda blocks: "-1", lambda blocks: "x",
    lambda blocks: "00",
], ids=["missing", "blocks", "minus_one", "not_an_int", "second_spelling_of_0"])
def test_tfstats_refuses_count_rows_not_keyed_by_the_block_ids(tmp_path, capsys, key):
    corpus, path = _corrupt_corpus(tmp_path, _rekey_count_row(key))
    blocks = json.loads(path.read_text())["diagnostics"]["blocks"]
    why = f"{blocks - 1} rows for {blocks} blocks" if key is None else "no row for block 1"
    for argv in [(), ("--vectors",)]:
        assert run(capsys, "-C", corpus, "tfstats", "true_att", *argv) == (
            1, "", f"error: {path}: member 'term_counts': {why}\n")
    # the set queries never read term_counts
    assert run(capsys, "-C", corpus, "compare", "true_att", "true_intel")[0] == 0


def _redo_member(key, change):
    """A mutation that applies change to one member's JSON value in place."""
    def mutate(text):
        doc = json.loads(text)
        change(doc[key])
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return mutate


def _count_rows(first, second):
    """Rows 0 and 1 of term_counts replaced: 1 or its stand-in, then 0s."""
    def change(counts):
        counts["0"], counts["1"] = ([value] + [0] * (len(counts["0"]) - 1)
                                    for value in (first, second))
    return _redo_member("term_counts", change)


@pytest.mark.parametrize("mutate, key, queries", [
    (_redo_member("params", lambda p: p.update(wl_iterations=3.0)), "params", _QUERIES),
    (_redo_member("params", lambda p: p.update(digest_bits=128.0)), "params", _QUERIES),
    (_redo_member("params", lambda p: p.update(wl_iterations=True)), "params", _QUERIES),
    (_redo_member("params", lambda p: p.update(wl_iterations=float("nan"))), "params",
     _QUERIES),
    (_redo_member("diagnostics", lambda d: d.update(blocks=True)), "diagnostics",
     _QUERIES),
    (_redo_member("diagnostics", lambda d: d.update(blocks=-1)), "diagnostics",
     _QUERIES),
    # a bool equals 1, so after an equal integer row it shares that row's tuple
    (_count_rows(True, 1), "term_counts", [["tfstats", "true_att"]]),
    (_count_rows(1, True), "term_counts", [["tfstats", "true_att"]]),
    (_count_rows(1.0, 1), "term_counts", [["tfstats", "true_att"]]),
    (_count_rows(1, 1.0), "term_counts", [["tfstats", "true_att"]]),
], ids=["wl_iterations_float", "digest_bits_float", "wl_iterations_bool",
        "wl_iterations_nan", "blocks_bool", "blocks_negative", "count_bool_first",
        "count_bool_after_int", "count_float_first", "count_float_after_int"])
def test_every_integer_of_a_feature_file_is_an_int(tmp_path, capsys, mutate, key,
                                                   queries):
    corpus, path = _corrupt_corpus(tmp_path, mutate)
    for argv in [*queries, ["tfstats", "true_att", "--vectors"]]:
        code, out, err = run(capsys, "-C", corpus, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: {path}: member '{key}': "), err
    if key == "term_counts":  # the set queries never read term_counts
        assert run(capsys, "-C", corpus, "compare", "true_att", "true_intel")[0] == 0


def test_a_format_version_of_true_is_refused(tmp_path, capsys):
    corpus, path = _corrupt_corpus(
        tmp_path, lambda text: text.replace('"format_version":1', '"format_version":true'))
    assert run(capsys, "-C", corpus, "compare", "true_att", "true_intel") == (
        1, "", f"error: {path}: unsupported feature file format version True\n")
