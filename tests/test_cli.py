import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from ddghash.cli import main

from fixtures import CMOV_BLOCK_INTEL, star_program

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    capsys.readouterr()  # drain output from corpus-seeding commands
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _seed_corpus(tmp_path, programs):
    corpus = str(tmp_path / "corpus")
    for pid, class_ids in programs.items():
        src = tmp_path / f"{pid}.objdump"
        src.write_text(star_program(class_ids))
        assert main(["-C", corpus, "ingest", str(src), "--id", pid]) == 0
    return corpus


def test_usage_error_exit_2(capsys):
    for argv in ([], ["ingest"],
                 ["ingest", "x.objdump", "--iters", "0"],
                 ["contain", "--threshold", "nan"],
                 ["contain", "--threshold", "inf"],
                 ["contain", "--threshold", "0"],
                 ["nearest", "x", "-k", "0"],
                 ["nearest", "x", "-k", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "--threshold must be in (0, 1]" in capsys.readouterr().err


def test_ingest_id_with_multiple_paths_is_usage_error(tmp_path, capsys):
    a = tmp_path / "a.objdump"
    a.write_text(star_program([1]))
    b = tmp_path / "b.objdump"
    b.write_text(star_program([2]))
    code, _, err = run(capsys, "-C", str(tmp_path / "c"), "ingest",
                       str(a), str(b), "--id", "x")
    assert code == 2


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


def test_keep_going_continues(tmp_path, capsys):
    good = tmp_path / "ok.objdump"
    good.write_text(star_program([1, 2, 3]))
    code, out, err = run(capsys, "-C", str(tmp_path / "c"), "ingest",
                         "--keep-going", "/no/such/file", str(good))
    assert code == 1
    assert "ok:" in out


def test_ingest_refreshes_index(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {"a": range(1, 5), "b": range(3, 8)})
    index = json.loads((tmp_path / "corpus" / "index.json").read_text())
    assert set(index["programs"]) == {"a", "b"}
    assert all(len(pids) >= 1 for pids in index["inverted"].values())


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
    text = (corpus / "true_att.features.json").read_text()
    assert "distinct_" not in text
    # the file's exact bytes: how the pipeline saves work must not move them
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "a3719e416622c8cb63746855faf98e2a7fa31ed1f4fd7ef02713414429beb0a2"


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


def test_contain_threshold(tmp_path, capsys):
    corpus = _seed_corpus(tmp_path, {
        "inner": range(1, 31),
        "outer": range(1, 61),
    })
    code, out, _ = run(capsys, "-C", corpus, "contain", "--threshold", "1.0")
    assert code == 0
    assert out.strip() == "inner contained in outer: 1.000"


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
    lines = text.split("\n")
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f'  "{key}": '))
    end = start + 1
    while not lines[end].startswith('  "'):
        end += 1
    return "\n".join(lines[:start] + lines[end:])


@pytest.mark.parametrize("mutate", [
    lambda text: text[:1000],
    lambda text: _drop_member(text, "order_edges"),
    lambda text: json.dumps(json.loads(text)),
    lambda text: b"\xff" + text.encode(),
], ids=["truncated", "missing_member", "compact", "not_utf8"])
def test_corrupt_feature_file_fails_cleanly(tmp_path, capsys, mutate):
    corpus, path = _corrupt_corpus(tmp_path, mutate)
    for argv in (["compare", "true_att", "true_intel"],
                 ["tfstats", "true_att"],
                 ["nearest", "true_intel"],
                 ["matrix", "--all"],
                 ["contain"]):
        code, out, err = run(capsys, "-C", corpus, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: {path}: "), err
        assert "Traceback" not in err


def test_queries_leave_term_counts_undecoded(tmp_path, capsys):
    # a damaged term_counts member breaks tfstats only: set queries never read it
    corpus, path = _corrupt_corpus(
        tmp_path, lambda text: text.replace('"term_counts": {', '"term_counts": {]', 1))
    code, out, _ = run(capsys, "-C", corpus, "compare", "true_att", "true_intel")
    assert code == 0
    assert "jaccard:             1/1 = 1.000" in out
    code, _, err = run(capsys, "-C", corpus, "tfstats", "true_att")
    assert code == 1
    assert err.startswith(f"error: {path}: member 'term_counts': ")
