"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py

The smoke test runs every workload, traced and untraced, with every check
on the tests/data fixtures. The other tests show that the independent
checks catch a wrong answer.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import ddghash  # noqa: E402
from ddghash.corpus import encode_feature_file  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "true_att.objdump"
PARAMS = {"label_mode": "operand_class", "policy": "mov_only", "wl_iterations": 3}


def test_smoke_runs_every_workload_and_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t) for w in ("ingest", "ingest-literal", "query") for t in (0, 1)}
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        assert all(m["value"] > 0 for m in r["metrics"].values()), r
    assert "corpus.decodes" in results[1]["metrics"]


def _fixture_doc():
    text = FIXTURE.read_text()
    ff = ddghash.build_feature_file(text, "true_att", ddghash.FeatureParams())
    return text, json.loads(encode_feature_file(ff))


def test_feature_file_checks_pass_and_catch_tampering():
    text, doc = _fixture_doc()
    digest = checks.sha256_hex(text.encode())
    assert checks.check_feature_file(doc, "true_att", digest, PARAMS) == []
    assert checks.check_wl_sample(ddghash, text, doc, PARAMS, random.Random(1), 400) == []

    block, value = next(iter(doc["block_map"].items()))
    doc["block_map"][block] = "0" * 32
    assert checks.check_feature_file(doc, "true_att", digest, PARAMS)
    doc["block_map"][block] = value
    doc["params"]["wl_iterations"] = 2
    assert checks.check_feature_file(doc, "true_att", digest, PARAMS)


def test_wl_sample_catches_a_wrong_hash():
    text, doc = _fixture_doc()
    for block in doc["block_map"]:
        doc["block_map"][block] = "0" * 32
    assert checks.check_wl_sample(ddghash, text, doc, PARAMS, random.Random(1), 50)


def test_query_oracle_rejects_a_wrong_answer():
    _, doc = _fixture_doc()
    other = dict(doc, program_id="other", hashes=doc["hashes"][1:])
    oracle = checks.QueryOracle({"true_att": doc, "other": other})
    right = json.dumps(dict(checks.compare_fields(
        "true_att", frozenset(doc["hashes"]), "other", frozenset(other["hashes"])),
        schema_version=1))
    assert oracle.check(["compare", "true_att", "other"], right) == []
    wrong = json.loads(right)
    wrong["intersection"] += 1
    assert oracle.check(["compare", "true_att", "other"], json.dumps(wrong))
