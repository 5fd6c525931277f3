"""The package's two import layers: corpus queries load only the query
layer, and the ingest pipeline loads on first use without hiding its
functions from a tracer that wraps them where they are called. No
command loads dataclasses or the code-introspection modules it needs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddghash.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

QUERY_LAYER = {"ddghash", "ddghash.cli", "ddghash.corpus", "ddghash.errors",
               "ddghash.features"}
INGEST_ONLY = {"ddghash.disasm", "ddghash.blocks", "ddghash.ddg",
               "ddghash.wlhash", "ddghash.tfidf", "ddghash.isa", "hashlib",
               "csv", "statistics"}
# dataclasses and what it imports to generate each class's methods; the
# records are plain slotted classes, so no command pays for these
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

# runs each command line of argv[2] in one fresh interpreter, in order,
# and writes the modules each command had loaded since start-up to argv[1]
_RUN_COMMANDS = """
import contextlib, io, json, sys
start = set(sys.modules)
from ddghash import cli
loaded = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded.append([code, sorted(set(sys.modules) - start)])
with open(sys.argv[1], "w") as fh:
    json.dump(loaded, fh)
"""


def _python(*args, **kwargs):
    # -S: no site hooks, so only what ddghash imports is loaded
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          text=True, env=env, **kwargs)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("layers") / "corpus"
    listings = [str(DATA / f"{pid}.objdump")
                for pid in ("true_att", "true_intel", "false_intel")]
    assert main(["-C", str(corpus), "ingest", *listings]) == 0
    return corpus


def test_queries_load_only_the_query_layer(corpus, tmp_path):
    # each command may add only the named modules to what ran before it
    commands = [
        (["compare", "true_att", "true_intel"], set()),
        (["nearest", "true_att"], set()),
        (["contain"], set()),
        (["matrix", "--all"], set()),
        (["matrix", "--all", "--stats"], set()),
        (["--format", "csv", "compare", "true_att", "false_intel"], {"csv"}),
        (["tfstats", "true_att"], {"ddghash.tfidf"}),
    ]
    out = tmp_path / "loaded.json"
    argvs = [["-C", str(corpus), *argv] for argv, _ in commands]
    proc = _python("-c", _RUN_COMMANDS, str(out), json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    allowed = set()
    for (argv, extra), (code, loaded) in zip(commands, json.loads(out.read_text())):
        allowed |= extra
        assert code == 0, argv
        ours = {m for m in loaded if m.split(".")[0] == "ddghash"}
        assert ours <= QUERY_LAYER | allowed, argv
        assert not (INGEST_ONLY - allowed) & set(loaded), argv


def test_no_command_loads_dataclasses_or_introspection(tmp_path):
    corpus = str(tmp_path / "corpus")
    listings = [str(DATA / f"{pid}.objdump") for pid in ("true_att", "false_intel")]
    argvs = [["-C", corpus, *argv] for argv in (
        ["ingest", *listings],
        ["--format", "json", "ingest", "--id", "again", listings[0]],
        ["tfstats", "true_att"],
        ["tfstats", "--vectors", "true_att"],
        ["--format", "csv", "matrix", "true_att", "false_intel", "--stats"],
        ["compare", "true_att", "false_intel"],
        ["nearest", "true_att"],
        ["contain"],
    )]
    out = tmp_path / "loaded.json"
    proc = _python("-c", _RUN_COMMANDS, str(out), json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    for argv, (code, loaded) in zip(argvs, json.loads(out.read_text())):
        assert code == 0, argv
        assert not INTROSPECTION & set(loaded), argv


def test_every_public_name_resolves_in_a_fresh_interpreter():
    proc = _python("-c", """
import ddghash
names = {}
exec("from ddghash import *", names)
missing = [n for n in ddghash.__all__ if n not in names]
assert not missing, missing
for name in ddghash.__all__:
    assert getattr(ddghash, name) is names[name], name
assert set(ddghash.__all__) <= set(dir(ddghash))
try:
    ddghash.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("no_such_name resolved")
""")
    assert proc.returncode == 0, proc.stderr


def test_tracer_still_sees_every_ingest_layer(tmp_path):
    # perfbench/traced.py wraps the pipeline's names in the modules that
    # call them; lazy binding must leave those wrappers in place
    traced = ROOT / "perfbench" / "traced.py"
    corpus = str(tmp_path / "corpus")

    def spans(*argv):
        out = tmp_path / "spans.json"
        proc = _python(str(traced), str(out), "-C", corpus, *argv)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        return {span[0] for span in doc["spans"]}, doc["counts"]

    names, counts = spans("ingest", str(DATA / "true_att.objdump"))
    assert {"disasm.parse_listing_with_report", "blocks.segment",
            "tfidf.tf_vector", "tfidf.load_default_dictionary",
            "ddg.build_ddg", "wlhash.wl_hash"} <= names
    assert counts["disasm.instructions"] > 0 and counts["wlhash.distinct"] > 0
    names, _ = spans("tfstats", "true_att")
    assert "tfidf.distribution_from_vectors" in names
    # --vectors prints weighted rows, not the totals
    names, _ = spans("tfstats", "--vectors", "true_att")
    assert "tfidf.idf" in names and "tfidf.distribution_from_vectors" not in names


def test_the_tracers_names_resolve_but_three_stale_ones():
    # perfbench/traced.py skips a name it cannot find, so a rename would
    # silently zero a per-layer figure; these three are already gone
    spec = importlib.util.spec_from_file_location(
        "traced", ROOT / "perfbench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert len(traced.WRAPPED) == 22
    missing = [f"{owner.__name__.rpartition('.')[2]}.{attr}"
               for owner, attr, _ in traced.WRAPPED
               if getattr(owner, attr, None) is None]
    assert missing == ["corpus.build_cfg", "cli.load_default_dictionary",
                       "corpus.extract_feature_set"]
