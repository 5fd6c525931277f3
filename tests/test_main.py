"""`python -m ddghash` and the console script end through cli.run: the
exit code, the output a command flushes before its process ends, and a
quiet end when the reader of standard output has gone. Each such command
runs in a fresh interpreter, as a user runs it. cli.main, which they
run, pauses the collector for the command wherever it is called."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddghash.cli import main
from ddghash.corpus import Corpus

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
    return subprocess.run([sys.executable, *map(str, args)], env=env, **kwargs)


def _command(corpus, *argv, **kwargs):
    return _python("-m", "ddghash", "-C", corpus, *argv, **kwargs)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("main") / "corpus"
    listings = [str(DATA / f"{pid}.objdump")
                for pid in ("true_att", "true_intel", "false_intel")]
    assert main(["-C", str(corpus), "ingest", *listings]) == 0
    return corpus


@pytest.mark.parametrize("argv, code, out, err", [
    (["--version"], 0, "ddghash 0.1.0\n", ""),
    (["compare", "true_att"], 2, "", "usage: "),
    (["compare", "true_att", "nosuch"], 1, "",
     "error: no program 'nosuch' in corpus\n"),
], ids=["version", "usage_error", "unknown_program"])
def test_exit_codes(corpus, argv, code, out, err):
    proc = _command(corpus, *argv, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == out
    assert proc.stderr.startswith(err) and (err or not proc.stderr)


@pytest.mark.parametrize("body, code, err", [
    ("return 3", 3, ""),
    ("sys.exit(2)", 2, ""),
    ("raise ZeroDivisionError('bug')", 1, "ZeroDivisionError: bug\n"),
], ids=["returned", "exit_code", "bug"])
def test_run_keeps_the_code_sys_exit_gives(body, code, err):
    # a bug still ends with its traceback, through the usual exit
    proc = _python("-c", "import sys\nfrom ddghash import cli\n"
                   f"def main():\n    {body}\ncli.main = main\ncli.run()",
                   capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.endswith(err) and (err or not proc.stderr)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code, loads", [
    (["compare", "true_att", "true_intel"], 0, 2),
    (["compare", "true_att", "nosuch"], 1, 2),
    (["compare", "true_att"], 2, 0),
    (["--version"], 0, 0),
], ids=["returns", "reports_an_error", "usage_error", "version"])
def test_main_pauses_the_collector_and_restores_it(corpus, monkeypatch, capsys,
                                                   enabled, argv, code, loads):
    # a command run in-process is the program `python -m ddghash` runs
    during = []
    load = Corpus.load

    def spy(self, program_id):
        during.append(gc.isenabled())
        return load(self, program_id)

    monkeypatch.setattr(Corpus, "load", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            returned = main(["-C", str(corpus), *argv])
        except SystemExit as exc:  # argparse's exits
            returned = exc.code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert returned == code
    assert during == [False] * loads


@pytest.mark.parametrize("argv, size", [
    (["--format", "csv", "tfstats", "true_att", "--vectors"], 8192),
    (["matrix", "--all", "--stats", "--pairs-out", "{pairs}"], 0),
], ids=["tfstats_vectors", "matrix_pairs_out"])
def test_output_is_what_main_writes(corpus, tmp_path, capsys, argv, size):
    def args(side):
        return ["-C", str(corpus),
                *(a.format(pairs=tmp_path / f"{side}.csv") for a in argv)]

    capsys.readouterr()
    assert main(args("main")) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > size  # the large output fills buffers mid-command
    with open(tmp_path / "stdout", "wb") as fh:
        proc = _python("-m", "ddghash", *args("command"), stdout=fh,
                       stderr=subprocess.PIPE)
    assert proc.returncode == 0 and proc.stderr == b""
    assert (tmp_path / "stdout").read_bytes() == expected
    if "--pairs-out" in argv:
        assert ((tmp_path / "command.csv").read_bytes()
                == (tmp_path / "main.csv").read_bytes())


def test_closed_stdout_is_not_an_error(corpus):
    proc = _command(corpus, "compare", "true_att", "true_intel",
                    stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [
    ["compare", "true_att", "true_intel"],  # fails at the final flush
    ["--format", "csv", "tfstats", "true_att", "--vectors"],  # mid-command
], ids=["small", "large"])
def test_a_closed_pipe_ends_the_command_quietly(corpus, argv):
    read, write = os.pipe()
    os.close(read)  # before the command starts, so no write can succeed
    try:
        proc = _command(corpus, *argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_both_entry_points_run_the_same_exit_path():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert project["project"]["scripts"] == {"ddghash": "ddghash.cli:run"}
    main_module = ROOT / "src" / "ddghash" / "__main__.py"
    assert main_module.read_text() == "from .cli import run\n\nrun()\n"
