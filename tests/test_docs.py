"""What the README and the package metadata state holds for the code."""

import ast
import json
import re
import shutil
from pathlib import Path

import pytest

import ddghash
from ddghash.corpus import build_feature_file, encode_feature_file
from ddghash.features import FeatureParams

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Library\n"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shutil.copy(DATA / "true_att.objdump", tmp_path / "ls.objdump")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.endswith(" distinct dependency patterns\n")


def test_sources_parse_under_the_oldest_promised_python():
    """The package's sources parse under the grammar of the oldest Python
    that pyproject.toml and the README promise (>= 3.10), read with
    ast.parse(feature_version=...). Best-effort: it refuses most newer
    grammar, such as except* and type parameter lists, but not a call to
    a library function or module that the oldest version lacks, nor every
    newer form; only a run under that version checks those."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    assert "(Python >= 3.10)" in (ROOT / "README.md").read_text(encoding="utf-8")
    for path in sorted((ROOT / "src" / "ddghash").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))


def test_one_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == ddghash.__version__
    ff = build_feature_file((DATA / "true_att.objdump").read_text(), "p",
                            FeatureParams())
    assert ff.toolkit_version == version
    assert json.loads(encode_feature_file(ff))["toolkit_version"] == version
