"""What the README and the package metadata state holds for the code."""

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


def test_one_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == ddghash.__version__
    ff = build_feature_file((DATA / "true_att.objdump").read_text(), "p",
                            FeatureParams())
    assert ff.toolkit_version == version
    assert json.loads(encode_feature_file(ff))["toolkit_version"] == version
