"""The README's Python API example runs as written."""

import re
from pathlib import Path

from _datasets import adult_like_table

from tabsynth.schema import write_table

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    write_table(adult_like_table(300), tmp_path / "adult.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "model.json").exists()
    assert "pmse_ratio" in capsys.readouterr().out
