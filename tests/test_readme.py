"""The README's library quickstart runs, and the package API it documents resolves."""

import pathlib
import re

import pytest

import fpsearch

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs(capsys):
    exec(compile(_quickstart(), str(README), "exec"), {})
    sim, closed = (float(v) for v in capsys.readouterr().out.split())
    assert sim == pytest.approx(closed, abs=1e-9)
    assert sim >= 0.95


def test_every_exported_name_resolves():
    assert len(set(fpsearch.__all__)) == len(fpsearch.__all__)
    for name in fpsearch.__all__:
        assert getattr(fpsearch, name) is not None, name
