"""The README's library quickstart and CLI commands run, and the package API it documents resolves."""

import pathlib
import re
import shlex

import pytest

import fpsearch
from fpsearch import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _cli_commands() -> list:
    lines = _block("CLI", "sh").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fpsearch ")]


def _cli_ids(commands) -> list:
    # the first command of each subcommand is named after it, a later one gets its position too
    seen = set()
    ids = []
    for i, argv in enumerate(commands):
        ids.append(argv[0] if argv[0] not in seen else f"{argv[0]}-{i}")
        seen.add(argv[0])
    return ids


def test_quickstart_runs(capsys):
    exec(compile(_block("Library quickstart", "python"), str(README), "exec"), {})
    sim, closed = (float(v) for v in capsys.readouterr().out.split())
    assert sim == pytest.approx(closed, abs=1e-9)
    assert sim >= 0.95


def test_every_exported_name_resolves():
    assert len(set(fpsearch.__all__)) == len(fpsearch.__all__)
    for name in fpsearch.__all__:
        assert getattr(fpsearch, name) is not None, name


@pytest.mark.parametrize("argv", _cli_commands(), ids=_cli_ids(_cli_commands()))
def test_cli_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    outputs = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--output"]
    for path in outputs:
        assert (tmp_path / path).stat().st_size > 0, path
