"""Golden outputs: the stdout of each CLI command below, at seed 1729,
against a file under tests/data/golden. Headers, keys, integers and
strings match exactly; floats match to 1e-8 relative, because their last
digits may differ across numpy builds. To regenerate a file, run its
command with ``python -m maskspectra`` and redirect stdout to it."""

import json
import math
from pathlib import Path

import pytest

from maskspectra.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
SEED = ["--seed", "1729"]

GOLDEN = {
    "bounds.csv": ["bounds", "--n", "127", "--p", "0.5"],
    "bounds_union.json": ["bounds", "--n", "127", "--p", "0.5", "--union", "--format", "json"],
    "simulate.csv": ["simulate", "--n", "127", "--p", "0.5", "--trials", "2000", *SEED],
    "simulate.json": ["simulate", "--n", "127", "--p", "0.5", "--trials", "2000", *SEED, "--format", "json"],
    "table1.csv": ["table1", "--trials", "16", *SEED],
    "table1.json": ["table1", "--trials", "16", *SEED, "--format", "json"],
    "figure.csv": ["figure", "--trials", "64", *SEED],
    "figure.json": ["figure", "--trials", "64", *SEED, "--format", "json"],
    "figure_ratio.csv": ["figure", "--mode", "ratio", "--n", "127", "--trials", "64", *SEED],
    "figure_approx.csv": ["figure", "--mode", "approx", "--n", "127"],
    "recover.csv": ["recover", *SEED],
    "recover_rate0.2.csv": ["recover", "--rate", "0.2", "--tol", "0", *SEED],
    "recover_rate1.csv": ["recover", "--rate", "1", *SEED],
}


def _cell(text: str):
    """A CSV cell as an int, else a float, else the string itself."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _assert_matches(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        same = math.isclose(got, want, rel_tol=1e-8) or (math.isnan(got) and math.isnan(want))
        assert same, f"{where}: {got!r} != {want!r} to 1e-8 relative"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_output_matches_golden(name, capsys):
    assert main(GOLDEN[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        _assert_matches(json.loads(got), json.loads(want), name)
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), f"{name}: {len(got_lines)} lines != {len(want_lines)}"
    assert got_lines[0] == want_lines[0], f"{name}: header"
    for i, (g, w) in enumerate(zip(got_lines[1:], want_lines[1:]), 2):
        _assert_matches([_cell(c) for c in g.split(",")], [_cell(c) for c in w.split(",")], f"{name}:{i}")
