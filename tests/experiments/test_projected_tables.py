"""Golden file: the ``--csv`` output of every projected paper table and figure.

Each ``apspark <command> --mode projected --csv`` run below must print exactly
the text committed in ``projected_tables.txt`` under its ``== <command> ==``
header.  The projected mode prices the paper's cluster from the cost model's
constants alone, so any change to a constant, a cost term or the table
drivers moves this file; regenerate it with::

    PYTHONPATH=src python tests/experiments/test_projected_tables.py

and review the diff — every changed line is a changed projected number.
"""

from __future__ import annotations

import contextlib
import io
import os

import pytest

from repro.experiments.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "projected_tables.txt")

COMMANDS = ("table2", "table3", "figure3", "figure2", "figure3 --distribution")


def render(command: str) -> str:
    """The CSV ``apspark <command> --mode projected --csv`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split() + ["--mode", "projected", "--csv"]) == 0
    return out.getvalue()


def load_golden() -> dict:
    sections: dict = {}
    command = None
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("== ") and line.rstrip("\n").endswith(" =="):
                command = line[3:-4]
                sections[command] = ""
            else:
                sections[command] += line
    return sections


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_file_covers_the_commands(golden):
    assert list(golden) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_projected_output_matches_golden(command, golden):
    assert render(command) == golden[command]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="") as fh:
        for command in COMMANDS:
            fh.write(f"== {command} ==\n")
            fh.write(render(command))
    print(f"wrote {len(COMMANDS)} sections to {GOLDEN_PATH}")
