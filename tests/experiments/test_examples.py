"""Integration tests: the example applications must run end-to-end.

Each example is executed in-process via ``runpy`` (calling its ``main()``)
so regressions in the public API surface immediately.  The README's python
blocks are checked too: every import they show must resolve.
"""

import ast
import os
import re
import runpy

import pytest

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

EXAMPLES = [
    "quickstart.py",
    "isomap_geodesics.py",
    "solver_comparison.py",
    "partitioner_tuning.py",
    "fault_tolerance.py",
]


def _load(name):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    assert os.path.exists(path), f"example {name} is missing"
    return runpy.run_path(path, run_name="not_main")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_and_succeeds(name, capsys):
    module_globals = _load(name)
    assert "main" in module_globals, f"{name} must define main()"
    assert module_globals["main"]() == 0
    # Every example prints something useful.
    assert capsys.readouterr().out.strip()


def test_quickstart_verifies_against_reference(capsys):
    module_globals = _load("quickstart.py")
    module_globals["main"]()
    out = capsys.readouterr().out
    assert "match the reference" in out


def test_fault_tolerance_demonstrates_both_behaviours(capsys):
    module_globals = _load("fault_tolerance.py")
    module_globals["main"]()
    out = capsys.readouterr().out
    assert "retried" in out
    assert "failed as expected" in out


def test_isomap_unrolls_the_manifold(capsys):
    module_globals = _load("isomap_geodesics.py")
    module_globals["main"]()
    assert "unrolls the manifold" in capsys.readouterr().out


def readme_python_blocks() -> list[str]:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_python_blocks_import():
    blocks = readme_python_blocks()
    assert blocks, "README.md has no python blocks"
    for block in blocks:
        tree = ast.parse(block)
        imports = [node for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        exec(compile(ast.Module(body=imports, type_ignores=[]),
                     "README.md", "exec"), {})
