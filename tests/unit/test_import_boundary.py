"""``src/`` is the system: no library module or example imports the tests.

The test oracles under ``tests/oracles/`` (the two-tier mediators, the row
algebra, query minimization) check the library from outside.  A library
module or an example that imported them would make test code part of the
system again, so every module under ``src/repro/`` and ``examples/`` is
parsed and its absolute imports are checked.  The other side of the same
boundary: :mod:`repro.integration` exports only what the PDMS imports.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
MODULES = sorted(
    [*(REPO_ROOT / "src" / "repro").rglob("*.py"), *(REPO_ROOT / "examples").glob("*.py")]
)


def imported_packages(source: str) -> set:
    """The top-level packages ``source`` imports by absolute name."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            packages.add(node.module.split(".")[0])
    return packages


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.relative_to(REPO_ROOT).as_posix() for module in MODULES]
)
def test_no_library_module_or_example_imports_the_tests(module):
    assert "tests" not in imported_packages(module.read_text(encoding="utf-8"))


def test_the_pdms_imports_every_name_integration_exports():
    import repro.integration

    imported = set()
    for module in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        if module.parent.name == "integration":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and "integration" in (node.module or "").split("."):
                imported.update(alias.name for alias in node.names)
    assert set(repro.integration.__all__) <= imported


def test_the_check_sees_every_form_of_import():
    assert len(MODULES) > 50
    for source in (
        "import tests",
        "import tests.oracles.gav as gav",
        "from tests.oracles import Table",
        "def f():\n    from tests import oracles\n",
    ):
        assert "tests" in imported_packages(source), source
    assert imported_packages("from .tests import x\nimport repro.tests") == {"repro"}
