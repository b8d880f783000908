"""The documents under ``docs/`` name only what exists.

Every ``REPRO_*`` environment variable a document mentions is one that
:mod:`repro.config` reads, every dotted ``repro.…`` name resolves in
the importable tree (the longest importable module prefix, then
attributes), and every ``*.py`` or ``*.json`` path names a file that
exists (an absolute path, such as a trace sink's, names none of the
repository's).  A retired knob, symbol, module or benchmark baseline
leaves the docs with its code; its history is in CHANGES.md.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))

#: A knob name; ``REPRO_*`` (the family, not a knob) does not match.
KNOB = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
FILE_PATH = re.compile(r"(?<![\w./-])(?!/)[\w./-]*\w\.(?:py|json)\b")

#: A path resolves from one of these directories ...
PATH_ROOTS = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")
#: ... or as the trailing path of exactly one such file in these trees.
FILES = [
    path.relative_to(REPO_ROOT).as_posix()
    for tree in ("src", "tests", "benchmarks", "examples")
    for pattern in ("*.py", "*.json")
    for path in (REPO_ROOT / tree).rglob(pattern)
]


def config_knobs() -> set:
    """The ``REPRO_*`` names ``repro/config.py`` reads."""
    source = Path(repro.__file__).resolve().parent / "config.py"
    return {
        node.value
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and KNOB.fullmatch(node.value)
    }


def resolves(dotted: str) -> bool:
    """Does ``dotted`` name a module, or an attribute path under one?"""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def path_resolves(named: str) -> bool:
    """Does ``named`` (``integration/minicon.py``, ``e2e/run.py``, …) name
    one file: under the repo root, ``src/`` or ``src/repro/``, or as the
    tail of exactly one path under ``src/``, ``tests/``, ``benchmarks/``
    or ``examples/``?"""
    if any((root / named).is_file() for root in PATH_ROOTS):
        return True
    return sum(path.endswith("/" + named) for path in FILES) == 1


def _text(doc: Path) -> str:
    return doc.read_text(encoding="utf-8")


@pytest.mark.parametrize("doc", DOCS, ids=[doc.name for doc in DOCS])
def test_every_knob_a_doc_names_is_read_by_config(doc):
    assert set(KNOB.findall(_text(doc))) <= config_knobs()


@pytest.mark.parametrize("doc", DOCS, ids=[doc.name for doc in DOCS])
def test_every_dotted_name_a_doc_mentions_resolves(doc):
    unresolved = sorted({name for name in DOTTED.findall(_text(doc)) if not resolves(name)})
    assert unresolved == []


@pytest.mark.parametrize("doc", DOCS, ids=[doc.name for doc in DOCS])
def test_every_file_path_a_doc_names_exists(doc):
    unresolved = sorted({path for path in FILE_PATH.findall(_text(doc)) if not path_resolves(path)})
    assert unresolved == []


def test_the_checks_reject_what_does_not_exist():
    assert {"REPRO_TRACE", "REPRO_SCAN_RETRIES"} <= config_knobs()
    assert "REPRO_SHARDS" not in config_knobs()
    assert KNOB.findall("every `REPRO_*` knob") == []
    assert resolves("repro.pdms.service.QueryService")
    assert resolves("repro.obs.export")
    assert not resolves("repro.pdms.optimizations")
    assert not resolves("repro.pdms.ExpansionOrder")
    assert resolves("repro.integration.form_mcds")
    for module in ("repro.integration.gav", "repro.database.csvio",
                   "repro.database.algebra", "repro.datalog.minimize"):
        assert not resolves(module)
    assert FILE_PATH.findall("`pdms/system.py:30`, e2e/run.py and x.pyc") == [
        "pdms/system.py", "e2e/run.py"]
    assert FILE_PATH.findall(
        "`BENCHMARK.json`, BENCH_*.json, /tmp/traces.json and t.jsonl") == ["BENCHMARK.json"]
    assert path_resolves("BENCHMARK.json")
    assert not path_resolves("BENCH_columnar.json")
    assert path_resolves("integration/minicon.py")
    assert path_resolves("e2e/run.py")
    assert path_resolves("test_factored_plan_pinned.py")
    assert not path_resolves("integration/gav.py")
    assert not path_resolves("datalog/minimize.py")
    # Ambiguous: the library's MCD formation and the MiniCon oracle.
    assert not path_resolves("minicon.py")
