"""The documents under ``docs/`` name only what exists.

Every ``REPRO_*`` environment variable a document mentions is one that
:mod:`repro.config` reads, and every dotted ``repro.…`` name resolves in
the importable tree (the longest importable module prefix, then
attributes).  A retired knob or symbol leaves the docs with its code; its
history is in CHANGES.md.
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


def _text(doc: Path) -> str:
    return doc.read_text(encoding="utf-8")


@pytest.mark.parametrize("doc", DOCS, ids=[doc.name for doc in DOCS])
def test_every_knob_a_doc_names_is_read_by_config(doc):
    assert set(KNOB.findall(_text(doc))) <= config_knobs()


@pytest.mark.parametrize("doc", DOCS, ids=[doc.name for doc in DOCS])
def test_every_dotted_name_a_doc_mentions_resolves(doc):
    unresolved = sorted({name for name in DOTTED.findall(_text(doc)) if not resolves(name)})
    assert unresolved == []


def test_the_checks_reject_what_does_not_exist():
    assert {"REPRO_TRACE", "REPRO_SCAN_RETRIES"} <= config_knobs()
    assert "REPRO_SHARDS" not in config_knobs()
    assert KNOB.findall("every `REPRO_*` knob") == []
    assert resolves("repro.pdms.service.QueryService")
    assert resolves("repro.obs.export")
    assert not resolves("repro.pdms.optimizations")
    assert not resolves("repro.pdms.ExpansionOrder")
