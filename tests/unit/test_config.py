"""The deployment knobs: one reader per ``REPRO_*`` variable.

Every knob in :mod:`repro.config` is pinned here against the table in
``docs/distributed.md``: its default when unset, a value it parses, and
the fail-fast error (naming the variable) for a malformed or
below-floor value.  The module-level checks keep the set of knobs, the
documentation and the source in step — each variable is read in exactly
one function, and that function lives in ``repro/config.py``.
"""

import ast
import re
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

import repro
from repro import config
from repro.errors import EvaluationError
from repro.pdms.materialization import DEFAULT_FRAGMENT_CACHE_BYTES

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = Path(repro.__file__).resolve().parent


class Knob(NamedTuple):
    reader: Callable[[], object]
    env: str
    default: object
    raw: str  # a well-formed setting ...
    parsed: object  # ... and what the reader makes of it
    malformed: Optional[str]  # not a number at all
    below_floor: Optional[str]  # a number under the reader's minimum


KNOBS = [
    Knob(config.fragment_cache_bytes, "REPRO_FRAGMENT_CACHE_BYTES",
         DEFAULT_FRAGMENT_CACHE_BYTES, "4096", 4096, "lots", "-1"),
    Knob(config.distributed_workers, "REPRO_DISTRIBUTED_WORKERS",
         0, "3", 3, "auto", "-1"),
    Knob(config.transport_timeout_seconds, "REPRO_TRANSPORT_TIMEOUT_MS",
         10.0, "250", 0.25, "1.5", "-1"),
    Knob(config.scan_retries, "REPRO_SCAN_RETRIES",
         2, "0", 0, "two", "-1"),
    Knob(config.max_inflight, "REPRO_MAX_INFLIGHT",
         0, "8", 8, "many", "-1"),
    Knob(config.trace_enabled, "REPRO_TRACE",
         False, "1", True, "yes", "-1"),
    Knob(config.trace_sample_rate, "REPRO_TRACE_SAMPLE",
         1.0, "0.25", 0.25, "often", "-0.5"),
    # A path: any non-empty string is well formed.
    Knob(config.trace_sink_path, "REPRO_TRACE_SINK",
         None, "traces.jsonl", "traces.jsonl", None, None),
]
KNOB_NAMES = {knob.env for knob in KNOBS}


def _ids(knobs):
    return [knob.env for knob in knobs]


@pytest.fixture
def clean_env(monkeypatch):
    for name in KNOB_NAMES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestEveryKnob:
    @pytest.mark.parametrize("knob", KNOBS, ids=_ids(KNOBS))
    def test_unset_knob_reads_its_documented_default(self, clean_env, knob):
        assert knob.reader() == knob.default

    @pytest.mark.parametrize("knob", KNOBS, ids=_ids(KNOBS))
    def test_well_formed_value_is_parsed(self, clean_env, knob):
        clean_env.setenv(knob.env, knob.raw)
        assert knob.reader() == pytest.approx(knob.parsed)

    MALFORMED = [knob for knob in KNOBS if knob.malformed is not None]

    @pytest.mark.parametrize("knob", MALFORMED, ids=_ids(MALFORMED))
    def test_malformed_value_fails_fast_naming_the_variable(self, clean_env, knob):
        clean_env.setenv(knob.env, knob.malformed)
        with pytest.raises(EvaluationError, match=knob.env) as raised:
            knob.reader()
        assert repr(knob.malformed) in str(raised.value)

    FLOORED = [knob for knob in KNOBS if knob.below_floor is not None]

    @pytest.mark.parametrize("knob", FLOORED, ids=_ids(FLOORED))
    def test_value_below_the_floor_is_rejected(self, clean_env, knob):
        clean_env.setenv(knob.env, knob.below_floor)
        with pytest.raises(EvaluationError, match=f"{knob.env}.*>="):
            knob.reader()


#: A variable no knob reads, for driving the typed readers directly.
PROBE = "REPRO_READER_PROBE"


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.delenv(PROBE, raising=False)
    return monkeypatch


class TestTypedReaders:
    """The three readers every knob goes through, at their edges."""

    @pytest.mark.parametrize("raw,minimum,expected", [
        ("0", 0, 0), ("42", 0, 42), ("-3", -5, -3), ("5", 5, 5),
    ])
    def test_int_reader_accepts_values_at_or_above_its_minimum(
        self, probe, raw, minimum, expected
    ):
        probe.setenv(PROBE, raw)
        assert config.int_from_env(PROBE, 99, minimum=minimum) == expected

    @pytest.mark.parametrize("raw,minimum,message", [
        ("4", 5, "must be >= 5"),
        ("x", 0, "is not an integer"),
        ("1.5", 0, "is not an integer"),
    ])
    def test_int_reader_rejects_what_it_cannot_use(
        self, probe, raw, minimum, message
    ):
        probe.setenv(PROBE, raw)
        with pytest.raises(EvaluationError, match=message):
            config.int_from_env(PROBE, 0, minimum=minimum)

    @pytest.mark.parametrize("default", [False, True])
    def test_unset_toggle_reads_its_default(self, probe, default):
        assert config.bool_from_env(PROBE, default) is default

    @pytest.mark.parametrize("raw,expected", [
        ("0", False), ("1", True), ("7", True),
    ])
    def test_toggle_is_off_at_zero_and_on_above(self, probe, raw, expected):
        probe.setenv(PROBE, raw)
        assert config.bool_from_env(PROBE, not expected) is expected

    def test_negative_toggle_is_rejected(self, probe):
        probe.setenv(PROBE, "-1")
        with pytest.raises(EvaluationError, match=f"{PROBE}.*>= 0"):
            config.bool_from_env(PROBE, False)

    @pytest.mark.parametrize("raw,expected", [("0", 0.0), ("2.5", 2.5), ("3", 3.0)])
    def test_float_reader_parses_numbers(self, probe, raw, expected):
        probe.setenv(PROBE, raw)
        assert config.float_from_env(PROBE, 1.0) == pytest.approx(expected)

    @pytest.mark.parametrize("raw,message", [
        ("fast", "is not a number"), ("-0.1", "must be >= 0.0"),
    ])
    def test_float_reader_rejects_what_it_cannot_use(self, probe, raw, message):
        probe.setenv(PROBE, raw)
        with pytest.raises(EvaluationError, match=message):
            config.float_from_env(PROBE, 1.0)

    def test_sample_rate_above_one_is_rejected(self, clean_env):
        clean_env.setenv("REPRO_TRACE_SAMPLE", "1.5")
        with pytest.raises(EvaluationError, match=r"REPRO_TRACE_SAMPLE.*\[0, 1\]"):
            config.trace_sample_rate()


class TestKnobInventory:
    def test_documented_table_lists_exactly_the_knobs(self):
        text = (REPO_ROOT / "docs" / "distributed.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", text, re.MULTILINE))
        assert documented == KNOB_NAMES
        assert f"There are {len(KNOBS)}." in text

    def test_each_knob_is_read_in_exactly_one_function_of_config(self):
        readers = {}
        for path in sorted(SOURCE_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                            and re.fullmatch(r"REPRO_[A-Z_]+", node.value)):
                        readers.setdefault(node.value, set()).add(
                            (path.relative_to(SOURCE_ROOT).as_posix(), function.name)
                        )
        assert set(readers) == KNOB_NAMES
        by_reader = {knob.env: knob.reader.__name__ for knob in KNOBS}
        for name, sites in readers.items():
            assert sites == {("config.py", by_reader[name])}, name
