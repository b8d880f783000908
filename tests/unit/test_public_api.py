"""Tests for the public API surface and the error hierarchy.

A downstream user's first contact with the library is ``import repro`` and
the names re-exported from the package roots; these tests pin that surface
so refactorings cannot silently break it.
"""

import pytest

import repro
import repro.datalog as datalog
import repro.database as database
import repro.integration as integration
import repro.pdms as pdms
import repro.workload as workload
from repro.errors import (
    EvaluationError,
    MalformedQueryError,
    MappingError,
    ParseError,
    PDMSConfigurationError,
    ReformulationError,
    ReproError,
    SchemaError,
    UnsatisfiableConstraintError,
)


class TestPackageExports:
    @pytest.mark.parametrize("module", [repro, datalog, database, integration, pdms, workload])
    def test_all_names_resolve(self, module):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name} missing"

    def test_lazy_pdms_exports_from_top_level(self):
        assert repro.PDMS is pdms.PDMS
        assert repro.Peer is pdms.Peer

    def test_unknown_top_level_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_symbol  # noqa: B018

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_parse_query_reachable_from_top_level(self):
        query = repro.parse_query("Q(x) :- R(x, y)")
        assert isinstance(query, repro.ConjunctiveQuery)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exception_type", [
        ParseError,
        MalformedQueryError,
        SchemaError,
        MappingError,
        PDMSConfigurationError,
        ReformulationError,
        EvaluationError,
        UnsatisfiableConstraintError,
    ])
    def test_every_error_derives_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_parse_error_carries_position(self):
        error = ParseError("boom", text="Q(x ...", position=3)
        assert "position 3" in str(error)

    def test_catching_the_base_class_is_enough(self):
        with pytest.raises(ReproError):
            repro.parse_query("this is not a query")
        with pytest.raises(ReproError):
            repro.RelationSchema("R", ["a", "a"])


class TestDocstrings:
    @pytest.mark.parametrize("module", [repro, datalog, database, integration, pdms, workload])
    def test_packages_have_docstrings(self, module):
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    @pytest.mark.parametrize("obj", [
        pdms.PDMS, pdms.Peer, pdms.StorageDescription, pdms.InclusionMapping,
        pdms.EqualityMapping, pdms.DefinitionalMapping, pdms.reformulate,
        pdms.certain_answers, pdms.analyze_pdms,
        datalog.ConjunctiveQuery, datalog.parse_query, datalog.evaluate_query,
        integration.form_mcds, integration.PreparedView,
        database.Instance, database.CardinalityCostModel,
        workload.GeneratorParameters, workload.generate_workload,
        workload.build_emergency_services,
    ])
    def test_public_objects_have_docstrings(self, obj):
        assert obj.__doc__ and len(obj.__doc__.strip()) > 10
