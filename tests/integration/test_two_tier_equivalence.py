"""A PDMS restricted to two tiers must behave like classic data integration.

The paper: "A data integration system can be viewed as a special case of a
PDMS."  These tests build the same mediation scenario twice — once with the
classic GAV/LAV mediators of :mod:`tests.oracles`, once as a two-peer
PDMS — and check that query answers coincide.
"""

import pytest

from repro.datalog import evaluate_union, parse_atom, parse_query
from repro.integration import View
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    StorageDescription,
    answer_query,
    lav_style,
)
from tests.oracles import GAVMediator, LAVMediator


SOURCE_DATA = {
    "src_doctor": [("d1", "FH", "ICU"), ("d2", "LH", "ER")],
    "src_emt": [("e1", "FH"), ("e2", "LH")],
}


def _gav_pdms() -> PDMS:
    pdms = PDMS("gav-as-pdms")
    mediator = pdms.add_peer("M")
    mediator.add_relation("Person", ["pid", "role"])
    source = pdms.add_peer("S")
    source.add_relation("Doctor", ["pid", "hosp", "loc"])
    source.add_relation("EMT", ["pid", "hosp"])
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query('M:Person(p, "Doctor") :- S:Doctor(p, h, l)')))
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query('M:Person(p, "EMT") :- S:EMT(p, h)')))
    pdms.add_storage_description(StorageDescription(
        "S", "src_doctor", parse_query("V(p, h, l) :- S:Doctor(p, h, l)")))
    pdms.add_storage_description(StorageDescription(
        "S", "src_emt", parse_query("V(p, h) :- S:EMT(p, h)")))
    return pdms


class TestGAVEquivalence:
    def test_same_answers_as_classic_gav_mediator(self):
        # Classic two-tier GAV: mediated Person defined over the source relations,
        # where the source relations *are* the stored data.
        mediator = GAVMediator([
            View(parse_query('Person(p, "Doctor") :- src_doctor(p, h, l)')),
            View(parse_query('Person(p, "EMT") :- src_emt(p, h)')),
        ])
        query = parse_query('Q(p, r) :- Person(p, r)')
        classic = evaluate_union(mediator.unfold(query), SOURCE_DATA)

        pdms_answers = answer_query(
            _gav_pdms(), parse_query("Q(p, r) :- M:Person(p, r)"), SOURCE_DATA)
        assert classic == pdms_answers == {
            ("d1", "Doctor"), ("d2", "Doctor"), ("e1", "EMT"), ("e2", "EMT")}

    def test_selection_query(self):
        pdms_answers = answer_query(
            _gav_pdms(), parse_query('Q(p) :- M:Person(p, "EMT")'), SOURCE_DATA)
        assert pdms_answers == {("e1",), ("e2",)}


def _lav_pdms() -> PDMS:
    pdms = PDMS("lav-as-pdms")
    mediator = pdms.add_peer("M")
    mediator.add_relation("CritBed", ["bed", "hosp", "room"])
    mediator.add_relation("Patient", ["pid", "bed", "status"])
    source = pdms.add_peer("LH")
    source.add_relation("CritBed", ["bed", "room", "pid", "status"])
    pdms.add_peer_mapping(lav_style(
        parse_atom("LH:CritBed(bed, room, pid, status)"),
        parse_query("R(bed, room, pid, status) :- M:CritBed(bed, h, room), "
                    "M:Patient(pid, bed, status)")))
    pdms.add_storage_description(StorageDescription(
        "LH", "lh_crit", parse_query("V(b, r, p, s) :- LH:CritBed(b, r, p, s)")))
    return pdms


LAV_DATA = {"lh_crit": [("bed20", "icu", "p9", "critical"), ("bed21", "icu", "p10", "stable")]}


class TestLAVEquivalence:
    def test_same_answers_as_classic_lav_mediator(self):
        # Classic two-tier LAV: the stored relation described as a view over
        # the mediated schema (Example 2.2 of the paper).
        mediator = LAVMediator([
            View(parse_query("lh_crit(bed, room, pid, status) :- CritBed(bed, h, room), "
                             "Patient(pid, bed, status)")),
        ])
        query = parse_query("Q(pid, bed) :- CritBed(bed, h, room), Patient(pid, bed, status)")
        classic = mediator.answer(query, LAV_DATA)
        assert classic == mediator.certain_answers(query, LAV_DATA)

        pdms_answers = answer_query(
            _lav_pdms(),
            parse_query("Q(pid, bed) :- M:CritBed(bed, h, room), M:Patient(pid, bed, status)"),
            LAV_DATA)
        assert pdms_answers == classic == {("p9", "bed20"), ("p10", "bed21")}

    def test_query_on_projected_attribute_has_no_certain_answer(self):
        # The hospital attribute of M:CritBed is projected away by the view,
        # so no binding for it is certain.
        query = parse_query("Q(h) :- M:CritBed(bed, h, room)")
        assert answer_query(_lav_pdms(), query, LAV_DATA) == set()
