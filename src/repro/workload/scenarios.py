"""The emergency-services PDMS of Figure 1, as a ready-made scenario.

The paper's running example is a PDMS coordinating emergency response at
the Oregon–Washington border: hospitals (First Hospital, Lakeview
Hospital) and fire districts (Portland, Vancouver) publish stored
relations; the Hospitals (H) and Fire Services (FS) peers mediate them;
the 911 Dispatch Center (9DC) unifies everything; and after an earthquake
an Earthquake Command Center (ECC) joins ad hoc and immediately reaches
all existing sources through transitive mappings.

:func:`build_emergency_services` constructs that PDMS with the schemas of
Figure 1, the GAV- and LAV-style mappings of Example 2.2, the storage
descriptions of Example 2.3, and the replication equality of Section 3
(``ECC:Vehicle = 9DC:Vehicle``).  :func:`sample_instance` returns a small
but non-trivial data set for the stored relations, and
:func:`example_queries` a handful of queries used by the examples and the
integration tests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..database.instance import Instance
from ..datalog.parser import parse_atom, parse_query
from ..datalog.queries import ConjunctiveQuery
from ..pdms.mappings import (
    DefinitionalMapping,
    EqualityMapping,
    InclusionMapping,
    StorageDescription,
    lav_style,
    replication,
)
from ..pdms.peer import Peer
from ..pdms.system import PDMS


def build_emergency_services(include_ecc: bool = True) -> PDMS:
    """Build the Figure-1 emergency-services PDMS.

    Parameters
    ----------
    include_ecc:
        Whether the Earthquake Command Center (the "ad hoc addition to the
        system") has already joined.  Examples use ``False`` first and then
        add it, mirroring the paper's narrative.
    """
    pdms = PDMS("emergency-services")

    # -- peers and their schemas (Figure 1) -------------------------------------

    ninedc = pdms.add_peer(Peer("9DC"))
    ninedc.add_relation("SkilledPerson", ["PID", "skill"])
    ninedc.add_relation("Located", ["PID", "where"])
    ninedc.add_relation("Hours", ["PID", "start", "stop"])
    ninedc.add_relation("TreatedVictim", ["PID", "BID", "state"])
    ninedc.add_relation("UntreatedVictim", ["loc", "state"])
    ninedc.add_relation("Vehicle", ["VID", "type", "capac", "GPS", "dest"])
    ninedc.add_relation("Bed", ["BID", "loc", "class"])
    ninedc.add_relation("Site", ["GPS", "status"])

    hospitals = pdms.add_peer(Peer("H"))
    hospitals.add_relation("Worker", ["SID", "first", "last"])
    hospitals.add_relation("Ambulance", ["VID", "hosp", "GPS", "dest"])
    hospitals.add_relation("EMT", ["SID", "hosp", "VID", "start", "end"])
    hospitals.add_relation("Doctor", ["SID", "hosp", "loc", "start", "end"])
    hospitals.add_relation("EmergBed", ["bed", "hosp", "room"])
    hospitals.add_relation("CritBed", ["bed", "hosp", "room"])
    hospitals.add_relation("GenBed", ["bed", "hosp", "room"])
    hospitals.add_relation("Patient", ["PID", "bed", "status"])

    fire = pdms.add_peer(Peer("FS"))
    fire.add_relation("Engine", ["VID", "cap", "status", "station", "loc", "dest"])
    fire.add_relation("FirstResponse", ["VID", "station", "loc", "dest"])
    fire.add_relation("Skills", ["SID", "skill"])
    fire.add_relation("Firefighter", ["SID", "station", "first", "last"])
    fire.add_relation("Schedule", ["SID", "VID", "start", "stop"])

    first_hospital = pdms.add_peer(Peer("FH"))
    first_hospital.add_relation("Ambulance", ["VID", "GPS", "dest"])
    first_hospital.add_relation("Staff", ["SID", "firstn", "lastn", "start", "end"])
    first_hospital.add_relation("EMT", ["SID", "VID"])
    first_hospital.add_relation("Doctor", ["SID", "loc"])
    first_hospital.add_relation("Bed", ["bed", "room", "class"])
    first_hospital.add_relation("Patient", ["PID", "bed", "status"])

    lakeview = pdms.add_peer(Peer("LH"))
    lakeview.add_relation("Ambulance", ["VID", "GPS", "dest"])
    lakeview.add_relation("InAmbulance", ["SID", "VID"])
    lakeview.add_relation("Staff", ["SID", "firstn", "lastn", "class"])
    lakeview.add_relation("Schedule", ["SID", "start", "end"])
    lakeview.add_relation("EmergBed", ["bed", "room", "PID", "status"])
    lakeview.add_relation("CritBed", ["bed", "room", "PID", "status"])
    lakeview.add_relation("GenBed", ["bed", "room", "PID", "status"])

    portland = pdms.add_peer(Peer("PFD"))
    portland.add_relation("Engine", ["VID", "cap", "status", "station", "loc", "dest"])
    portland.add_relation("Firefighter", ["SID", "station", "first", "last"])
    portland.add_relation("Skills", ["SID", "skill"])
    portland.add_relation("Schedule", ["SID", "VID", "start", "stop"])

    vancouver = pdms.add_peer(Peer("VFD"))
    vancouver.add_relation("Engine", ["VID", "cap", "status", "station", "loc", "dest"])
    vancouver.add_relation("Firefighter", ["SID", "station", "first", "last"])
    vancouver.add_relation("Skills", ["SID", "skill"])
    vancouver.add_relation("Schedule", ["SID", "VID", "start", "stop"])

    # -- 9DC mediates H and FS (Example 2.2, GAV-style definitional mappings) ---

    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:SkilledPerson(sid, "Doctor") :- H:Doctor(sid, h, l, s, e)'),
        name="9dc_skilled_doctor"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:SkilledPerson(sid, "EMT") :- H:EMT(sid, h, vid, s, e)'),
        name="9dc_skilled_hospital_emt"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:SkilledPerson(sid, "EMT") :- FS:Schedule(sid, vid, st, en), '
        'FS:FirstResponse(vid, s, l, d), FS:Skills(sid, "medical")'),
        name="9dc_skilled_fire_emt"))

    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Vehicle(vid, "ambulance", 4, gps, dest) :- H:Ambulance(vid, h, gps, dest)'),
        name="9dc_vehicle_ambulance"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Vehicle(vid, "engine", cap, loc, dest) :- '
        'FS:Engine(vid, cap, status, station, loc, dest)'),
        name="9dc_vehicle_engine"))

    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Bed(bid, hosp, "critical") :- H:CritBed(bid, hosp, room)'),
        name="9dc_bed_critical"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Bed(bid, hosp, "emergency") :- H:EmergBed(bid, hosp, room)'),
        name="9dc_bed_emergency"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Bed(bid, hosp, "general") :- H:GenBed(bid, hosp, room)'),
        name="9dc_bed_general"))

    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Located(sid, loc) :- H:Doctor(sid, h, loc, s, e)'),
        name="9dc_located_doctor"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Hours(sid, s, e) :- H:Doctor(sid, h, l, s, e)'),
        name="9dc_hours_doctor"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        '9DC:Hours(sid, s, e) :- FS:Schedule(sid, vid, s, e)'),
        name="9dc_hours_fire"))

    # -- Lakeview Hospital described as views over H (Example 2.2, LAV-style) ---

    pdms.add_peer_mapping(lav_style(
        parse_atom('LH:CritBed(bed, room, pid, status)'),
        parse_query('R(bed, room, pid, status) :- H:CritBed(bed, h, room), '
                    'H:Patient(pid, bed, status)'),
        name="lh_critbed"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('LH:EmergBed(bed, room, pid, status)'),
        parse_query('R(bed, room, pid, status) :- H:EmergBed(bed, h, room), '
                    'H:Patient(pid, bed, status)'),
        name="lh_emergbed"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('LH:GenBed(bed, room, pid, status)'),
        parse_query('R(bed, room, pid, status) :- H:GenBed(bed, h, room), '
                    'H:Patient(pid, bed, status)'),
        name="lh_genbed"))
    # Lakeview's staff roster (which also records a job class) is contained,
    # once the class is projected away, in the hospitals' worker registry —
    # a non-atomic left-hand side, exercising the synthetic-predicate path
    # of the Step-1 normalisation.
    pdms.add_peer_mapping(InclusionMapping(
        parse_query('L(sid, first, last) :- LH:Staff(sid, first, last, class)'),
        parse_query('R(sid, first, last) :- H:Worker(sid, first, last)'),
        name="lh_staff"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('LH:Ambulance(vid, gps, dest)'),
        parse_query('R(vid, gps, dest) :- H:Ambulance(vid, h, gps, dest)'),
        name="lh_ambulance"))

    # -- First Hospital described as views over H (LAV-style) --------------------

    pdms.add_peer_mapping(lav_style(
        parse_atom('FH:Doctor(sid, loc)'),
        parse_query('R(sid, loc) :- H:Doctor(sid, h, loc, s, e)'),
        name="fh_doctor"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('FH:EMT(sid, vid)'),
        parse_query('R(sid, vid) :- H:EMT(sid, h, vid, s, e)'),
        name="fh_emt"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('FH:Staff(sid, first, last, s, e)'),
        parse_query('R(sid, first, last, s, e) :- H:Worker(sid, first, last), '
                    'H:Doctor(sid, h, l, s, e)'),
        name="fh_staff"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('FH:Patient(pid, bed, status)'),
        parse_query('R(pid, bed, status) :- H:Patient(pid, bed, status)'),
        name="fh_patient"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('FH:Ambulance(vid, gps, dest)'),
        parse_query('R(vid, gps, dest) :- H:Ambulance(vid, h, gps, dest)'),
        name="fh_ambulance"))
    pdms.add_peer_mapping(lav_style(
        parse_atom('FH:Bed(bed, room, "critical")'),
        parse_query('R(bed, room, "critical") :- H:CritBed(bed, h, room)'),
        name="fh_bed_critical"))

    # -- Fire districts described as views over FS -------------------------------

    for district, name_prefix in (("PFD", "pfd"), ("VFD", "vfd")):
        pdms.add_peer_mapping(lav_style(
            parse_atom(f'{district}:Engine(vid, cap, status, station, loc, dest)'),
            parse_query('R(vid, cap, status, station, loc, dest) :- '
                        'FS:Engine(vid, cap, status, station, loc, dest)'),
            name=f"{name_prefix}_engine"))
        pdms.add_peer_mapping(lav_style(
            parse_atom(f'{district}:Firefighter(sid, station, first, last)'),
            parse_query('R(sid, station, first, last) :- '
                        'FS:Firefighter(sid, station, first, last)'),
            name=f"{name_prefix}_firefighter"))
        pdms.add_peer_mapping(lav_style(
            parse_atom(f'{district}:Skills(sid, skill)'),
            parse_query('R(sid, skill) :- FS:Skills(sid, skill)'),
            name=f"{name_prefix}_skills"))
        pdms.add_peer_mapping(lav_style(
            parse_atom(f'{district}:Schedule(sid, vid, start, stop)'),
            parse_query('R(sid, vid, start, stop) :- FS:Schedule(sid, vid, start, stop)'),
            name=f"{name_prefix}_schedule"))

    # -- storage descriptions ------------------------------------------------------

    # Example 2.3: First Hospital's stored doctor and schedule relations.
    pdms.add_storage_description(StorageDescription(
        "FH", "doc",
        parse_query('V(sid, last, loc) :- FH:Staff(sid, f, last, s, e), FH:Doctor(sid, loc)'),
        exact=False, name="fh_store_doc"))
    pdms.add_storage_description(StorageDescription(
        "FH", "sched",
        parse_query('V(sid, s, e) :- FH:Staff(sid, f, last, s, e), FH:Doctor(sid, loc)'),
        exact=False, name="fh_store_sched"))
    pdms.add_storage_description(StorageDescription(
        "FH", "fh_patients",
        parse_query('V(pid, bed, status) :- FH:Patient(pid, bed, status)'),
        exact=False, name="fh_store_patients"))
    pdms.add_storage_description(StorageDescription(
        "FH", "fh_ambulances",
        parse_query('V(vid, gps, dest) :- FH:Ambulance(vid, gps, dest)'),
        exact=False, name="fh_store_ambulances"))
    pdms.add_storage_description(StorageDescription(
        "FH", "fh_emts",
        parse_query('V(sid, vid) :- FH:EMT(sid, vid)'),
        exact=False, name="fh_store_emts"))

    # Lakeview Hospital stores its bed boards and staff roster.
    pdms.add_storage_description(StorageDescription(
        "LH", "lh_critical",
        parse_query('V(bed, room, pid, status) :- LH:CritBed(bed, room, pid, status)'),
        exact=False, name="lh_store_critical"))
    pdms.add_storage_description(StorageDescription(
        "LH", "lh_emergency",
        parse_query('V(bed, room, pid, status) :- LH:EmergBed(bed, room, pid, status)'),
        exact=False, name="lh_store_emergency"))
    pdms.add_storage_description(StorageDescription(
        "LH", "lh_staff",
        parse_query('V(sid, first, last, class) :- LH:Staff(sid, first, last, class)'),
        exact=False, name="lh_store_staff"))

    # Fire stations store engine and roster data for their districts.
    pdms.add_storage_description(StorageDescription(
        "PFD", "station12_engines",
        parse_query('V(vid, cap, status, loc, dest) :- '
                    'PFD:Engine(vid, cap, status, "station12", loc, dest)'),
        exact=False, name="pfd_store_station12_engines"))
    pdms.add_storage_description(StorageDescription(
        "PFD", "station12_roster",
        parse_query('V(sid, first, last) :- PFD:Firefighter(sid, "station12", first, last)'),
        exact=False, name="pfd_store_station12_roster"))
    pdms.add_storage_description(StorageDescription(
        "PFD", "station12_skills",
        parse_query('V(sid, skill) :- PFD:Skills(sid, skill)'),
        exact=False, name="pfd_store_station12_skills"))
    pdms.add_storage_description(StorageDescription(
        "PFD", "station12_schedule",
        parse_query('V(sid, vid, start, stop) :- PFD:Schedule(sid, vid, start, stop)'),
        exact=False, name="pfd_store_station12_schedule"))
    pdms.add_storage_description(StorageDescription(
        "VFD", "station3_engines",
        parse_query('V(vid, cap, status, loc, dest) :- '
                    'VFD:Engine(vid, cap, status, "station3", loc, dest)'),
        exact=False, name="vfd_store_station3_engines"))
    pdms.add_storage_description(StorageDescription(
        "VFD", "station3_skills",
        parse_query('V(sid, skill) :- VFD:Skills(sid, skill)'),
        exact=False, name="vfd_store_station3_skills"))
    pdms.add_storage_description(StorageDescription(
        "VFD", "station3_schedule",
        parse_query('V(sid, vid, start, stop) :- VFD:Schedule(sid, vid, start, stop)'),
        exact=False, name="vfd_store_station3_schedule"))
    pdms.add_storage_description(StorageDescription(
        "VFD", "station3_first_response",
        parse_query('V(vid, loc, dest) :- FS:FirstResponse(vid, "station3", loc, dest)'),
        exact=False, name="vfd_store_station3_first_response"))

    # -- the ad hoc Earthquake Command Center ---------------------------------------

    if include_ecc:
        add_earthquake_command_center(pdms)

    return pdms


def add_earthquake_command_center(pdms: PDMS) -> Peer:
    """Add the ECC peer and its mappings to an existing emergency-services PDMS.

    Mirrors the paper's narrative: once mappings between the ECC and the
    existing 911 Dispatch Center are provided, queries over either peer can
    use all source relations.  Includes the Section-3 replication equality
    ``ECC:Vehicle = 9DC:Vehicle``.
    """
    ecc = pdms.add_peer(Peer("ECC"))
    ecc.add_relation("TreatedVictim", ["PID", "BID", "state"])
    ecc.add_relation("UntreatedVictim", ["loc", "state"])
    ecc.add_relation("Vehicle", ["VID", "type", "capac", "GPS", "dest"])
    ecc.add_relation("Bed", ["BID", "loc", "class"])
    ecc.add_relation("Site", ["GPS", "status"])
    ecc.add_relation("Responder", ["PID", "skill"])

    # Data replication (Section 3): projection-free equality, hence a cycle
    # that stays within the tractable fragment of Theorem 3.2.
    pdms.add_peer_mapping(replication(
        parse_atom('ECC:Vehicle(vid, t, c, g, d)'),
        parse_atom('9DC:Vehicle(vid, t, c, g, d)'),
        name="ecc_vehicle_replication"))

    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        'ECC:Bed(bid, loc, class) :- 9DC:Bed(bid, loc, class)'),
        name="ecc_bed"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        'ECC:Responder(pid, skill) :- 9DC:SkilledPerson(pid, skill)'),
        name="ecc_responder"))
    pdms.add_peer_mapping(DefinitionalMapping(parse_query(
        'ECC:Site(gps, status) :- 9DC:Site(gps, status)'),
        name="ecc_site"))
    return ecc


def sample_instance() -> Instance:
    """A small but non-trivial data set for the scenario's stored relations."""
    instance = Instance()
    instance.add_all("doc", [
        ("d1", "Nguyen", "ICU"),
        ("d2", "Okafor", "ER"),
        ("d3", "Silva", "Ward3"),
    ])
    instance.add_all("sched", [
        ("d1", 8, 16),
        ("d2", 16, 24),
        ("d3", 8, 12),
    ])
    instance.add_all("fh_patients", [
        ("p1", "bed10", "stable"),
        ("p2", "bed11", "critical"),
    ])
    instance.add_all("fh_ambulances", [
        ("amb1", "45.52,-122.68", "FH"),
        ("amb2", "45.60,-122.60", "LH"),
    ])
    instance.add_all("fh_emts", [
        ("e1", "amb1"),
        ("e2", "amb2"),
    ])
    instance.add_all("lh_critical", [
        ("bed20", "icu-2", "p9", "critical"),
        ("bed21", "icu-2", "p10", "guarded"),
    ])
    instance.add_all("lh_emergency", [
        ("bed30", "er-1", "p11", "stable"),
    ])
    instance.add_all("lh_staff", [
        ("n1", "Asha", "Patel", "nurse"),
        ("d4", "Liu", "Chen", "doctor"),
    ])
    instance.add_all("station12_engines", [
        ("eng12", 6, "ready", "45.51,-122.66", "downtown"),
        ("eng13", 4, "out", "45.53,-122.70", "bridge"),
    ])
    instance.add_all("station12_roster", [
        ("f1", "Jo", "Kim"),
        ("f2", "Max", "Rossi"),
    ])
    instance.add_all("station12_skills", [
        ("f1", "medical"),
        ("f2", "ladder"),
    ])
    instance.add_all("station12_schedule", [
        ("f1", "eng12", 8, 20),
        ("f2", "eng13", 20, 8),
    ])
    instance.add_all("station3_engines", [
        ("eng31", 6, "ready", "45.63,-122.67", "harbor"),
    ])
    instance.add_all("station3_skills", [
        ("f7", "medical"),
        ("f8", "rescue"),
    ])
    instance.add_all("station3_schedule", [
        ("f7", "eng31", 8, 20),
    ])
    instance.add_all("station3_first_response", [
        ("eng31", "45.63,-122.67", "harbor"),
    ])
    return instance


#: Which scenario peer owns each stored relation of :func:`sample_instance`
#: (derivable from the storage descriptions; spelled out for the per-peer
#: splitters below).
SAMPLE_RELATION_OWNERS: Dict[str, str] = {
    "doc": "FH", "sched": "FH", "fh_patients": "FH",
    "fh_ambulances": "FH", "fh_emts": "FH",
    "lh_critical": "LH", "lh_emergency": "LH", "lh_staff": "LH",
    "station12_engines": "PFD", "station12_roster": "PFD",
    "station12_skills": "PFD", "station12_schedule": "PFD",
    "station3_engines": "VFD", "station3_skills": "VFD",
    "station3_schedule": "VFD", "station3_first_response": "VFD",
}


def sample_peer_instances() -> Dict[str, Instance]:
    """The :func:`sample_instance` rows split per owning peer.

    The natural shape for the distributed runtime: four data-bearing
    peers (FH, LH, PFD, VFD), each holding exactly the stored relations
    its storage descriptions declare — ready to hand to a
    :class:`~repro.pdms.distributed.transport.LoopbackTransport` or an
    :class:`~repro.pdms.distributed.async_transport.AsyncSocketTransport`.
    """
    combined = sample_instance()
    per_peer: Dict[str, Instance] = {}
    for relation in combined.relations():
        owner = SAMPLE_RELATION_OWNERS[relation]
        per_peer.setdefault(owner, Instance()).add_all(
            relation, combined.get_tuples(relation)
        )
    return per_peer


def example_queries() -> Dict[str, ConjunctiveQuery]:
    """Representative queries over different peers of the scenario."""
    return {
        # Who can act as a doctor anywhere in the system? (posed at 9DC)
        "skilled_doctors": parse_query(
            'Q(pid) :- 9DC:SkilledPerson(pid, "Doctor")'),
        # All skilled people with their skill.
        "skilled_people": parse_query(
            'Q(pid, skill) :- 9DC:SkilledPerson(pid, skill)'),
        # Critical beds known to the dispatch center.
        "critical_beds": parse_query(
            'Q(bid, loc) :- 9DC:Bed(bid, loc, "critical")'),
        # Vehicles visible from the Earthquake Command Center (via replication).
        "ecc_vehicles": parse_query(
            'Q(vid, type, gps) :- ECC:Vehicle(vid, type, c, gps, dest)'),
        # Responders the ECC can call on, chained through 9DC and H/FS.
        "ecc_medical_responders": parse_query(
            'Q(pid) :- ECC:Responder(pid, "EMT")'),
        # Doctors and the hours they work (joins two 9DC relations).
        "doctor_hours": parse_query(
            'Q(pid, s, e) :- 9DC:SkilledPerson(pid, "Doctor"), 9DC:Hours(pid, s, e)'),
    }
