"""Churn workloads: peers joining and leaving under a live query stream.

The paper's motivating story (Section 1) is an *ad hoc* peer — the
Earthquake Command Center — joining a running PDMS and immediately
reaching every source through transitive mappings.  This module turns
that story into a reproducible workload: a base synthetic PDMS (from
:mod:`repro.workload.generator`) plus a pool of *satellite* peers that
join and leave while queries keep arriving.

Two satellite flavours mirror the two roles a newcomer can play:

* a **provider** brings data: its peer relation is declared contained in
  a base top-stratum relation (LAV-style), it stores tuples for it, and
  existing queries gain answers the moment it joins;
* a **consumer** is ECC-like: it defines its own relation over a base
  relation (GAV-style) and poses queries through it, transitively
  reaching all base sources.

:func:`generate_churn_scenario` produces a deterministic event stream
(``query`` / ``join`` / ``leave``) from a seed;
:meth:`ChurnScenario.replay` drives a
:class:`~repro.pdms.service.QueryService` through it, optionally
cross-checking every answer against a from-scratch
:func:`~repro.pdms.execution.answer_query` under the ``backtracking``
oracle — the scenario-level oracle
the service-layer benchmarks and property tests build on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..database.instance import Instance
from ..datalog.queries import ConjunctiveQuery
from ..pdms.execution import answer_query
from ..pdms.mappings import (
    DefinitionalMapping,
    InclusionMapping,
    StorageDescription,
    lav_style,
)
from ..pdms.peer import Peer
from ..pdms.service import QueryService
from ..pdms.system import PDMS
from .generator import (
    GeneratedWorkload,
    GeneratorParameters,
    _chain_query,
    generate_workload,
)
from .data import populate_workload

#: Key under which the base workload's data is registered with the service.
BASE_DATA_KEY = "__base__"


@dataclass(frozen=True)
class SatelliteSpec:
    """Everything needed to join one satellite peer (and leave again)."""

    peer_name: str
    #: ``"provider"`` or ``"consumer"``.
    role: str
    #: Qualified satellite peer relation.
    relation: str
    #: The base top-stratum relation the satellite is wired to.
    base_relation: str
    mapping: object
    #: Storage description + rows (providers only).
    description: Optional[StorageDescription] = None
    rows: Tuple[Tuple[object, ...], ...] = ()
    #: Query posed through the satellite (consumers only).
    query: Optional[ConjunctiveQuery] = None

    def instance(self) -> Optional[Instance]:
        """The satellite's stored data, if it brings any."""
        if self.description is None:
            return None
        instance = Instance()
        instance.add_all(self.description.relation, self.rows)
        return instance


@dataclass(frozen=True)
class ChurnEvent:
    """One step of a churn scenario."""

    kind: str  # "query" | "join" | "leave"
    query: Optional[ConjunctiveQuery] = None
    satellite: Optional[SatelliteSpec] = None


@dataclass(frozen=True)
class ChurnParameters:
    """Knobs of the churn-scenario generator."""

    #: Parameters of the base PDMS (kept small: churn scenarios re-answer
    #: every query many times).
    base: GeneratorParameters = field(
        default_factory=lambda: GeneratorParameters(num_peers=8, diameter=2, seed=0)
    )
    #: Satellite peers available to join/leave.
    num_satellites: int = 4
    #: Fraction of satellites that are data providers (the rest consume).
    provider_ratio: float = 0.75
    #: Total number of events in the stream.
    num_events: int = 40
    #: Distinct base queries in the pool (repeats exercise the cache).
    query_pool_size: int = 3
    #: Rows stored by each provider satellite / the base workload.
    rows_per_relation: int = 6
    #: Value domain for generated tuples (small keeps joins likely).
    domain_size: int = 4
    #: Random seed for the event stream (independent of ``base.seed``).
    seed: int = 0


@dataclass
class ChurnReport:
    """What one replay did and how the cache behaved."""

    queries: int = 0
    joins: int = 0
    leaves: int = 0
    answers_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    invalidations: int = 0
    verified: bool = False

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over the replayed query stream."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


@dataclass
class ChurnScenario:
    """A base workload plus a deterministic join/leave/query event stream."""

    base: GeneratedWorkload
    base_data: Instance
    satellites: Tuple[SatelliteSpec, ...]
    query_pool: Tuple[ConjunctiveQuery, ...]
    events: Tuple[ChurnEvent, ...]
    parameters: ChurnParameters

    def fresh_service(self, **service_kwargs) -> QueryService:
        """A service over a *fresh copy* of the base PDMS and its data."""
        workload = generate_workload(self.base.parameters)
        service = QueryService(workload.pdms, **service_kwargs)
        service.set_peer_data(BASE_DATA_KEY, self.base_data)
        return service

    def replay(
        self,
        service: Optional[QueryService] = None,
        verify: bool = False,
        limit: Optional[int] = None,
    ) -> ChurnReport:
        """Drive ``service`` through the event stream.

        With ``verify=True`` every query's answers are compared against a
        from-scratch :func:`answer_query` (the ``backtracking`` oracle) on
        the service's own (mutated) PDMS — the post-churn ground truth; an
        :class:`AssertionError` reports the first mismatch.

        Satellites still joined when the event stream ends are removed
        again afterwards (not counted as ``leaves``), so the service is
        back at its base catalogue and the same scenario can be replayed
        on it repeatedly to model sustained churn.
        """
        if service is None:
            service = self.fresh_service()
        report = ChurnReport()
        hits0, misses0 = service.stats.hits, service.stats.misses
        invalidations0 = service.stats.invalidations
        data: Dict[str, Instance] = {BASE_DATA_KEY: self.base_data}
        joined: List[SatelliteSpec] = []

        for event in self.events:
            if event.kind == "join":
                satellite = event.satellite
                peer = Peer(satellite.peer_name)
                peer.add_relation(
                    satellite.relation.partition(":")[2], ["a", "b"]
                )
                service.add_peer(peer)
                service.add_peer_mapping(satellite.mapping)
                if satellite.description is not None:
                    service.add_storage_description(satellite.description)
                    instance = satellite.instance()
                    service.set_peer_data(satellite.peer_name, instance)
                    data[satellite.peer_name] = instance
                joined.append(satellite)
                report.joins += 1
            elif event.kind == "leave":
                service.remove_peer(event.satellite.peer_name)
                data.pop(event.satellite.peer_name, None)
                joined = [s for s in joined if s.peer_name != event.satellite.peer_name]
                report.leaves += 1
            else:
                answers = service.answer(event.query, limit=limit)
                report.queries += 1
                report.answers_total += len(answers)
                if verify:
                    fresh = answer_query(
                        service.pdms, event.query, data, engine="backtracking"
                    )
                    if limit is None:
                        assert answers == fresh, (
                            f"service/fresh mismatch on {event.query}: "
                            f"{answers ^ fresh}"
                        )
                    else:
                        assert answers <= fresh and len(answers) == min(
                            limit, len(fresh)
                        ), f"limit={limit} answer not a subset on {event.query}"

        # Return to the base catalogue so the scenario is replayable.
        for satellite in joined:
            service.remove_peer(satellite.peer_name)
            data.pop(satellite.peer_name, None)

        report.cache_hits = service.stats.hits - hits0
        report.cache_misses = service.stats.misses - misses0
        report.invalidations = service.stats.invalidations - invalidations0
        report.verified = verify
        return report


def generate_churn_scenario(parameters: Optional[ChurnParameters] = None) -> ChurnScenario:
    """Generate one deterministic churn scenario from ``parameters``."""
    parameters = parameters if parameters is not None else ChurnParameters()
    rng = random.Random(parameters.seed)
    base = generate_workload(parameters.base)
    base_data = populate_workload(
        base,
        rows_per_relation=parameters.rows_per_relation,
        domain_size=parameters.domain_size,
    )
    top_stratum = base.strata[0]

    satellites: List[SatelliteSpec] = []
    for index in range(parameters.num_satellites):
        peer_name = f"SAT{index}"
        relation = f"{peer_name}:X{index}"
        base_relation = rng.choice(top_stratum)
        if rng.random() < parameters.provider_ratio:
            # Provider: SAT:X ⊆ base relation, with stored tuples behind it.
            mapping = lav_style(
                _chain_query(relation, [relation], rng, prefix="j").head,
                _chain_query("R", [base_relation], rng, prefix="k"),
                name=f"sat_incl_{index}",
            )
            stored_name = f"sat_store_{index}"
            description = StorageDescription(
                peer_name,
                stored_name,
                _chain_query(stored_name, [relation], rng, prefix="m"),
                exact=False,
                name=f"sat_desc_{index}",
            )
            rows = tuple(
                (
                    rng.randrange(parameters.domain_size),
                    rng.randrange(parameters.domain_size),
                )
                for _ in range(parameters.rows_per_relation)
            )
            satellites.append(SatelliteSpec(
                peer_name=peer_name,
                role="provider",
                relation=relation,
                base_relation=base_relation,
                mapping=mapping,
                description=description,
                rows=rows,
            ))
        else:
            # Consumer (ECC-style): SAT:X defined over a base relation and
            # queried through, transitively reaching the base sources.
            mapping = DefinitionalMapping(
                _chain_query(relation, [base_relation], rng, prefix="c"),
                name=f"sat_def_{index}",
            )
            satellites.append(SatelliteSpec(
                peer_name=peer_name,
                role="consumer",
                relation=relation,
                base_relation=base_relation,
                mapping=mapping,
                query=_chain_query("Q", [relation], rng, prefix="q"),
            ))

    query_pool: List[ConjunctiveQuery] = [base.query]
    for _ in range(max(0, parameters.query_pool_size - 1)):
        length = rng.randint(1, max(1, parameters.base.query_length))
        relations = [rng.choice(top_stratum) for _ in range(length)]
        query_pool.append(_chain_query("Q", relations, rng, prefix="q"))

    events: List[ChurnEvent] = []
    joined: List[SatelliteSpec] = []
    waiting = list(satellites)
    for _ in range(parameters.num_events):
        roll = rng.random()
        if roll < 0.25 and waiting:
            satellite = waiting.pop(rng.randrange(len(waiting)))
            joined.append(satellite)
            events.append(ChurnEvent(kind="join", satellite=satellite))
        elif roll < 0.40 and joined:
            satellite = joined.pop(rng.randrange(len(joined)))
            waiting.append(satellite)
            events.append(ChurnEvent(kind="leave", satellite=satellite))
        else:
            pool: List[ConjunctiveQuery] = list(query_pool)
            pool.extend(
                s.query for s in joined if s.role == "consumer" and s.query is not None
            )
            events.append(ChurnEvent(kind="query", query=rng.choice(pool)))

    return ChurnScenario(
        base=base,
        base_data=base_data,
        satellites=tuple(satellites),
        query_pool=tuple(query_pool),
        events=tuple(events),
        parameters=parameters,
    )
