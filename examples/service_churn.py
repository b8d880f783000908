#!/usr/bin/env python3
"""The service layer in action: cached queries under ECC-style churn.

Walks the paper's Figure-1 story through ``QueryService``: the
emergency-services PDMS serves a stream of repeated queries from its
reformulation cache; the Earthquake Command Center joins ad hoc (evicting
*nothing*, because no cached rule-goal tree touched ECC predicates),
immediately answers queries through transitive mappings, and leaves again
(evicting only the two ECC-dependent entries).  When it comes back, the
catalogue is the one those two entries were built for: they are revived,
compiled plans and all, with no reformulation.  A synthetic churn
scenario then shows the same machinery under sustained join/leave load.

Run it with::

    python examples/service_churn.py
"""

from repro.pdms import QueryService, answer_query
from repro.workload import (
    ChurnParameters,
    add_earthquake_command_center,
    build_emergency_services,
    example_queries,
    generate_churn_scenario,
    sample_instance,
)


def emergency_story() -> None:
    pdms = build_emergency_services(include_ecc=False)
    service = QueryService(pdms, data=sample_instance())
    queries = example_queries()

    print("=== before the earthquake: warm the cache")
    for name in ("skilled_doctors", "skilled_people", "critical_beds", "doctor_hours"):
        answers = service.answer(queries[name])
        print(f"  {name:24s} {len(answers)} answers")
    repeat = service.answer(queries["skilled_doctors"])
    print(f"  repeated skilled_doctors -> {sorted(repeat)}  "
          f"(hits={service.stats.hits}, misses={service.stats.misses})")

    print("\n=== the ECC joins ad hoc")
    kept_before = service.cache_size
    add_earthquake_command_center(pdms)  # mutate the PDMS directly...
    for name in ("ecc_vehicles", "ecc_medical_responders"):
        answers = service.answer(queries[name])  # ...the service picks it up
        print(f"  {name:24s} {len(answers)} answers via transitive mappings")
    print(f"  cache entries kept across the join: {kept_before}/{kept_before} "
          f"(invalidations={service.stats.invalidations})")

    print("\n=== the ECC leaves again")
    service.remove_peer("ECC")
    survivors = service.cache_size
    answers = service.answer(queries["skilled_doctors"])
    fresh = answer_query(pdms, queries["skilled_doctors"], sample_instance())
    assert answers == fresh
    print(f"  surviving entries: {survivors} "
          f"(total invalidations={service.stats.invalidations})")
    print(f"  skilled_doctors still matches a from-scratch reformulation: "
          f"{sorted(answers)}")

    print("\n=== the ECC comes back")
    compiled = service.stats.plans_compiled
    add_earthquake_command_center(pdms)
    for name in ("ecc_vehicles", "ecc_medical_responders"):
        answers = service.answer(queries[name])
        assert answers == answer_query(pdms, queries[name], sample_instance())
        print(f"  {name:24s} {len(answers)} answers, matching a from-scratch reformulation")
    revived = service.metrics_snapshot()["counters"].get("reformulation.revived", 0)
    compiled = service.stats.plans_compiled - compiled
    assert (revived, compiled) == (2, 0)
    print(f"  reformulations revived: {revived}, plans compiled: {compiled}")

    print("\n=== first-k streaming")
    first_two = service.answer(queries["skilled_people"], limit=2)
    print(f"  skilled_people limit=2 -> {sorted(first_two)} "
          f"(subset of the {len(service.answer(queries['skilled_people']))}-row answer)")


def synthetic_churn() -> None:
    print("\n=== synthetic churn: satellites joining/leaving under a query stream")
    scenario = generate_churn_scenario(ChurnParameters(seed=0))
    report = scenario.replay(verify=True)
    print(f"  {len(scenario.events)} events: {report.queries} queries, "
          f"{report.joins} joins, {report.leaves} leaves")
    print(f"  cache hit rate {report.hit_rate:.0%}, "
          f"{report.invalidations} provenance-targeted invalidations")
    print("  every answer verified against a from-scratch reformulation ✓")


if __name__ == "__main__":
    emergency_story()
    synthetic_churn()
