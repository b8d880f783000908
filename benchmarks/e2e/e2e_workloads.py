"""The four workloads and the untraced run that measures them.

One closed-loop client: every op is a single public call, timed with
``time.perf_counter()``, and the next op starts when the previous one
returned.  Answers are compared with references outside the timers.

Each workload runs only the phases its spec lists:

``reformulate``  pure ``reformulate()`` + ``first_rewritings`` (no data)
``cold``         first answer of each query on a fresh deployment
``reads``        warm answers, nothing else going on
``tight``        warm answers under a quarter of the measured working set
``stream``       seeded laps of reads, writes, peer churn and cold scans

The first four make a *cycle* that is repeated; repeating whole cycles
(and whole laps) puts seconds between the repeats of one op, so a slow
spell of the host does not fall on every timing of one op.
"""

from __future__ import annotations

import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.pdms import reformulate

import e2e_fixtures as fx
from e2e_stats import UnsupportedStatistic, median_over_ops, p95

#: ``first_rewritings`` cap for "all rewritings": uncapped enumeration
#: ranges from 4 ms to 76 s across the paper's generator seeds.
REWRITING_CAP = 1000
#: The fixture is built this many times; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Seconds the calibration loop takes on the recording host when quiet.
REFERENCE_SPIN = 0.375e-3
#: Share of the warm working set the ``tight`` phase may cache.
TIGHT_SHARE = 4


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: The paper's 30 PDMSs instead of the one the data workloads share.
    paper: bool
    cluster: bool
    rows: int
    domain: int
    phases: Tuple[str, ...]
    #: Warm-read rounds per cycle.
    reads_per_cycle: int = 1
    #: Steps per query in one stream lap: plain reads, write+read pairs,
    #: churn-event+read pairs (each event toggles the query's satellite);
    #: then this many rounds of drop-scans+read pairs.
    lap: Mapping[str, int] = field(default_factory=dict)
    #: A stream read is checked against a from-scratch reference this
    #: often: several checkpoints in every run.
    check_every: int = 100

    @property
    def has_deployments(self) -> bool:
        return self.phases != ("reformulate",)


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="paper_reformulate",
        why="the paper's Section-5 experiment: 30 generated 96-peer PDMSs, "
            "diameters 4-6, reformulation only; planning, kernel, cache and "
            "wire changes must predict no change",
        paper=True, cluster=False, rows=10, domain=8,
        phases=("reformulate",),
    ),
    WorkloadSpec(
        name="query_mix",
        why="one query mix repeated on an in-process service: cold answers, "
            "warm reads whose working set fits the fragment cache, and the "
            "same reads under a quarter of it",
        paper=False, cluster=False, rows=100, domain=80,
        phases=("cold", "reads", "tight"), reads_per_cycle=3,
    ),
    WorkloadSpec(
        name="churn",
        why="reads interleaved with writes and peer joins/leaves: the same "
            "two caches used for invalidation and re-admission instead of "
            "hits, so a warm gain bought with costlier invalidation shows",
        paper=False, cluster=False, rows=100, domain=80,
        phases=("stream",), lap={"read": 6, "write": 1, "churn": 2},
    ),
    WorkloadSpec(
        name="cluster_socket",
        why="the same PDMS behind real TCP sockets with 10x the rows: the "
            "only workload where the remote source, the async transport "
            "and the wire codec do work",
        paper=False, cluster=True, rows=1000, domain=4000,
        phases=("stream",), lap={"read": 4, "write": 1, "coldscan": 1},
    ),
)

WORKLOAD_BY_NAME = {spec.name: spec for spec in WORKLOADS}


def fragment_counters(deployments: Mapping[int, fx.ServiceDeployment]) -> Dict[str, float]:
    """Fragment-cache counters summed over ``deployments`` (public snapshots)."""
    totals = dict.fromkeys(
        ("hits", "misses", "admissions", "evictions", "invalidations", "bytes"), 0
    )
    for deployment in deployments.values():
        stats = deployment.service.stats_snapshot().fragments
        for key in totals:
            if key != "bytes":
                totals[key] += getattr(stats, key)
        totals["bytes"] += deployment.service.fragment_cache.current_bytes
    return totals


class WallClockExceeded(RuntimeError):
    """The per-workload guard fired; partial results are printed."""


# ---------------------------------------------------------------------------
# Fixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One (site, query) pair the data ops cycle through."""

    site_index: int
    query_index: int


@dataclass
class Fixture:
    spec: WorkloadSpec
    sites: List[fx.Site]
    #: Main deployment per data-bearing site index.
    deployments: Dict[int, fx.ServiceDeployment]

    def close(self) -> None:
        close_all(self.deployments.values())


def close_all(deployments) -> None:
    """Close every deployment even if one close raises."""
    errors = []
    for deployment in deployments:
        try:
            deployment.close()
        except Exception as exc:  # keep closing the rest
            errors.append(exc)
    if errors:
        raise errors[0]


def make_deployments(
    spec: WorkloadSpec,
    sites: Sequence[fx.Site],
    cache_bytes: Optional[Mapping[int, int]] = None,
) -> Dict[int, fx.ServiceDeployment]:
    factory = fx.ClusterDeployment if spec.cluster else fx.ServiceDeployment
    built: Dict[int, fx.ServiceDeployment] = {}
    try:
        for index, site in enumerate(sites):
            if site.has_data:
                budget = cache_bytes[index] if cache_bytes is not None else None
                built[index] = factory(site, fragment_cache_bytes=budget)
    except BaseException:
        close_all(built.values())
        raise
    return built


def build_fixture(spec: WorkloadSpec, seed: int, scale: fx.Scale = fx.FULL) -> Fixture:
    """Generate PDMS(s) and data from ``seed`` and construct the deployments."""
    rng = random.Random(f"e2e:{spec.name}:{seed}")
    rows = min(spec.rows, scale.max_rows)
    if spec.paper:
        sites = [
            fx.build_site(
                fx.topology(scale, diameter, topology_seed),
                # Answering needs every rewriting; beyond diameter 4 that
                # takes up to 76 s, so only diameter 4 carries data.
                rng if diameter == fx.PAPER_DIAMETERS[0] else None,
                rows=rows, domain=spec.domain,
            )
            for diameter in fx.PAPER_DIAMETERS
            for topology_seed in scale.topology_seeds
        ]
    else:
        sites = [
            fx.build_site(
                fx.topology(scale, fx.MIX_DIAMETER, fx.MIX_TOPOLOGY_SEED),
                rng, rows=rows, domain=spec.domain, pool_size=scale.pool_size,
            )
        ]
    deployments = make_deployments(spec, sites) if spec.has_deployments else {}
    return Fixture(spec, sites, deployments)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def spin() -> float:
    """A fixed pure-Python loop (integer arithmetic, tuples, a dict, a
    sort): how long the host takes for it right now."""
    start = time.perf_counter()
    total = 0
    table: Dict[Tuple[int, str], tuple] = {}
    for value in range(1200):
        total += value * value % 7
        key = (value % 97, str(value & 15))
        table[key] = table.get(key, ()) + (value,)
    ordered = sorted(table, key=lambda key: key[0])
    total += len({key[0] for key in ordered} | {len(v) for v in table.values()})
    return time.perf_counter() - start


class Timing(NamedTuple):
    """One timed call and how fast the host was around it."""

    #: ``perf_counter`` seconds of the call on this host.
    seconds: float
    #: Mean of the calibration loop run right before and right after.
    spin: float

    @property
    def calibrated(self) -> float:
        """``seconds`` as a host that spins in ``REFERENCE_SPIN`` would take.

        The recording host has (at least) two speeds: for seconds or
        minutes at a time it runs everything, the calibration loop
        included, about 1.45x slower (its core's sibling is busy).  No
        statistic over raw times of one run survives that, so the gated
        metrics are computed from calibrated times.
        """
        return self.seconds * REFERENCE_SPIN / self.spin


@dataclass
class Recorder:
    """Timings of one run, each bracketed by two calibration spins."""

    #: kind -> distinct op (a query, a PDMS, a join ...) -> its timings.
    samples: Dict[str, Dict[object, List[Timing]]] = field(default_factory=dict)
    spins: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def spin(self) -> float:
        seconds = spin()
        self.spins.append(seconds)
        return seconds

    def timed(self, kind: str, key, call: Callable, *args):
        """Time one public call; an exception is a failed op, not a crash."""
        self.attempted += 1
        before = self.spin()
        start = time.perf_counter()
        try:
            result = call(*args)
        except Exception:
            self.fail(f"{kind}: {traceback.format_exc(limit=3)}")
            return None
        seconds = time.perf_counter() - start
        self.record(kind, key, seconds, before, self.spin())
        return result

    def record(self, kind: str, key, seconds: float, before: float, after: float) -> None:
        self.samples.setdefault(kind, {}).setdefault(key, []).append(
            Timing(seconds, (before + after) / 2.0)
        )

    def calibrated(self, kind: str) -> Dict[object, List[float]]:
        """Calibrated seconds per distinct op of ``kind``."""
        return {
            key: [timing.calibrated for timing in timings]
            for key, timings in self.samples.get(kind, {}).items()
        }

    def raw(self, kind: str) -> List[float]:
        """Seconds on this host of every timing of ``kind``, pooled."""
        return [
            timing.seconds
            for timings in self.samples.get(kind, {}).values()
            for timing in timings
        ]


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class WorkloadRun:
    """Phases of one workload over one fixture."""

    def __init__(
        self,
        fixture: Fixture,
        seed: int,
        seconds: float,
        deadline: float,
        scale: fx.Scale = fx.FULL,
        check_references: bool = True,
    ):
        #: The traced run turns this off: it cross-checks answers itself.
        self.check_references = check_references
        self.scale = scale
        self.spec = fixture.spec
        self.sites = fixture.sites
        self.deployments = fixture.deployments
        self.seconds = seconds
        self.deadline = deadline
        self.rng = random.Random(f"e2e:{self.spec.name}:{seed}:ops")
        self.rec = Recorder()
        self.pairs = [
            (site_index, query_index)
            for site_index, site in enumerate(self.sites)
            for query_index in range(len(site.queries))
        ]
        self.targets = [
            Target(*pair) for pair in self.pairs if self.sites[pair[0]].has_data
        ]
        #: What every answer of the cycles must equal (the data does not
        #: change before the stream): the reference answer, precomputed;
        #: without reference checking, the first answer seen.
        self.expected: Dict[Target, frozenset] = {}
        #: The stored relation the writes of each target go to.
        self.write_relation: Dict[Target, str] = {}
        #: (nodes, rewritings) per (site, query) from the first round.
        self.tree_shape: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.stream_reads = 0
        self.last_read: Optional[Target] = None
        #: Printed beside the metrics, not metrics: wall seconds, rounds, spin.
        self.notes: Dict[str, float] = {}
        #: Fragment-cache counters per regime ("warm", "tight", "churn").
        self.cache_stats: Dict[str, Dict[str, float]] = {}

    # -- helpers -----------------------------------------------------------

    def query(self, target: Target):
        return self.sites[target.site_index].queries[target.query_index]

    def check_deadline(self) -> None:
        if time.perf_counter() > self.deadline:
            raise WallClockExceeded(f"{self.spec.name}: wall-clock guard fired")

    def repeat(self, budget: float, one_round: Callable[[int], None]) -> int:
        """Run ``one_round`` at least ``scale.min_repeats`` times, then
        until ``budget`` seconds are used (to the nearest round)."""
        started = time.perf_counter()
        done = 0
        while True:
            self.check_deadline()
            one_round(done)
            done += 1
            elapsed = time.perf_counter() - started
            if done >= self.scale.min_repeats and elapsed + 0.5 * elapsed / done > budget:
                return done

    def answer(self, kind: str, deployment, target: Target):
        """One timed answer of the cycles; wrong, failing or incomplete
        is a failed op."""
        result = self.rec.timed(kind, target, deployment.answer, self.query(target))
        if result is None:
            return
        rows, complete = result
        if not complete:
            self.rec.fail(f"{kind}: incomplete answer for {self.query(target)}")
        elif self.expected.setdefault(target, frozenset(rows)) != rows:
            self.rec.fail(f"{kind}: reference mismatch for {self.query(target)}")

    def shuffled_targets(self) -> List[Target]:
        order = list(self.targets)
        self.rng.shuffle(order)
        return order

    def reference(self, target: Target) -> frozenset:
        """From-scratch reference-engine answer over the live state."""
        self.check_deadline()
        deployment = self.deployments[target.site_index]
        return frozenset(
            fx.reference_answer(deployment.pdms, self.query(target), deployment.live_data())
        )

    def verify(self, target: Target, rows) -> None:
        """Compare a stream answer with the reference over the live state."""
        if not self.check_references:
            return
        self.rec.attempted += 1
        if rows is None or frozenset(rows) != self.reference(target):
            self.rec.fail(f"stream: reference mismatch for {self.query(target)}")

    def counted(self, regime: str, deployments, phase: Callable[[], object]):
        """Run ``phase`` and keep what it did to the fragment caches."""
        before = fragment_counters(deployments)
        result = phase()
        after = fragment_counters(deployments)
        totals = self.cache_stats.setdefault(regime, dict.fromkeys(after, 0))
        for key in after:
            totals[key] += after[key] - before[key]
        totals["bytes"] = after["bytes"]
        return result

    # -- untimed preparation -----------------------------------------------

    def prepare(self) -> None:
        """References and the relation each query's writes go to, outside
        the timers."""
        for site in self.sites:
            site.pdms.catalogue  # normalise once, outside the timers
        if self.check_references and not self.spec.has_deployments:
            self.check_oracle()
        elif self.check_references and set(self.spec.phases) & {"cold", "reads", "tight"}:
            # Over the site's own catalogue: the deployments stay untouched
            # until their first, cold, answer.
            for target in self.targets:
                self.check_deadline()
                site = self.sites[target.site_index]
                self.expected[target] = frozenset(
                    fx.reference_answer(site.pdms, self.query(target), site.data)
                )
        if self.spec.lap.get("write"):
            for target in self.targets:
                site = self.sites[target.site_index]
                result = reformulate(site.pdms, self.query(target))
                # Always the same relation: how much a write invalidates
                # depends on which one, and that is not what varies by seed.
                self.write_relation[target] = min(
                    atom.predicate
                    for rewriting in result.first_rewritings(REWRITING_CAP)
                    for atom in rewriting.body
                    if atom.predicate in site.owners
                )

    def check_oracle(self) -> None:
        """No op of the reformulation workload reads data, so what is
        checked is the reference itself: on the data-bearing PDMSs the
        reference engine must return the chase's certain answers."""
        for target in self.targets:
            self.check_deadline()
            site = self.sites[target.site_index]
            query = self.query(target)
            self.rec.attempted += 1
            expected = fx.reference_answer(site.pdms, query, site.data)
            if expected != fx.chase_answer(site.pdms, query, site.data):
                self.rec.fail(f"reference engine and chase oracle disagree on {query}")

    # -- phases ------------------------------------------------------------

    def round_reformulate(self) -> None:
        for pair in self.pairs:
            site = self.sites[pair[0]]
            query = site.queries[pair[1]]
            self.rec.attempted += 1
            before = self.rec.spin()
            try:
                start = time.perf_counter()
                result = reformulate(site.pdms, query)
                built = time.perf_counter()
                result.first_rewritings(1)
                first = time.perf_counter()
                result.first_rewritings(10)
                count = len(result.first_rewritings(REWRITING_CAP))
                done = time.perf_counter()
            except Exception:
                self.rec.fail(f"reformulate: {traceback.format_exc(limit=3)}")
                continue
            after = self.rec.spin()
            self.rec.record("tree_build", pair, built - start, before, after)
            self.rec.record("first_rewriting", pair, first - start, before, after)
            self.rec.record("all_rewritings", pair, done - start, before, after)
            shape = (result.statistics.total_nodes, count)
            if self.tree_shape.setdefault(pair, shape) != shape:
                self.rec.fail(f"tree shape changed between rounds for {query}")

    def round_cold(self, cycle: int) -> None:
        # Cycle 0 runs on the main deployments, which are fresh then.
        fresh = self.deployments if cycle == 0 else make_deployments(self.spec, self.sites)
        try:
            self.round_answers("cold_answer", fresh)
        finally:
            if cycle:
                close_all(fresh.values())

    def round_answers(self, kind: str, deployments) -> None:
        for target in self.shuffled_targets():
            self.answer(kind, deployments[target.site_index], target)

    def warm(self, kind: str, deployments) -> None:
        """Answer every query once; timed under ``kind``, which no metric
        reads, and not compared: after a write no stored answer holds."""
        for target in self.targets:
            self.rec.timed(kind, target, deployments[target.site_index].answer, self.query(target))

    def make_tight(self) -> Dict[int, fx.ServiceDeployment]:
        """Deployments whose fragment budget is a quarter of what the
        main ones hold after answering every query once; warmed up."""
        budgets = {
            index: max(1, deployment.service.fragment_cache.current_bytes // TIGHT_SHARE)
            for index, deployment in self.deployments.items()
        }
        tight = make_deployments(self.spec, self.sites, budgets)
        try:
            self.warm("tight_warmup", tight)
        except BaseException:
            close_all(tight.values())
            raise
        return tight

    def cycle(self, index: int, state: Dict[str, object]) -> None:
        phases = self.spec.phases
        if "reformulate" in phases:
            self.round_reformulate()
        if "cold" in phases:
            self.round_cold(index)
        if "reads" in phases:
            for _ in range(self.spec.reads_per_cycle):
                self.counted("warm", self.deployments,
                             lambda: self.round_answers("read", self.deployments))
        if "tight" in phases:
            if index == 0:
                state["tight"] = self.make_tight()
            tight = state["tight"]
            self.counted("tight", tight, lambda: self.round_answers("read_tight", tight))

    def stream_read(self, target: Target, after: str) -> None:
        """One stream read, classed by what preceded it (see README)."""
        deployment = self.deployments[target.site_index]
        satellite = self.sites[target.site_index].satellites[target.query_index]
        misses = deployment.service.stats.misses
        self.rec.attempted += 1
        before = self.rec.spin()
        start = time.perf_counter()
        try:
            rows, complete = deployment.answer(self.query(target))
        except Exception:
            self.rec.fail(f"stream read: {traceback.format_exc(limit=3)}")
            return
        seconds = time.perf_counter() - start
        spins = (before, self.rec.spin())
        if after == "write":
            self.rec.record("read_after_write", target, seconds, *spins)
        elif after == "coldscan":
            self.rec.record("read_cold_scan", target, seconds, *spins)
        elif deployment.service.stats.misses > misses:
            # With its own satellite joined a query has more rewritings,
            # so the two states are different ops.
            joined = satellite.peer_name in deployment.joined
            self.rec.record("read_after_churn", (target, joined), seconds, *spins)
        else:
            self.rec.record("read", target, seconds, *spins)
        if not complete:
            self.rec.fail(f"stream read: incomplete answer for {self.query(target)}")
        self.stream_reads += 1
        self.last_read = target
        if self.stream_reads % self.spec.check_every == 0:
            self.verify(target, rows)

    def stream_lap(self, _: int) -> None:
        steps = [
            (kind, target)
            for kind, count in self.spec.lap.items() if kind != "coldscan"
            for target in self.targets
            for _ in range(count)
        ]
        self.rng.shuffle(steps)
        for kind, target in steps:
            self.check_deadline()
            site = self.sites[target.site_index]
            deployment = self.deployments[target.site_index]
            if kind == "write":
                rows = fx.random_rows(self.rng, site.write_rows, site.domain)
                self.rec.timed(
                    "write", target, deployment.write, self.write_relation[target], rows
                )
            elif kind == "churn":
                satellite = site.satellites[target.query_index]
                leaving = satellite.peer_name in deployment.joined
                self.rec.timed(
                    "churn_event", (target, "leave" if leaving else "join"),
                    deployment.leave if leaving else deployment.join, satellite,
                )
            self.stream_read(target, after=kind)
        # Dropping the scans makes every query's next read a cold one, so
        # the cold-scan reads come as a block that ends with a re-warm:
        # shuffled into the steps they would leave no plain read warm.
        for _ in range(self.spec.lap.get("coldscan", 0)):
            for target in self.shuffled_targets():
                self.check_deadline()
                self.deployments[target.site_index].drop_scans()
                self.stream_read(target, after="coldscan")
            self.warm("rewarm", self.deployments)

    # -- driver ------------------------------------------------------------

    def verify_final(self) -> None:
        """The state every write and churn event left behind."""
        target = self.last_read
        rows, complete = self.deployments[target.site_index].answer(self.query(target))
        self.verify(target, rows if complete else None)

    def run(self) -> Recorder:
        self.prepare()
        cycled = tuple(phase for phase in self.spec.phases if phase != "stream")
        streamed = "stream" in self.spec.phases
        budget = self.seconds / (bool(cycled) + streamed)
        if cycled:
            started = time.perf_counter()
            state: Dict[str, object] = {}
            try:
                self.notes["cycles"] = self.repeat(budget, lambda index: self.cycle(index, state))
            finally:
                if "tight" in state:
                    close_all(state["tight"].values())
            self.notes["cycles wall s"] = time.perf_counter() - started
        if streamed:
            started = time.perf_counter()
            if not cycled:
                # First answers (reformulation, plan, scans) are another
                # workload's op; here they are a warm-up.
                self.warm("warmup", self.deployments)
            self.notes["laps"] = self.counted(
                "churn", self.deployments, lambda: self.repeat(budget, self.stream_lap)
            )
            self.verify_final()
            self.notes["stream wall s"] = time.perf_counter() - started
        self.notes["median spin ms"] = statistics.median(self.rec.spins) * 1e3
        return self.rec


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: The latencies a client of each op kind sees, by the names of ISSUE 12.
#: A workload reports the ones its phases produce; see README for why only
#: ``setup_s`` and ``ops_per_s`` are gated.
LATENCY_METRICS: Tuple[Tuple[str, str], ...] = (
    ("tree_build_p50_ms", "tree_build"),
    ("first_rewriting_p50_ms", "first_rewriting"),
    ("all_rewritings_p50_ms", "all_rewritings"),
    ("cold_answer_p50_ms", "cold_answer"),
    ("read_p50_ms", "read"),
    ("read_tight_p50_ms", "read_tight"),
    ("read_cold_scan_p50_ms", "read_cold_scan"),
    ("write_p50_ms", "write"),
    ("read_after_write_p50_ms", "read_after_write"),
    ("churn_event_p50_ms", "churn_event"),
    ("read_after_churn_p50_ms", "read_after_churn"),
)
#: The kinds that are one public call each (``tree_build`` and
#: ``first_rewriting`` are prefixes of ``all_rewritings``).
OP_KINDS = (
    "all_rewritings", "cold_answer", "read", "read_tight", "read_cold_scan",
    "write", "read_after_write", "churn_event", "read_after_churn",
)


#: ``name -> (value, unit, number of timings behind it)``.
Metrics = Dict[str, Tuple[float, str, int]]


def end_to_end_metrics(run: WorkloadRun, setup_seconds: Sequence[float]) -> Metrics:
    """The gated metrics: ``name -> (value, unit, sample count)``.

    ``ops_per_s`` is the timed ops divided by the sum of their latencies,
    each latency taken as its op's median calibrated time, so that one
    stalled timing does not move the rate.
    """
    ops = 0
    seconds = 0.0
    for kind in OP_KINDS:
        for times in run.rec.calibrated(kind).values():
            ops += len(times)
            seconds += len(times) * statistics.median(times)
    return {
        "setup_s": (statistics.median(setup_seconds), "s", len(setup_seconds)),
        "ops_per_s": (ops / seconds, "1/s", ops),
    }


def latency_report(run: WorkloadRun) -> List[str]:
    """The workload's own latencies, printed and not gated: one line per
    metric its phases produced, calibrated and as timed on this host."""

    def supported(statistic: Callable[[], float]) -> str:
        try:
            return f"{statistic() * 1e3:.4f}"
        except UnsupportedStatistic:
            return "unsupported"

    rows: List[Tuple[str, str, str, int]] = []
    for name, kind in LATENCY_METRICS:
        raw = run.rec.raw(kind)
        if not raw:
            continue
        by_op = run.rec.calibrated(kind)
        rows.append((
            name, supported(lambda: median_over_ops(by_op, run.scale.min_median)),
            supported(lambda: statistics.median(raw)), len(raw),
        ))
        if kind == "read":
            pooled = [seconds for times in by_op.values() for seconds in times]
            rows.append((
                "read_p95_ms", supported(lambda: p95(pooled, run.scale.min_p95)),
                supported(lambda: p95(raw, run.scale.min_p95)), len(raw),
            ))
    lines = [
        f"{name:<44s} {value:>14s} ms       n={count}  (on this host {host})"
        for name, value, host, count in rows
    ]
    if run.tree_shape:
        builds = run.rec.calibrated("tree_build")
        nodes = sum(run.tree_shape[pair][0] * len(times) for pair, times in builds.items())
        seconds = sum(sum(times) for times in builds.values())
        lines.append(f"{'nodes_per_s':<44s} {nodes / seconds:>14.4f} 1/s      n={len(run.rec.raw('tree_build'))}")
    return lines
