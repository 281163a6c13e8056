"""The benchmark's three phases: migrate, serve and design.

Each phase is a class that generates its own inputs from a seed and a
size, builds its initial state in ``setup`` and then runs one unit of
work per call (a migrate iteration, a serve operation, a design
session).  A workload runs the serve or design phase at full size in a
timed closed loop and the other two phases at a small companion size,
so every end-to-end metric is measured on every workload (see
README.md).

Every call into the engine is wrapped in a span named after the layer
it enters.  While observability is disabled ``tracer.span`` is a no-op,
so the same code serves the untraced and the traced run.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from dataclasses import dataclass, field

from repro import ModelManagementEngine
from repro.algebra import Col, Scan, Select, eq, eq_join, evaluate
from repro.core.scripts import evolve_view_script, migrate_script
from repro.errors import ChaseNonTermination
from repro.instances import Instance
from repro.logic import chase, parse_tgd
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, Attribute, SchemaBuilder
from repro.observability import is_enabled, tracer
from repro.operators.match import MatchConfig, evaluate_against_truth
from repro.runtime.incremental import MaterializedExchange
from repro.runtime.updates import UpdateSet
from repro.workloads import paper, synthetic

import checks

span = tracer.span


@dataclass
class Recorder:
    """Samples and operation counts of one benchmark run.

    Attempted operations and known-defect failures are counted apart
    for the workload's own closed loop (``primary``) and for the
    companion phases; both give ``error_rate``.  ``unexpected`` lists
    failures that no probe predicts: any entry makes the run incorrect.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    #: When each sample was taken (``time.perf_counter``), and the
    #: host-speed kernel its phase follows (see hostspeed.py).
    marks: dict[str, list[tuple[float, str]]] = field(default_factory=dict)
    kernel: str = "compute"
    attempted: int = 0
    primary_attempted: int = 0
    primary_failed: int = 0
    companion_attempted: int = 0
    companion_failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    primary: bool = True

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)
        self.marks.setdefault(name, []).append(
            (time.perf_counter(), self.kernel))

    def count(self, operations: int = 1) -> None:
        self.attempted += operations
        if self.primary:
            self.primary_attempted += operations
        else:
            self.companion_attempted += operations

    def expected_failure(self) -> None:
        if self.primary:
            self.primary_failed += 1
        else:
            self.companion_failed += 1


def _builds(stats: dict, prefix: str) -> int:
    return stats[prefix + "rebuilds"] + stats[prefix + "extends"]


def read(expr, instance: Instance, relations, builds: dict) -> list:
    """One query: make the statistics and column batches of the scanned
    relations current, then evaluate.  The query would build both
    lazily; building them first, in spans of their own, lets the traced
    run attribute them to the storage layer.  While tracing is on,
    ``builds`` counts the rebuilds and incremental extensions, from
    ``Instance.index_stats``."""
    traced = is_enabled()
    if traced:
        before = _builds(instance.index_stats, "stats_")
    for relation in relations:
        with span("instances.stats"):
            instance.relation_stats(relation)
    if traced:
        builds["stats_builds"] += (
            _builds(instance.index_stats, "stats_") - before)
        before = _builds(instance.index_stats, "")
    for relation in relations:
        with span("instances.batch"):
            instance.column_batch(relation)
    if traced:
        builds["batch_builds"] += _builds(instance.index_stats, "") - before
    with span("algebra.query"):
        return evaluate(expr, instance)


class Phase:
    """What the runner calls on every phase.  ``setup`` builds the
    initial state; each ``unit`` is one timed unit of work whose outputs
    ``check`` verifies; ``probe`` attempts the workload's known defect;
    ``finish`` checks the final state.  ``prepare`` runs, untimed,
    before every unit."""

    #: Whether ``probe`` attempts a known defect; if so, after every
    #: unit or once after the first.
    probes = False
    probe_every_unit = False

    def __init__(self) -> None:
        self.storage_builds = {"stats_builds": 0, "batch_builds": 0}
        self.rows_written = 0
        #: Set-up times measured by the phase itself, beyond the
        #: runner's own set-ups, each with the moment it ended.
        self.setup_samples: list[tuple[float, float]] = []

    def prepare(self) -> None:
        gc.collect()   # the previous unit's garbage, outside the timing

    def probe(self, rec: "Recorder") -> None:
        """Attempt the phase's known defect, counting the attempt and,
        when it fails as expected, the failure."""

    def check(self, outputs) -> list[str]:
        return []

    def finish(self) -> list[str]:
        return []

    def maintenance_stats(self) -> dict:
        return {}


def _zipf_sampler(rng: random.Random, keys: int, skew: float):
    weights = [1.0 / (rank + 1) ** skew for rank in range(keys)]
    cumulative, total = [], 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    # Hot ranks land on scattered keys, not on the smallest ids.
    order = list(range(keys))
    rng.shuffle(order)

    def draw() -> int:
        rank = bisect.bisect_left(cumulative, rng.random() * total)
        return order[min(rank, keys - 1)]

    return draw


# ----------------------------------------------------------------------
# migrate: the Figure 5/6 evolution at scale
# ----------------------------------------------------------------------
#: The evolution S → S′ as st-tgds, exactly as examples/schema_evolution.py
#: writes it.  The tgd syntax has no inequality, so the third tgd copies
#: every address (US ones too) into Foreign.
MIGRATE_TGDS = (
    "Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)",
    "Addresses(SID=s, Address=a, Country='US') -> Local(SID=s, Address=a)",
    "Addresses(SID=s, Address=a, Country=c) -> "
    "Foreign(SID=s, Address=a, Country=c)",
)
SELECTIVE_QUERIES = 20
#: The cold first query runs this many more times per iteration, after
#: the pipeline, on fresh copies of D′, for more samples of it.
COLD_REPEATS = 2
#: The rollback probe's D′ holds this many students: enough that the
#: one-call exchange's fixed 100,000-step chase budget runs out.
ROLLBACK_STUDENTS = 100_000


def student_rows(rng: random.Random, students: int):
    """Names and Addresses rows for ``students`` students; a third of
    them live outside the US.  Names repeat, so a lookup by name can
    return several students."""
    firsts = max(4, int(students ** 0.5))
    names, addresses = [], []
    for sid in range(students):
        names.append({
            "SID": sid,
            "Name": f"F{rng.randrange(firsts)}L{rng.randrange(firsts)}",
        })
        country = "US" if sid % 3 else f"C{rng.randrange(40)}"
        addresses.append({
            "SID": sid,
            "Address": f"{rng.randrange(students)} Elm",
            "Country": country,
        })
    return names, addresses


def evolved_database(rng: random.Random, students: int) -> Instance:
    """D′ over S′ as the evolution defines it: NamesP copies Names,
    Local holds the US addresses and Foreign the others."""
    names, addresses = student_rows(rng, students)
    migrated = Instance(paper.figure6_s_prime_schema())
    migrated.insert_all("NamesP", names)
    migrated.insert_all("Local", [
        {"SID": row["SID"], "Address": row["Address"]}
        for row in addresses if row["Country"] == "US"])
    migrated.insert_all("Foreign", [
        row for row in addresses if row["Country"] != "US"])
    return migrated


class Migrate(Phase):
    """Load D, migrate it to S′ and recompose the view, query D′ through
    the composed view, and chase the same evolution as st-tgds."""

    probes = True   # once per run, after the first unit: it takes seconds

    def __init__(self, students: int, seed: int,
                 rollback_students: int = ROLLBACK_STUDENTS):
        super().__init__()
        self.students = students
        self.rollback_students = rollback_students
        self.seed = seed
        self.rng = random.Random(seed)
        self.engine = ModelManagementEngine()

    def setup(self) -> None:
        self.map_v_s = paper.figure6_map_v_s()
        self.map_s_sprime = paper.figure6_map_s_sprime()
        self.tgds = [parse_tgd(text) for text in MIGRATE_TGDS]
        self.forward = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            self.tgds, name="tgd_migration",
        )
        self._next_input()

    def _next_input(self) -> None:
        with span("workload.generate"):
            self.names, self.addresses = student_rows(
                self.rng, self.students
            )
            self.lookups = [
                self.names[self.rng.randrange(self.students)]["Name"]
                for _ in range(SELECTIVE_QUERIES)
            ]

    def prepare(self) -> None:
        """Untimed: collect the previous iteration's garbage and freeze
        what survives (the next input), so that every iteration's
        collector passes walk the same heap.  The process-wide plan
        caches stay as they are: on ``serve`` they hold its read plans."""
        super().prepare()
        gc.freeze()

    def unit(self, rec: Recorder) -> dict:
        """One timed pipeline.  Returns its outputs for the checks."""
        names, addresses = self.names, self.addresses
        start = time.perf_counter()
        database = Instance(paper.figure6_s_schema())
        with span("instances.load"):
            database.insert_all("Names", names)
            database.insert_all("Addresses", addresses)
        with span("operators.script"):
            result = migrate_script(self.map_v_s, self.map_s_sprime,
                                    database)
        migrated = result.artifacts["database"]
        view = result.artifacts["mapping"].equalities[0].target_expr
        relations = ("NamesP", "Local", "Foreign")
        first_start = time.perf_counter()
        first = read(view, migrated, relations, self.storage_builds)
        first_s = time.perf_counter() - first_start
        answers = []
        for name in self.lookups:
            rows = read(Select(view, eq(Col("Name"), name)), migrated,
                        relations, self.storage_builds)
            answers.append((name, rows))
        budget = 2 * database.total_rows() + len(self.tgds)
        with span("logic.run"):
            chased = chase(database, self.tgds, max_steps=budget)
        pipeline_s = time.perf_counter() - start
        rec.count(3 + 1 + SELECTIVE_QUERIES + COLD_REPEATS)
        rec.add("pipeline_s", pipeline_s)
        rec.add("first_query_ms", first_s * 1000.0)
        cold = [self._cold_query(rec, view, migrated, relations)
                for _ in range(COLD_REPEATS)]
        outputs = {
            "names": names, "addresses": addresses, "first": first,
            "cold": cold, "answers": answers, "migrated": migrated,
            "chased": chased.instance, "steps": chased.steps,
        }
        self._next_input()
        return outputs

    def _cold_query(self, rec: Recorder, view, migrated: Instance,
                    relations) -> list:
        """The first query again, on a copy of D′ that has no statistics
        or column batches yet."""
        copy = Instance(migrated.schema)
        for relation in relations:
            copy.relations[relation] = list(migrated.relations[relation])
        gc.collect()
        start = time.perf_counter()
        rows = read(view, copy, relations, self.storage_builds)
        rec.add("first_query_ms", (time.perf_counter() - start) * 1000.0)
        return rows

    def check(self, outputs: dict) -> list[str]:
        return checks.check_migrate(outputs)

    def probe(self, rec: Recorder) -> None:
        """§6.4 rollback exactly as examples/schema_evolution.py does it,
        on a D′ of ``rollback_students`` students.  The one-call
        ``exchange`` chases with a fixed 100,000-step budget, so at 10⁵
        students it raises ChaseNonTermination: a known defect, counted
        in ``error_rate`` and timed apart."""
        with span("workload.generate"):
            migrated = evolved_database(random.Random(self.seed + 1),
                                        self.rollback_students)
        rec.count()
        try:
            with span("runtime.rollback"):
                self.engine.exchange(
                    self.engine.quasi_inverse(self.forward), migrated
                )
        except ChaseNonTermination:
            rec.expected_failure()


# ----------------------------------------------------------------------
# serve: a materialized 3-peer chain under reads and writes
# ----------------------------------------------------------------------
def serve_schemas():
    peer_a = (
        SchemaBuilder("A", metamodel="relational")
        .entity("Ord", key=["OID"]).attribute("OID", INT)
        .attribute("CID", INT).attribute("Amount", INT)
        .entity("Cust", key=["CID"]).attribute("CID", INT)
        .attribute("Name", STRING).attribute("Region", STRING)
        .build()
    )
    peer_b = (
        SchemaBuilder("B", metamodel="relational")
        .entity("Sale", key=["OID"]).attribute("OID", INT)
        .attribute("CID", INT).attribute("Amount", INT)
        .attribute("Region", STRING).attribute("Tier", STRING)
        .entity("Client", key=["CID"]).attribute("CID", INT)
        .attribute("Name", STRING).attribute("Region", STRING)
        .build()
    )
    peer_c = (
        SchemaBuilder("C", metamodel="relational")
        .entity("Fact", key=["OID"]).attribute("OID", INT)
        .attribute("CID", INT).attribute("Amount", INT)
        .attribute("Tier", STRING)
        .entity("Dim", key=["CID"]).attribute("CID", INT)
        .attribute("Name", STRING).attribute("Region", STRING)
        .build()
    )
    return peer_a, peer_b, peer_c


def serve_mappings():
    peer_a, peer_b, peer_c = serve_schemas()
    a_to_b = Mapping(peer_a, peer_b, [
        # The hop joins Ord ⋈ Cust and invents the unknown tier.
        parse_tgd("Ord(OID=o, CID=c, Amount=x) & "
                  "Cust(CID=c, Name=n, Region=r) -> "
                  "Sale(OID=o, CID=c, Amount=x, Region=r, Tier=t)"),
        parse_tgd("Cust(CID=c, Name=n, Region=r) -> "
                  "Client(CID=c, Name=n, Region=r)"),
    ], name="A-B")
    b_to_c = Mapping(peer_b, peer_c, [
        parse_tgd("Sale(OID=o, CID=c, Amount=x, Region=r, Tier=t) -> "
                  "Fact(OID=o, CID=c, Amount=x, Tier=t)"),
        parse_tgd("Client(CID=c, Name=n, Region=r) -> "
                  "Dim(CID=c, Name=n, Region=r)"),
    ], name="B-C")
    return a_to_b, b_to_c


#: The closed loop repeats this cycle: 80% reads, 20% writes, three
#: point lookups per key join.  A point lookup takes milliseconds, and a
#: key join after a write pays hundreds for rebuilding Fact's statistics
#: and column batch.  A fixed cycle keeps the read median inside the
#: first group and the 90th percentile inside the second; a random mix
#: let both percentiles fall on the boundary between groups.
SERVE_CYCLE = ("write", "point", "join", "point", "point")
BATCH_ROWS = 16
ZIPF_SKEW = 1.1


class Serve(Phase):
    """Reads on peer C and 16-row write batches on peer A, maintained hop
    by hop with ``MaterializedExchange.apply``."""

    def __init__(self, orders: int, customers: int, seed: int):
        super().__init__()
        self.orders = orders
        self.customers = customers
        self.rng = random.Random(seed)

    def budget(self, rows: int) -> int:
        return 2 * rows + 8

    def source_instance(self) -> Instance:
        source = Instance(self.a_to_b.source)
        with span("instances.load"):
            source.insert_all("Cust", self.cust_rows)
            source.insert_all("Ord", list(self.live.values()))
        return source

    def setup(self) -> None:
        self.a_to_b, self.b_to_c = serve_mappings()
        with span("workload.generate"):
            rng = self.rng
            self.key = _zipf_sampler(rng, self.customers, ZIPF_SKEW)
            self.cust_rows = [
                {"CID": c, "Name": f"cust{c}", "Region": f"R{c % 17}"}
                for c in range(self.customers)
            ]
            self.live = {
                oid: {"OID": oid, "CID": rng.randrange(self.customers),
                      "Amount": rng.randrange(1000)}
                for oid in range(self.orders)
            }
            self.live_ids = list(self.live)
            self.next_oid = self.orders
            # Orders per customer: the truth the key-join reads are
            # checked against, kept current by ``_write``.
            self.counts: dict[int, int] = {}
            for row in self.live.values():
                self.counts[row["CID"]] = self.counts.get(row["CID"], 0) + 1
        self.hop1, self.hop2 = self.materialize()
        self.peer_c = self.hop2.working
        self.step = 0

    def materialize(self):
        """Load A and chase it through both hops, keeping the
        maintenance state."""
        source = self.source_instance()
        rows = source.total_rows()
        with span("runtime.materialize"):
            hop1 = MaterializedExchange(
                self.a_to_b, source, max_steps=self.budget(rows))
            hop2 = MaterializedExchange(
                self.b_to_c, hop1.target_instance(copy=False),
                max_steps=self.budget(rows))
        return hop1, hop2

    def maintenance_stats(self) -> dict:
        """``MaterializedExchange.stats`` summed over both hops."""
        total = dict(self.hop1.stats)
        for name, value in self.hop2.stats.items():
            total[name] += value
        return total

    def prepare(self) -> None:
        pass   # a collection per millisecond operation would dominate

    def unit(self, rec: Recorder) -> None:
        rec.count()
        kind = SERVE_CYCLE[self.step % len(SERVE_CYCLE)]
        self.step += 1
        if kind == "write":
            self._write(rec)
        else:
            self._read(rec, kind)

    def _read(self, rec: Recorder, kind: str) -> None:
        cid = self.key()
        if kind == "point":
            expr = Select(Scan("Dim"), eq(Col("CID"), cid))
            relations, expected = ("Dim",), 1
        else:
            expr = eq_join(Select(Scan("Fact"), eq(Col("CID"), cid)),
                           Scan("Dim"), [("CID", "CID")])
            relations, expected = ("Fact", "Dim"), None
        start = time.perf_counter()
        rows = read(expr, self.peer_c, relations, self.storage_builds)
        seconds = time.perf_counter() - start
        rec.add("read_ms", seconds * 1000.0)
        rec.add("op_s", seconds)
        if expected is None:
            expected = self.counts.get(cid, 0)
        if len(rows) != expected or any(r["CID"] != cid for r in rows):
            rec.unexpected.append(
                f"serve read CID={cid}: {len(rows)} rows, "
                f"expected {expected}")

    def _write(self, rec: Recorder) -> None:
        with span("workload.generate"):
            update = self._batch()
        start = time.perf_counter()
        with span("runtime.write"):
            self.hop2.apply(self.hop1.apply(update))
        seconds = time.perf_counter() - start
        self.rows_written += BATCH_ROWS
        rec.add("write_ms", seconds * 1000.0)
        rec.add("op_s", seconds)

    def _batch(self) -> UpdateSet:
        """Eight deletes of orders live before the batch and eight new
        orders, applied to the truth model as well."""
        rng = self.rng
        update = UpdateSet()
        for _ in range(BATCH_ROWS // 2):
            index = rng.randrange(len(self.live_ids))
            self.live_ids[index], self.live_ids[-1] = (
                self.live_ids[-1], self.live_ids[index])
            row = self.live.pop(self.live_ids.pop())
            update.delete("Ord", **row)
            self.counts[row["CID"]] -= 1
        for _ in range(BATCH_ROWS // 2):
            row = {"OID": self.next_oid,
                   "CID": rng.randrange(self.customers),
                   "Amount": rng.randrange(1000)}
            self.next_oid += 1
            update.insert("Ord", **row)
            self.live[row["OID"]] = row
            self.live_ids.append(row["OID"])
            self.counts[row["CID"]] = self.counts.get(row["CID"], 0) + 1
        return update

    def finish(self) -> list[str]:
        """Each read was checked as it returned; the final C must equal a
        fresh chase of the final A.  That chase is a second set-up of the
        chain, so it is also timed as one."""
        maintained = self.hop2.target_instance(copy=False)
        self.hop1 = self.hop2 = self.peer_c = None
        gc.collect()
        start = time.perf_counter()
        fresh = self.recompute()
        end = time.perf_counter()
        self.setup_samples.append((end - start, end))
        return checks.check_serve(maintained, fresh)

    def recompute(self) -> Instance:
        """A fresh chase of the final A through both hops, with no
        maintenance history: the oracle for the maintained C."""
        return self.materialize()[1].target_instance(copy=False)


# ----------------------------------------------------------------------
# design: model-management operators without instance data
# ----------------------------------------------------------------------
TOP3_FLOOR = 0.75


def compose_defect_pair():
    """The smallest case of the known Compose defect: an m12 tgd with an
    existential feeds two m23 tgds that read the same atom, and the
    composition loses the shared null (ROADMAP, operator semantics)."""
    s1 = (SchemaBuilder("P1", metamodel="relational")
          .entity("A", key=["x"]).attribute("x", INT).build())
    s2 = (SchemaBuilder("P2", metamodel="relational")
          .entity("B", key=["x"]).attribute("x", INT)
          .attribute("w", INT).build())
    s3 = (SchemaBuilder("P3", metamodel="relational")
          .entity("C0", key=["x"]).attribute("x", INT).attribute("w", INT)
          .entity("C1", key=["w"]).attribute("w", INT).attribute("x", INT)
          .build())
    m12 = Mapping(s1, s2, [parse_tgd("A(x=x) -> B(x=x, w=w)")], name="m12")
    m23 = Mapping(s2, s3, [parse_tgd("B(x=x, w=w) -> C0(x=x, w=w)"),
                           parse_tgd("B(x=x, w=w) -> C1(w=w, x=x)")],
                  name="m23")
    return m12, m23


class Design(Phase):
    """Match, Compose, quasi-inverse, TransGen and the view-evolution
    script on generated schemas and mappings."""

    probes = probe_every_unit = True   # a probe takes milliseconds

    def __init__(self, branching: int, width: int, chain: int, seed: int):
        super().__init__()
        self.branching = branching
        self.width = width
        self.chain_steps = chain
        self.seed = seed
        self.engine = ModelManagementEngine()
        self.sessions = 0

    def setup(self) -> None:
        with span("workload.generate"):
            self._generate()

    def _generate(self) -> None:
        seed = self.seed * 1000 + self.sessions
        # depth 2, branching 4: 21 entities and 125 attributes.
        self.schema = synthetic.snowflake_schema(
            "Design", depth=2, branching=self.branching,
            attributes_per_entity=4, seed=seed)
        self.copy, self.truth = synthetic.perturbed_copy(
            self.schema, rename_probability=0.6, seed=seed + 1)
        self.pair = synthetic.composition_pair_exponential(self.width)
        self.chain = synthetic.composition_chain_linear(self.chain_steps)
        self.figure2 = paper.figure2_mapping()
        evolved = paper.figure6_s_prime_schema()
        evolved.entity("Foreign").add_attribute(
            Attribute("Visa", STRING, nullable=True))
        self.evolution = (
            paper.figure6_view_schema(), paper.figure6_map_v_s(),
            Mapping(paper.figure6_s_schema(), evolved,
                    paper.figure6_map_s_sprime().constraints,
                    name="mapS-Sprime2"),
        )

    def unit(self, rec: Recorder) -> dict:
        engine = self.engine
        start = time.perf_counter()
        with span("operators.match"):
            proposals = engine.match(self.schema, self.copy,
                                     MatchConfig(top_k=3))
        match_s = time.perf_counter() - start
        compose_start = time.perf_counter()
        with span("operators.compose"):
            exponential = engine.compose(*self.pair)
            tgds_out = checks.emitted(exponential)
            composed = self.chain[0]
            for mapping in self.chain[1:]:
                composed = engine.compose(composed, mapping)
                tgds_out += checks.emitted(composed)
        compose_s = time.perf_counter() - compose_start
        with span("operators.other"):
            inverse = engine.quasi_inverse(composed)
            transformation = engine.transgen(self.figure2)
            evolution = evolve_view_script(*self.evolution)
        session_s = time.perf_counter() - start
        rec.count(1 + len(self.chain) + 3)
        rec.add("session_s", session_s)
        rec.add("match_s", match_s)
        rec.add("compose_ms", compose_s * 1000.0)
        quality = evaluate_against_truth(proposals, self.truth)
        rec.add("top3_hit_rate", quality.top_k_hit_rate)
        rec.add("tgds_out", tgds_out)
        outputs = {
            "quality": quality,
            "exponential": exponential, "width": self.width,
            "composed": composed, "relations": 3, "inverse": inverse,
            "transformation": transformation, "evolution": evolution,
        }
        self.sessions += 1
        with span("workload.generate"):
            self._generate()
        return outputs

    def check(self, outputs: dict) -> list[str]:
        return checks.check_design(outputs, TOP3_FLOOR)

    def probe(self, rec: Recorder) -> None:
        """Compose must agree with the two-step chase up to homomorphic
        equivalence; on the known-defect pair it does not."""
        rec.count()
        with span("operators.compose_probe"):
            if not checks.compose_agrees(*compose_defect_pair()):
                rec.expected_failure()
