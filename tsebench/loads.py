"""The three workloads: databases, seeded request scripts, expectations.

Everything here is deterministic in the seed.  A *script* is an endless
(or, for the schema-change sequence, fixed-length) stream of :class:`Step`
values: the request class, the frame to send and the expected outcome.
Write targets are OIDs read from the twin database the client builds with
the same code as the server, so the script never guesses an OID.  The one
value only a reply can tell, the OID of a connection's own earlier create,
appears in a frame as the placeholder ``"$own"`` and is filled in from the
connection's ledger when the frame is sent.

Population sizes are stated relative to the store's buffer cache: the
figure-3 database runs with ``TseDatabase`` defaults, 8 cached pages of
32 slots, so 256 cached slices.  Each object of ``populate_students``
holds 3 slices (the ``Person``, ``Student`` and ``TA``/``Grad`` storage
classes) -- 5,000 objects is ~15,000 slices, ~58x the cache; 2,000 is
~23x; 100 objects (~300 slices) is about one cache's worth.

Population builds grow faster than linearly (``populate_students`` took
0.11 s at 1k objects, 0.89 s at 5k and 11.6 s at 20k when this benchmark
was sized), which is why no workload goes past 5k objects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.database import TseDatabase
from repro.workloads.university import build_figure3_database, populate_students

#: the view every data connection attaches to (figure 3: Person, Student, TA)
DATA_VIEW = "VS1"
#: the view the schema-evolving connection of ``evolve_small`` owns
EVOLVE_VIEW = "EVO"
#: the placeholder for "my oldest acknowledged create" in a frame's oids
OWN = "$own"
#: the sentinel age written only by batches scripted to be rejected
ABORT_AGE = -1
#: at most this many creates of one connection are undeleted at any time
MAX_OUTSTANDING = 2


#: objects ``populate_students`` creates for each workload, and why.
POPULATION: Dict[str, int] = {
    # reads only from pinned epochs over ~58x the buffer cache: frame
    # codec, executor hand-off, epoch pin and extent evaluation; no
    # savepoint, WAL or schema pipeline
    "read_pinned": 5000,
    # writes, batches and scripted rejections at ~23x the cache: the
    # whole-database savepoint copy, WAL group commit, migration seals
    "write_online": 2000,
    # schema changes over a database about the cache's size: the
    # O(schema) pipeline and lazy migration dominate
    "evolve_small": 100,
}

#: schema-change operator weights of the ``evolve_small`` sequence.  They
#: follow the ranking Piccioni et al. report for class-schema evolution
#: (attribute changes most common, method changes next, class and
#: inheritance-edge changes rarest); the exact numbers are this
#: benchmark's choice, not figures copied from the study.
OPERATOR_WEIGHTS: Tuple[Tuple[str, int], ...] = (
    ("add_attribute", 30),
    ("delete_attribute", 22),
    ("add_method", 14),
    ("delete_method", 10),
    ("add_class", 8),
    ("delete_class", 6),
    ("add_edge", 5),
    ("delete_edge", 5),
)
#: schema changes per ``evolve_small`` run (the schema grows with each, so
#: every run makes the same number)
EVOLVE_CHANGES = 120
#: generator seed of the one schema-change sequence every ``evolve_small``
#: run replays.  Its cost grows with the schema it has built, and that
#: growth differs wildly between sequences (5 -> 180 global classes for
#: this one, 5 -> 1,112 for seed 0), so a per-run sequence would make
#: runs incomparable; the run seed drives the other connection instead.
EVOLVE_SEED = 2
#: ``write_online``: one add/delete attribute pair every this many
#: requests of connection 0, at most ``WRITE_PAIRS`` pairs a run
WRITE_PAIR_EVERY = 40
WRITE_PAIRS = 6


# ---------------------------------------------------------------------------
# databases
# ---------------------------------------------------------------------------


def build_db(workload: str) -> TseDatabase:
    """The database a workload runs on: figure 3's schema and view,
    ``populate_students``, plus the evolving view for ``evolve_small``.
    Server and client twin both call this, so OIDs agree."""
    db, _view = build_figure3_database()
    populate_students(db, POPULATION[workload])
    if workload == "evolve_small":
        db.create_view(EVOLVE_VIEW, ["Person", "Student", "TA"], closure="ignore")
    return db


def canonical(value):
    """A value as it looks after a trip through the wire's JSON."""
    return json.loads(json.dumps(value, separators=(",", ":"), default=str))


@dataclass
class Baseline:
    """What the seeded population looks like through ``VS1``."""

    extents: Dict[str, List[int]]
    classes: List[str]
    names: Dict[int, str]
    non_ta_students: List[int]
    ta_objects: Optional[dict] = None

    @classmethod
    def of(cls, db: TseDatabase, with_ta_values: bool = False) -> "Baseline":
        extents = {
            name: db.read_extent(DATA_VIEW, name)["oids"]
            for name in ("Person", "Student", "TA")
        }
        students = db.read_extent(DATA_VIEW, "Student", True)["objects"]
        names = {int(oid): values["name"] for oid, values in students.items()}
        ta = set(extents["TA"])
        ta_objects = None
        if with_ta_values:
            ta_objects = canonical(db.read_extent(DATA_VIEW, "TA", True)["objects"])
        return cls(
            extents=extents,
            classes=sorted(db.describe_view(DATA_VIEW)["classes"]),
            names=names,
            non_ta_students=[o for o in extents["Student"] if o not in ta],
            ta_objects=ta_objects,
        )


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One scripted request: its class, frame and expected outcome.

    ``rclass`` is one of ``read`` (count/extent/classes), ``read_values``
    (extent with values), ``write`` (update/apply_many that must commit),
    ``abort`` (a batch that must be rejected) and ``schema_change``.
    ``version`` is the view version a schema change must reply with;
    ``drain`` asks the connection to poll ``migration_status`` until the
    backlog is 0 after the reply."""

    rclass: str
    frame: dict
    expect: str = "ok"
    version: Optional[int] = None
    drain: bool = False

    def as_bytes(self) -> bytes:
        return json.dumps(
            [self.rclass, self.frame, self.expect, self.version, self.drain],
            sort_keys=True,
            separators=(",", ":"),
        ).encode()


def _rng(seed: int, conn: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{conn}:{stream}")


def _pick(rng: random.Random, table: Tuple[Tuple[str, int], ...]) -> str:
    return rng.choices([k for k, _ in table], [w for _, w in table])[0]


def _deck(rng: random.Random, table: Tuple[Tuple[object, int], ...]) -> Iterator[object]:
    """Cards dealt from shuffled decks holding each card ``weight`` times:
    every run sees the same mix, in a seeded order."""
    cards = [card for card, weight in table for _ in range(weight)]
    while True:
        rng.shuffle(cards)
        yield from cards


#: the read mix: (request type, view class) cards, 20 to a deck
READS: Tuple[Tuple[object, int], ...] = (
    (("count", "Person"), 3),
    (("count", "Student"), 3),
    (("count", "TA"), 3),
    (("extent", "Person"), 2),
    (("extent", "Student"), 2),
    (("extent", "TA"), 3),
    (("classes", None), 4),
)


def read_step(card) -> Step:
    kind, view_class = card
    if kind == "classes":
        return Step("read", {"type": "classes"})
    return Step("read", {"type": kind, "class": view_class})


def read_pinned_script(seed: int, conn: int, base: Baseline) -> Iterator[Step]:
    """Reads only: count/extent/classes, and one request in 21 an extent
    with values on TA (~1,700 objects, ~200 KB, under the 1 MiB frame
    ceiling)."""
    for card in _deck(_rng(seed, conn, "read_pinned"), READS + ((("values", "TA"), 1),)):
        if card[0] == "values":
            yield Step("read_values", {"type": "extent", "class": "TA", "values": True})
        else:
            yield read_step(card)


class _Writer:
    """Seeded single writes on one connection's share of the population.

    Connection ``conn`` of ``conns`` owns every ``conns``-th Student, so
    the last value written to an (oid, attribute) is always its own."""

    def __init__(self, rng: random.Random, conn: int, conns: int, base: Baseline):
        self.rng = rng
        self.conn = conn
        students = base.extents["Student"]
        self.students = students[conn::conns]
        self.tas = base.extents["TA"][conn::conns]
        self.names = [base.names[o] for o in self.students]
        self.non_ta = base.non_ta_students
        self.outstanding = 0
        self.created = 0

    def set_oid(self) -> dict:
        if self.rng.random() < 0.3:
            return {
                "op": "set",
                "class": "TA",
                "oids": [self.rng.choice(self.tas)],
                "values": {"salary": self.rng.randrange(1000, 9000)},
            }
        return {
            "op": "set",
            "class": "Student",
            "oids": [self.rng.choice(self.students)],
            "values": {"age": self.rng.randrange(18, 90)},
        }

    def set_where(self) -> dict:
        return {
            "op": "set",
            "class": "Student",
            "values": {"major": f"m{self.rng.randrange(1000)}"},
            "where": {
                "kind": "compare",
                "attribute": "name",
                "op": "==",
                "value": self.rng.choice(self.names),
            },
        }

    def churn(self) -> dict:
        """A create, or a delete of this connection's oldest create, so
        the population never drifts more than MAX_OUTSTANDING."""
        if self.outstanding and (
            self.outstanding >= MAX_OUTSTANDING or self.rng.random() < 0.5
        ):
            self.outstanding -= 1
            return {"op": "delete", "class": "Student", "oids": [OWN]}
        self.outstanding += 1
        self.created += 1
        return {
            "op": "create",
            "class": "Student",
            "values": {
                "name": f"w{self.conn}-{self.created}",
                "age": self.rng.randrange(18, 90),
                "major": "bench",
            },
        }

    def batch(self) -> dict:
        return {
            "type": "apply_many",
            "updates": [self.set_oid(), self.set_oid(), self.set_where(), self.churn()],
        }

    def aborting_batch(self) -> dict:
        """Rejected at its last op: a set on TA naming a non-TA Student."""
        return {
            "type": "apply_many",
            "updates": [
                {
                    "op": "set",
                    "class": "Student",
                    "oids": [self.rng.choice(self.students)],
                    "values": {"age": ABORT_AGE},
                },
                {
                    "op": "create",
                    "class": "Student",
                    "values": {"name": f"abort{self.conn}", "age": ABORT_AGE},
                },
                {
                    "op": "set",
                    "class": "TA",
                    "oids": [self.rng.choice(self.non_ta)],
                    "values": {"salary": 1},
                },
            ],
        }


def _update(spec: dict) -> dict:
    return {"type": "update", **spec}


def write_online_script(seed: int, conn: int, base: Baseline) -> Iterator[Step]:
    """Writes with reads-after-write; connection 0 also flips an
    attribute in and out of ``Person`` every WRITE_PAIR_EVERY requests."""
    rng = _rng(seed, conn, "write_online")
    writer = _Writer(rng, conn, 2, base)
    deck = _deck(rng, (
        (("count", "Person"), 4),
        (("count", "Student"), 4),
        (("count", "TA"), 4),
        (("set_oid", None), 4),
        (("set_where", None), 2),
        (("churn", None), 3),
        (("batch", None), 3),
        (("abort", None), 2),
    ))
    pairs = 0
    index = 0
    while True:
        index += 1
        if conn == 0 and pairs < WRITE_PAIRS and index % WRITE_PAIR_EVERY == 0:
            pairs += 1
            name = f"tag{pairs}"
            yield Step(
                "schema_change",
                {"type": "add_attribute", "name": name, "to": "Person", "domain": "str"},
                drain=True,
            )
            yield Step(
                "schema_change",
                {"type": "delete_attribute", "name": name, "from": "Person"},
                drain=True,
            )
            continue
        card = next(deck)
        kind = card[0]
        if kind == "count":
            yield read_step(card)
        elif kind == "set_oid":
            yield Step("write", _update(writer.set_oid()))
        elif kind == "set_where":
            yield Step("write", _update(writer.set_where()))
        elif kind == "churn":
            yield Step("write", _update(writer.churn()))
        elif kind == "batch":
            yield Step("write", writer.batch())
        else:
            yield Step("abort", writer.aborting_batch(), expect="rejected")


def evolve_reader_script(seed: int, conn: int, base: Baseline) -> Iterator[Step]:
    """Connection B of ``evolve_small``: reads and population-neutral
    single writes through ``VS1`` while A evolves its own view."""
    rng = _rng(seed, conn, "evolve_small")
    writer = _Writer(rng, conn, 2, base)
    for card in _deck(rng, READS + ((("set_oid", None), 1), (("churn", None), 1))):
        kind = card[0]
        if kind in ("count", "extent", "classes"):
            yield read_step(card)
        elif kind == "set_oid":
            yield Step("write", _update(writer.set_oid()))
        else:
            yield Step("write", _update(writer.churn()))


def evolve_changes(seed: int, twin: TseDatabase, count: int = EVOLVE_CHANGES) -> List[Step]:
    """A fixed sequence of ``count`` schema changes on ``EVO``, each one
    checked to commit by applying it to ``twin`` through
    ``db.schema_change`` (the twin ends in the state the server must
    reach).  Candidates the twin rejects are skipped, deterministically."""
    rng = _rng(seed, 0, "evolve_changes")
    added_attrs: List[Tuple[str, str]] = []
    added_methods: List[Tuple[str, str]] = []
    added_classes: List[str] = []
    added_edges: List[Tuple[str, str]] = []
    steps: List[Step] = []
    serial = 0
    while len(steps) < count:
        serial += 1
        op = _pick(rng, OPERATOR_WEIGHTS)
        view = twin.describe_view(EVOLVE_VIEW)["classes"]
        classes = sorted(view)
        # attribute and method changes land on leaf classes, so each
        # change primes one class rather than a whole subtree
        shape = twin.views.current(EVOLVE_VIEW)
        leaves = [c for c in classes if not shape.direct_subs_of(c)]

        def visible(pairs):
            live = [(n, c) for n, c in pairs if c in view and n in view[c]["properties"]]
            rng.shuffle(live)
            return live[:3]

        if op == "add_attribute":
            candidates = [{"name": f"a{serial}", "to": rng.choice(leaves), "domain": "int"}]
        elif op == "add_method":
            candidates = [{"name": f"m{serial}", "to": rng.choice(leaves)}]
        elif op == "delete_attribute":
            candidates = [{"name": n, "from": c} for n, c in visible(added_attrs)]
        elif op == "delete_method":
            candidates = [{"name": n, "from": c} for n, c in visible(added_methods)]
        elif op == "add_class":
            candidates = [{"name": f"K{serial}", "connected_to": rng.choice(classes)}]
        elif op == "delete_class":
            live = [c for c in added_classes if c in view]
            rng.shuffle(live)
            candidates = [{"name": c} for c in live[:3]]
        elif op == "add_edge":
            candidates = [dict(zip(("sup", "sub"), rng.sample(classes, 2))) for _ in range(6)]
        else:  # delete_edge
            live = list(added_edges)
            rng.shuffle(live)
            candidates = [{"sup": a, "sub": b} for a, b in live[:3]]
        for args in candidates:
            try:
                outcome = twin.schema_change(EVOLVE_VIEW, op, args)
            except Exception:  # noqa: BLE001 - the twin refused: try another
                continue
            if op == "add_attribute":
                added_attrs.append((args["name"], args["to"]))
            elif op == "add_method":
                added_methods.append((args["name"], args["to"]))
            elif op == "add_class":
                added_classes.append(args["name"])
            elif op == "add_edge":
                added_edges.append((args["sup"], args["sub"]))
            elif op == "delete_edge":
                added_edges.remove((args["sup"], args["sub"]))
            steps.append(
                Step("schema_change", {"type": op, **args}, version=outcome["version"], drain=True)
            )
            break
    return steps


@dataclass
class Scripts:
    """Per-connection views and scripts of one run: endless iterators,
    or a list that must run to its end (see ``client.drive``)."""

    views: List[str]
    scripts: List[Iterable[Step]]


def make_scripts(workload: str, seed: int, base: Baseline, twin: TseDatabase) -> Scripts:
    if workload == "read_pinned":
        return Scripts(
            [DATA_VIEW, DATA_VIEW],
            [read_pinned_script(seed, c, base) for c in (0, 1)],
        )
    if workload == "write_online":
        return Scripts(
            [DATA_VIEW, DATA_VIEW],
            [write_online_script(seed, c, base) for c in (0, 1)],
        )
    return Scripts(
        [EVOLVE_VIEW, DATA_VIEW],
        [evolve_changes(EVOLVE_SEED, twin), evolve_reader_script(seed, 1, base)],
    )
