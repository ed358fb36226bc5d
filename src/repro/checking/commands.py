"""Typed, JSON-serializable command vocabulary for differential fuzzing.

A :class:`Command` is one step of a fuzz run: a tag (``op``) plus a flat
dict of JSON-safe arguments.  Commands are *self-contained and blind*:
they never embed live object ids or schema names resolved at generation
time.  Every reference to a view / class / property / object is an
**index** that the runner resolves modulo the oracle's current sorted
observable lists at apply time.  That makes a command list:

* deterministic to replay (resolution only depends on the commands before
  it),
* robust under ddmin shrinking (removing an earlier command changes what
  an index resolves to, never crashes resolution — an unresolvable
  reference becomes an agreed rejection on both systems),
* trivially serializable to the JSON failure corpus.

Fresh names (classes ``K<n>``/``C<n>``, attributes ``a<n>``, methods
``m<n>``, views ``V<n>``, rename targets ``R<n>``/``r<n>``) come from
monotone per-generator counters, so a property name is never reused
across a run — the discipline :mod:`repro.checking.oracle` relies on.

The vocabulary covers the section 3 surface: all eight schema-change
primitives plus the two composed operators (``insert_class``,
``delete_class_2``) and the rename operators; the five generic updates;
savepoint transactions (commit and abort); atomic update batches
(``apply_many``); WAL checkpoints, clean
recovery, and crash injection at every :data:`CRASH_POINTS` seam; pinned
reader sessions (open / check / refresh / close); and lazy-migration
drains (``backfill_step``), which must be observably invisible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

CRASH_POINTS = (
    "wal:mid_append",
    "checkpoint:before_rename",
    "checkpoint:after_rename",
)

#: ops legal inside a savepoint transaction (generic updates only: a crash,
#: checkpoint or nested savepoint inside a savepoint is rejected by the real
#: system; schema changes inside an *aborted* savepoint would publish a
#: phantom epoch to concurrent readers, which the session layer forbids by
#: construction — the generator simply never asks for either)
UPDATE_OPS = ("create", "add", "remove", "set", "delete")

SCHEMA_OPS = (
    "add_attribute",
    "add_method",
    "delete_attribute",
    "delete_method",
    "add_edge",
    "delete_edge",
    "add_class",
    "delete_class",
    "rename_class",
    "rename_property",
    "insert_class",
    "delete_class_2",
)

READER_OPS = ("reader_open", "reader_check", "reader_refresh", "reader_close")

AUTHORING_OPS = ("define_class", "create_view")

DURABILITY_OPS = ("checkpoint", "crash", "recover_clean")

#: lazy-migration drains.  ``backfill_step`` captures a bounded batch of
#: pending epoch extents on the real side only — migration is transparent,
#: so the oracle applies nothing and the equivalence sweep must still pass
#: (that *is* the property being fuzzed)
MIGRATION_OPS = ("backfill_step",)

#: the fleet-simulator vocabulary (section 7 / rolling deploys): app slots
#: pin a view *version* and read/write through that pin while the global
#: schema advances underneath; ``roll_app`` rebinds a slot to the successor
#: version, ``retire_version`` decommissions a vacated version, and
#: ``merge_views`` folds two view versions into a brand-new view.  Writes
#: through an old pin must propagate to every newer (and merged) view —
#: that propagation is exactly what the post-step sweep checks.
VERSION_OPS = (
    "pin_view_version",
    "read_via_version",
    "write_via_version",
    "roll_app",
    "retire_version",
    "merge_views",
)

ALL_OPS = (
    UPDATE_OPS
    + SCHEMA_OPS
    + READER_OPS
    + AUTHORING_OPS
    + DURABILITY_OPS
    + MIGRATION_OPS
    + VERSION_OPS
    + (
        "txn",
        "apply_many",
    )
)

READER_SLOTS = 3

#: simulated app-version slots (the fleet): each holds one (view, version) pin
APP_SLOTS = 4

#: inner ops a ``write_via_version`` can carry (generic updates through the
#: app's pinned handle)
PINNED_WRITE_OPS = ("create", "add", "remove", "set", "delete")


@dataclass(frozen=True)
class Command:
    """One fuzz step: an operation tag plus JSON-safe arguments."""

    op: str
    args: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.args.items()))
        return f"{self.op}({inner})"


def command_to_dict(command: Command) -> dict:
    return {"op": command.op, "args": dict(command.args)}


def command_from_dict(data: dict) -> Command:
    op = data["op"]
    if op not in ALL_OPS:
        raise ValueError(f"unknown command op {op!r}")
    return Command(op=op, args=dict(data.get("args", {})))


_DEFAULT_WEIGHTS = {
    "update": 42,
    "schema": 30,
    "reader": 9,
    "txn": 5,
    "batch": 6,
    "durability": 8,
    "authoring": 6,
    "migration": 4,
    "version": 10,
}


class CommandGenerator:
    """Seeded source of random commands (plus the deterministic setup prefix).

    One generator instance accompanies one run: its monotone counters
    guarantee globally-fresh names across every command it emits, whether
    the op is chosen by the internal RNG (:meth:`next_command`) or forced
    by a Hypothesis rule (:meth:`gen_op`).
    """

    def __init__(self, seed: int, config: Optional[dict] = None) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.config = dict(config or {})
        self.weights = dict(_DEFAULT_WEIGHTS)
        self.weights.update(self.config.get("weights", {}))
        self._counter = 0

    # -- fresh names ----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    # -- the deterministic setup prefix ---------------------------------------

    def setup_commands(self) -> List[Command]:
        """An initial schema/view/WAL/object population, *as commands*.

        Setup is part of the command list so corpus replays start from an
        empty database and the minimizer may shrink setup steps a failure
        does not actually need.
        """
        k0, k1, k2, k3, k4 = (self._fresh("K") for _ in range(5))
        a = [self._fresh("a") for _ in range(6)]
        steps = [
            Command(
                "define_class",
                {
                    "name": k0,
                    "attrs": [
                        {"name": a[0], "required": True, "default": 0},
                        {"name": a[1], "required": False, "default": None},
                    ],
                    "parent_picks": [],
                },
            ),
            Command(
                "define_class",
                {
                    "name": k1,
                    "attrs": [{"name": a[2], "required": False, "default": None}],
                    "parent_picks": [0],
                },
            ),
            Command(
                "define_class",
                {
                    "name": k2,
                    "attrs": [{"name": a[3], "required": True, "default": 1}],
                    "parent_picks": [0],
                },
            ),
            Command(
                "define_class",
                {
                    "name": k3,
                    "attrs": [{"name": a[4], "required": False, "default": None}],
                    "parent_picks": [1, 2],
                },
            ),
            Command(
                "define_class",
                {
                    "name": k4,
                    "attrs": [{"name": a[5], "required": False, "default": 7}],
                    "parent_picks": [],
                },
            ),
            Command(
                "create_view",
                {"name": self._fresh("V"), "picks": [0, 1, 2, 3, 4]},
            ),
            Command("create_view", {"name": self._fresh("V"), "picks": [0, 1, 4]}),
            Command("enable_wal", {}),
        ]
        for i in range(4):
            steps.append(
                Command(
                    "create",
                    {
                        "view_i": 0,
                        "cls_i": i,
                        "assigns": [[j, self.rng.randint(0, 9)] for j in range(2)],
                    },
                )
            )
        steps.append(Command("reader_open", {"slot": 0}))
        return steps

    # -- random command production --------------------------------------------

    def _i(self, rng: random.Random) -> int:
        return rng.randrange(0, 64)

    def next_command(self) -> Command:
        families = list(self.weights)
        weights = [self.weights[f] for f in families]
        family = self.rng.choices(families, weights=weights, k=1)[0]
        if family == "update":
            op = self.rng.choice(UPDATE_OPS)
        elif family == "schema":
            op = self.rng.choice(SCHEMA_OPS)
        elif family == "reader":
            op = self.rng.choice(READER_OPS)
        elif family == "txn":
            op = "txn"
        elif family == "batch":
            op = "apply_many"
        elif family == "durability":
            op = self.rng.choice(DURABILITY_OPS)
        elif family == "migration":
            op = self.rng.choice(MIGRATION_OPS)
        elif family == "version":
            op = self.rng.choice(VERSION_OPS)
        else:
            op = self.rng.choice(AUTHORING_OPS)
        return self.gen_op(op, self.rng)

    def generate(self, n: int) -> List[Command]:
        """Setup prefix plus ``n`` random commands."""
        commands = self.setup_commands()
        commands.extend(self.next_command() for _ in range(n))
        return commands

    def gen_op(self, op: str, rng: Optional[random.Random] = None) -> Command:
        """A random instance of a *specific* operation (Hypothesis rules
        force the op and supply their own deterministic RNG)."""
        rng = rng or self.rng
        maker = getattr(self, f"_gen_{op}")
        return maker(rng)

    # -- per-op makers (args are blind indices; see module docstring) ---------

    def _gen_define_class(self, rng) -> Command:
        attrs = []
        for _ in range(rng.randint(1, 2)):
            required = rng.random() < 0.3
            default = rng.randint(0, 9) if rng.random() < 0.7 else None
            attrs.append(
                {"name": self._fresh("a"), "required": required, "default": default}
            )
        parent_picks = [self._i(rng) for _ in range(rng.randint(0, 2))]
        return Command(
            "define_class",
            {"name": self._fresh("K"), "attrs": attrs, "parent_picks": parent_picks},
        )

    def _gen_create_view(self, rng) -> Command:
        picks = [self._i(rng) for _ in range(rng.randint(1, 4))]
        return Command("create_view", {"name": self._fresh("V"), "picks": picks})

    def _gen_create(self, rng) -> Command:
        assigns = [
            [self._i(rng), rng.randint(0, 9)] for _ in range(rng.randint(0, 3))
        ]
        return Command(
            "create",
            {"view_i": self._i(rng), "cls_i": self._i(rng), "assigns": assigns},
        )

    def _gen_add(self, rng) -> Command:
        return Command(
            "add",
            {
                "view_i": self._i(rng),
                "src_cls_i": self._i(rng),
                "obj_i": self._i(rng),
                "cls_i": self._i(rng),
            },
        )

    def _gen_remove(self, rng) -> Command:
        return Command(
            "remove",
            {"view_i": self._i(rng), "cls_i": self._i(rng), "obj_i": self._i(rng)},
        )

    def _gen_set(self, rng) -> Command:
        return Command(
            "set",
            {
                "view_i": self._i(rng),
                "cls_i": self._i(rng),
                "obj_i": self._i(rng),
                "attr_i": self._i(rng),
                "value": rng.randint(0, 9),
            },
        )

    def _gen_delete(self, rng) -> Command:
        return Command(
            "delete",
            {"view_i": self._i(rng), "cls_i": self._i(rng), "obj_i": self._i(rng)},
        )

    def _gen_add_attribute(self, rng) -> Command:
        return Command(
            "add_attribute",
            {
                "view_i": self._i(rng),
                "to_i": self._i(rng),
                "name": self._fresh("a"),
                "default": rng.randint(0, 9) if rng.random() < 0.5 else None,
            },
        )

    def _gen_add_method(self, rng) -> Command:
        return Command(
            "add_method",
            {"view_i": self._i(rng), "to_i": self._i(rng), "name": self._fresh("m")},
        )

    def _gen_delete_attribute(self, rng) -> Command:
        return Command(
            "delete_attribute",
            {"view_i": self._i(rng), "cls_i": self._i(rng), "attr_i": self._i(rng)},
        )

    def _gen_delete_method(self, rng) -> Command:
        return Command(
            "delete_method",
            {"view_i": self._i(rng), "cls_i": self._i(rng), "meth_i": self._i(rng)},
        )

    def _gen_add_edge(self, rng) -> Command:
        return Command(
            "add_edge",
            {"view_i": self._i(rng), "sup_i": self._i(rng), "sub_i": self._i(rng)},
        )

    def _gen_delete_edge(self, rng) -> Command:
        return Command(
            "delete_edge",
            {
                "view_i": self._i(rng),
                "sup_i": self._i(rng),
                "sub_i": self._i(rng),
                "connect": rng.random() < 0.5,
                "conn_i": self._i(rng),
            },
        )

    def _gen_add_class(self, rng) -> Command:
        return Command(
            "add_class",
            {
                "view_i": self._i(rng),
                "name": self._fresh("C"),
                "connect": rng.random() < 0.7,
                "conn_i": self._i(rng),
            },
        )

    def _gen_delete_class(self, rng) -> Command:
        return Command(
            "delete_class", {"view_i": self._i(rng), "cls_i": self._i(rng)}
        )

    def _gen_rename_class(self, rng) -> Command:
        return Command(
            "rename_class",
            {"view_i": self._i(rng), "cls_i": self._i(rng), "new": self._fresh("R")},
        )

    def _gen_rename_property(self, rng) -> Command:
        return Command(
            "rename_property",
            {
                "view_i": self._i(rng),
                "cls_i": self._i(rng),
                "prop_i": self._i(rng),
                "new": self._fresh("r"),
            },
        )

    def _gen_insert_class(self, rng) -> Command:
        return Command(
            "insert_class",
            {
                "view_i": self._i(rng),
                "name": self._fresh("C"),
                "sup_i": self._i(rng),
                "sub_i": self._i(rng),
            },
        )

    def _gen_delete_class_2(self, rng) -> Command:
        return Command(
            "delete_class_2", {"view_i": self._i(rng), "cls_i": self._i(rng)}
        )

    def _gen_txn(self, rng) -> Command:
        inner = []
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(UPDATE_OPS)
            inner.append(command_to_dict(self.gen_op(op, rng)))
        return Command("txn", {"abort": rng.random() < 0.4, "inner": inner})

    def _gen_apply_many(self, rng) -> Command:
        """A ``TseDatabase.apply_many`` batch of 2-5 generic updates.

        Unlike ``txn`` there is no abort flag: the batch's atomicity comes
        from the real system itself — any rejected update must roll back
        the whole batch, which the runner checks against the oracle.
        Authored commands (scenarios, corpus entries) may add
        ``"fail": true``: the runner then appends a guaranteed rejection,
        so the batch does all its work before rolling back.
        """
        inner = []
        for _ in range(rng.randint(2, 5)):
            op = rng.choice(UPDATE_OPS)
            inner.append(command_to_dict(self.gen_op(op, rng)))
        return Command("apply_many", {"inner": inner})

    def _gen_checkpoint(self, rng) -> Command:
        return Command("checkpoint", {})

    def _gen_crash(self, rng) -> Command:
        point = rng.choice(CRASH_POINTS)
        args: Dict[str, object] = {"point": point}
        if point == "wal:mid_append":
            op = rng.choice(UPDATE_OPS + SCHEMA_OPS)
            args["inner"] = command_to_dict(self.gen_op(op, rng))
        return Command("crash", args)

    def _gen_recover_clean(self, rng) -> Command:
        return Command("recover_clean", {})

    def _gen_enable_wal(self, rng) -> Command:
        return Command("enable_wal", {})

    def _gen_backfill_step(self, rng) -> Command:
        return Command("backfill_step", {"limit": rng.randint(1, 4)})

    # -- fleet / version lifecycle (blind indices, like everything else) ------

    def _gen_pin_view_version(self, rng) -> Command:
        return Command(
            "pin_view_version",
            {
                "app": rng.randrange(APP_SLOTS),
                "view_i": self._i(rng),
                "version_sel": self._i(rng),
            },
        )

    def _gen_read_via_version(self, rng) -> Command:
        return Command("read_via_version", {"app": rng.randrange(APP_SLOTS)})

    def _gen_write_via_version(self, rng) -> Command:
        inner = self.gen_op(rng.choice(PINNED_WRITE_OPS), rng)
        return Command(
            "write_via_version",
            {"app": rng.randrange(APP_SLOTS), "inner": command_to_dict(inner)},
        )

    def _gen_roll_app(self, rng) -> Command:
        return Command("roll_app", {"app": rng.randrange(APP_SLOTS)})

    def _gen_retire_version(self, rng) -> Command:
        return Command(
            "retire_version",
            {"view_i": self._i(rng), "version_sel": self._i(rng)},
        )

    def _gen_merge_views(self, rng) -> Command:
        return Command(
            "merge_views",
            {
                "name": self._fresh("V"),
                "first_i": self._i(rng),
                "second_i": self._i(rng),
                "pin_first": rng.random() < 0.35,
                "first_sel": self._i(rng),
                "pin_second": rng.random() < 0.35,
                "second_sel": self._i(rng),
            },
        )

    def _gen_reader_open(self, rng) -> Command:
        return Command("reader_open", {"slot": rng.randrange(READER_SLOTS)})

    def _gen_reader_check(self, rng) -> Command:
        return Command("reader_check", {"slot": rng.randrange(READER_SLOTS)})

    def _gen_reader_refresh(self, rng) -> Command:
        return Command("reader_refresh", {"slot": rng.randrange(READER_SLOTS)})

    def _gen_reader_close(self, rng) -> Command:
        return Command("reader_close", {"slot": rng.randrange(READER_SLOTS)})


# enable_wal appears in setup prefixes and corpus files but is not drawn
# randomly (a second enable is an agreed rejection, pure noise)
ALL_OPS = ALL_OPS + ("enable_wal",)
