"""``view_stream``: update batches beside reads of two materialized views.

A 4-dim ground star is served over HTTP with two views, defined through
the server, that share the star's join spine and each select a few
hundred answer rows.  Each operation is one ``POST /update`` carrying a
fixed-size batch from a seeded ``update_stream`` over the fact table,
then one ``use_views`` read of each view.  It drives the write path
(updates, view delta and targeted-recompute maintenance, statistics
invalidation, the per-update snapshot publish) and checks that the reads
which follow are fresh; planning and large-answer encoding play almost
no part.  Batches rather than single updates keep operations alike in
cost: a single insert, delete or modify differ by about 2x.
"""

from __future__ import annotations

import json
import random

import served
from oracles import star_answers
from refclock import Tally
from wire import decode_table

NUM_DIMS = 4
DIM_ROWS = 8
FACT_ROWS = 2000
BATCH = 6
WARMUP = 2

_BODY = ", ".join(
    ["F(K0, K1, K2, K3)"] + [f"D{i}(K{i}, P{i})" for i in range(NUM_DIMS)]
)
#: View name -> (rule text, the fact column it selects on, the key).
VIEWS = {
    "V1": (f"V1(P0, P1, P2, P3) :- {_BODY}, K0 = 1.", 0, 1),
    "V2": (f"V2(P0, P1, P2, P3) :- {_BODY}, K1 = 2.", 1, 2),
}

#: Fails today, every time: the batch's last update names an unknown
#: relation, the server rejects the batch, but the insert before it has
#: already been published (``DatabaseSession.apply`` publishes per update).
REJECTED_BATCH = [["insert", "F", [1, 0, 0, 0]], ["insert", "NoSuchRelation", [0]]]

UPDATE_PATH = f"/dbs/{served.DB}/update"
QUERY_PATH = f"/dbs/{served.DB}/query"


def _plain(op) -> list:
    """An ``update_stream`` operation as the JSON the server takes."""
    return [op[0], op[1]] + [[c.value for c in fact] for fact in op[2:]]


class ViewStream:
    name = "view_stream"

    def prepare(self, seed: int, n_ops: int) -> None:
        from repro.io.jsonio import database_to_json
        from repro.workloads import star_join_database, update_stream

        rng = random.Random(seed)
        db = star_join_database(rng, num_dims=NUM_DIMS, dim_rows=DIM_ROWS, fact_rows=FACT_ROWS)
        self.payload = database_to_json(db)
        tables = {t["name"]: decode_table(t)[0] for t in self.payload["tables"]}
        self.initial = {name: {terms for terms, _ in rows} for name, rows in tables.items()}
        ops = [_plain(op) for op in update_stream(rng, db, (WARMUP + n_ops) * BATCH, relations=["F"])]
        batches = [ops[i : i + BATCH] for i in range(0, len(ops), BATCH)]
        self.warmup, self.batches = batches[:WARMUP], batches[WARMUP:]
        self.server = None
        self.replay = None

    # -- the replica the reads are checked against ------------------------

    def _apply_replica(self, batch) -> None:
        for op in batch:
            facts = self.replica[op[1]]
            if op[0] == "insert":
                facts.add(tuple(op[2]))
            elif op[0] == "delete":
                facts.discard(tuple(op[2]))
            else:
                facts.discard(tuple(op[2]))
                facts.add(tuple(op[3]))
        self.version += len(batch)

    def _expected(self, view: str) -> set:
        _, column, key = VIEWS[view]
        dims = [self.replica[f"D{i}"] for i in range(NUM_DIMS)]
        return star_answers(self.replica["F"], dims, select={column: key})

    # -- set-up ----------------------------------------------------------

    def setup(self, clock, traced: bool):
        """Start a server, load the star, define both views, warm up."""
        self.replica = {name: set(rows) for name, rows in self.initial.items()}
        self.version = 0
        stage = Tally(clock)
        self.server = stage(served.Server)
        status, _ = stage(
            self.server.request, "POST", f"/dbs/{served.DB}", {"database": self.payload}
        )
        if status != 201:
            raise RuntimeError(f"database load answered HTTP {status}")
        for text, _, _ in VIEWS.values():
            status, _ = stage(
                self.server.request, "POST", f"/dbs/{served.DB}/views", {"query": text}
            )
            if status != 201:
                raise RuntimeError(f"view definition answered HTTP {status}")
        if traced:
            self._setup_replay()
        for batch in self.warmup:
            out = stage(self._send, batch)
            if not self._check_batch(batch, out):
                raise RuntimeError("warm-up answer is wrong")
            if traced:
                self._replay_batch(batch, None)
        return stage.scaled, stage.raw

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- operations ------------------------------------------------------

    def _send(self, batch):
        update = self.server.request("POST", UPDATE_PATH, {"ops": batch})
        reads = [
            self.server.request("POST", QUERY_PATH, {"query": text, "use_views": True})
            for text, _, _ in VIEWS.values()
        ]
        return update, reads

    def load(self, i: int) -> None:
        """Nothing to load: the inputs are on the server."""

    def op(self, i: int):
        return self._send(self.batches[i])

    def _reads_match(self, reads) -> bool:
        for view, (status, body) in zip(VIEWS, reads):
            if status != 200:
                return False
            answer = json.loads(body)
            if answer["version"] != self.version:
                return False
            rows, global_atoms = decode_table(answer["table"])
            if global_atoms or any(condition is not None for _, condition in rows):
                return False
            got = [terms for terms, _ in rows]
            expected = self._expected(view)
            if len(got) != len(expected) or set(got) != expected:
                return False
        return True

    def _check_batch(self, batch, out) -> bool:
        (status, body), reads = out
        self._apply_replica(batch)
        if status != 200 or json.loads(body)["version"] != self.version:
            return False
        return self._reads_match(reads)

    def check(self, i: int, out) -> bool:
        return self._check_batch(self.batches[i], out)

    def probes(self) -> list:
        return [self._rejected_batch]

    def _rejected_batch(self) -> bool:
        """The server must refuse the batch, and publish none of it."""
        (status, _), reads = self._send(REJECTED_BATCH)
        return 400 <= status < 500 and self._reads_match(reads)

    # -- traced run ------------------------------------------------------

    def _setup_replay(self) -> None:
        """An in-process session equal to the served one, plus a bare
        update chain (database, statistics store, view manager) that
        splits each update into its layers."""
        from repro.io.jsonio import database_from_json
        from repro.relational.stats import StatsStore
        from repro.server import DatabaseSession
        from repro.server.pool import QueryDispatcher
        from repro.views import ViewManager

        session = DatabaseSession("replay", database_from_json(self.payload))
        for text, _, _ in VIEWS.values():
            session.define_view(text)
        db = database_from_json(self.payload)
        store = StatsStore(db)
        manager = ViewManager(db, stats=store)
        for name, (text, _, _) in VIEWS.items():
            manager.define(name, text)
        self.replay = {
            "session": session,
            "dispatcher": QueryDispatcher(workers=0, cache_size=0),
            "db": db,
            "store": store,
            "manager": manager,
        }

    def _replay_batch(self, batch, tracer):
        """Apply ``batch`` to the replay session and the bare chain,
        under spans when a tracer is given; returns the counter deltas."""
        from contextlib import nullcontext

        from repro.extensions.updates import apply_update

        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        r = self.replay
        session = r["session"]
        values: dict = {}
        before_cond = served.cond_lookups()
        before_coll = _attr(session.store, "table_collections")
        with span("session.apply"):
            session.apply(batch)
        values.update(served.cond_metrics(before_cond, served.cond_lookups()))
        after_coll = _attr(session.store, "table_collections")
        values["relational.stats_collections"] = _delta(before_coll, after_coll)

        manager, store, db = r["manager"], r["store"], r["db"]
        before_views = _counters(manager)
        for op in batch:
            update = tuple(op[:2]) + tuple(tuple(f) for f in op[2:])
            with span("updates.apply"):
                db = apply_update(db, update, stats=store)
            with span("views.maintain"):
                if op[0] == "insert":
                    manager.notify_insert(op[1], update[2], db)
                elif op[0] == "delete":
                    manager.notify_delete(op[1], update[2], db)
                else:
                    manager.notify_modify(op[1], update[2], update[3], db)
            with span("relational.stats"):
                store.snapshot(db)
        r["db"] = db
        after_views = _counters(manager)
        for key in ("delta_rows", "recomputed_nodes"):
            values[f"views.{key}"] = _delta(
                None if before_views is None else before_views.get(key),
                None if after_views is None else after_views.get(key),
            )
        return values

    def traced_op(self, i: int, clock, tracer):
        batch = self.batches[i]

        def send():
            with tracer.span("http.roundtrip"):
                return self.op(i)

        out, raw, scaled = clock.call(send)
        update, reads = out
        values = self._replay_batch(batch, tracer)
        values["io.response_kb"] = (len(update[1]) + sum(len(b) for _, b in reads)) / 1024
        values["dispatch.view_answers"] = sum(
            json.loads(body).get("served_by") == "view" for _, body in reads
        )
        session, dispatcher = self.replay["session"], self.replay["dispatcher"]
        for text, _, _ in VIEWS.values():
            with tracer.span("session.compile"):
                session.compile_query(text)
            with tracer.span("dispatch"):
                result, served_by = dispatcher.query(session, text, use_views=True)
            with tracer.span("io.encode"):
                served.encode_answer(result, served_by)
        ms = tracer.op_self_ms()
        server_side = ms["session.apply"] + ms["dispatch"] + ms["io.encode"]
        values.update(
            {
                "http.roundtrip_ms": ms["http.roundtrip"],
                "http.transport_ms": ms["http.roundtrip"] - server_side,
                "io.encode_ms": ms["io.encode"],
                "dispatch.ms": ms["dispatch"],
                "session.compile_ms": ms["session.compile"],
                "session.apply_ms": ms["session.apply"],
                "session.publish_ms": ms["session.apply"]
                - ms["updates.apply"]
                - ms["views.maintain"],
                "relational.stats_ms": ms["relational.stats"],
                "updates.apply_ms": ms["updates.apply"] / len(batch),
                "views.maintain_ms": ms["views.maintain"] / len(batch),
            }
        )
        return out, raw, scaled, values


def _attr(obj, name):
    return getattr(obj, name, None)


def _counters(manager):
    counters = getattr(manager, "counters", None)
    return None if counters is None else dict(counters)


def _delta(before, after):
    return None if before is None or after is None else after - before
