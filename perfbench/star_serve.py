"""``star_serve``: one ground 3-dim star UCQ, read over HTTP in a closed loop.

The read path end to end: HTTP, dispatch, compile, statistics, DP plan,
hash joins over all-ground rows and JSON encoding of ~3k answer rows.
The request cache is off, so every request executes.  No conditions,
recursion or writes: fixpoint or view changes should not move it.
"""

from __future__ import annotations

import json
import random

import served
from oracles import star_answers
from refclock import Tally
from wire import decode_table

NUM_DIMS = 3
DIM_ROWS = 50
FACT_ROWS = 3000
QUERY = "Q(P0, P1, P2) :- F(K0, K1, K2), D0(K0, P0), D1(K1, P1), D2(K2, P2)."
WARMUP = 3

QUERY_PATH = f"/dbs/{served.DB}/query"


class StarServe:
    name = "star_serve"

    def prepare(self, seed: int, n_ops: int) -> None:
        from repro.io.jsonio import database_to_json
        from repro.workloads import star_join_database

        db = star_join_database(
            random.Random(seed), num_dims=NUM_DIMS, dim_rows=DIM_ROWS, fact_rows=FACT_ROWS
        )
        self.payload = database_to_json(db)
        tables = {t["name"]: decode_table(t)[0] for t in self.payload["tables"]}
        facts = [terms for terms, _ in tables["F"]]
        dims = [[terms for terms, _ in tables[f"D{i}"]] for i in range(NUM_DIMS)]
        self.expected = star_answers(facts, dims)
        self.server = None
        self.replay = None

    # -- set-up ----------------------------------------------------------

    def setup(self, clock, traced: bool):
        """Start a server, load the database over the wire, warm up;
        returns the set-up's ``(scaled_s, raw_s)``."""
        stage = Tally(clock)
        self.server = stage(served.Server)
        status, _ = stage(
            self.server.request, "POST", f"/dbs/{served.DB}", {"database": self.payload}
        )
        if status != 201:
            raise RuntimeError(f"database load answered HTTP {status}")
        for _ in range(WARMUP):
            if not self.check(-1, stage(self.op, -1)):
                raise RuntimeError("warm-up answer is wrong")
        if traced:
            self._setup_replay()
        return stage.scaled, stage.raw

    def _setup_replay(self) -> None:
        """An in-process session equal to the served one, for the traced
        run's layer-by-layer replay."""
        from repro.io.jsonio import database_from_json
        from repro.server import DatabaseSession
        from repro.server.pool import QueryDispatcher

        session = DatabaseSession("replay", database_from_json(self.payload))
        self.replay = (session, QueryDispatcher(workers=0, cache_size=0))

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- operations ------------------------------------------------------

    def load(self, i: int) -> None:
        """Nothing to load: the inputs are on the server."""

    def op(self, i: int):
        return self.server.request("POST", QUERY_PATH, {"query": QUERY})

    def check(self, i: int, out) -> bool:
        status, body = out
        if status != 200:
            return False
        answer = json.loads(body)
        if answer["version"] != 0:
            return False
        rows, global_atoms = decode_table(answer["table"])
        if global_atoms or any(condition is not None for _, condition in rows):
            return False
        got = [terms for terms, _ in rows]
        return len(got) == len(self.expected) and set(got) == self.expected

    def probes(self) -> list:
        return []

    # -- traced run ------------------------------------------------------

    def traced_op(self, i: int, clock, tracer):
        """The operation under a span, then the replay of each layer."""
        from repro.ctalgebra.evaluate import evaluate_ct_ordered
        from repro.relational.planner import plan

        session, dispatcher = self.replay

        def request():
            with tracer.span("http.roundtrip"):
                return self.op(i)

        out, raw, scaled = clock.call(request)
        values: dict = {"io.response_kb": len(out[1]) / 1024}

        with tracer.span("dispatch"):
            result, served_by = dispatcher.query(session, QUERY)
        values["dispatch.view_answers"] = int(served_by == "view")
        with tracer.span("io.encode"):
            served.encode_answer(result, served_by)

        with tracer.span("session.compile"):
            _, expression = session.compile_query(QUERY)
        store = session.store
        collections = _collections(store)
        with tracer.span("relational.stats"):
            stats = store.snapshot()
        after = _collections(store)
        values["relational.stats_collections"] = (
            None if collections is None or after is None else after - collections
        )
        db = session.snapshot().db
        with tracer.span("relational.plan"):
            planned = plan(expression, stats=stats, ordering="dp")
        before = served.cond_lookups()
        with tracer.span("ctalgebra.eval"):
            evaluate_ct_ordered(expression, db, stats=stats)
        values.update(served.cond_metrics(before, served.cond_lookups()))

        counts: dict = {}
        try:
            with tracer.span("ctalgebra.walk"):
                served.walk_plan(planned, db, tracer, counts)
            walked = True
        except LookupError:
            walked = False
        ms = tracer.op_self_ms()
        values.update(
            {
                "http.roundtrip_ms": ms["http.roundtrip"],
                "dispatch.ms": ms["dispatch"],
                "io.encode_ms": ms["io.encode"],
                "http.transport_ms": ms["http.roundtrip"] - ms["dispatch"] - ms["io.encode"],
                "session.compile_ms": ms["session.compile"],
                "relational.stats_ms": ms["relational.stats"],
                "relational.plan_ms": ms["relational.plan"],
                "ctalgebra.eval_ms": ms["ctalgebra.eval"],
            }
        )
        if walked:
            join_rows = counts.get("join_rows", 0)
            values.update(
                {
                    "ctalgebra.join_ms": ms["op:join"],
                    "ctalgebra.project_ms": ms["op:project"],
                    "ctalgebra.select_ms": ms["op:select"],
                    "ctalgebra.rows_out": counts.get("rows_out", 0),
                    "ctalgebra.join_us_per_row": ms["op:join"] * 1e3 / join_rows
                    if join_rows
                    else 0.0,
                }
            )
        else:
            for name in WALK_METRICS:
                values[name] = None
        return out, raw, scaled, values


WALK_METRICS = (
    "ctalgebra.join_ms",
    "ctalgebra.project_ms",
    "ctalgebra.select_ms",
    "ctalgebra.rows_out",
    "ctalgebra.join_us_per_row",
)


def _collections(store):
    try:
        return store.table_collections
    except AttributeError:
        return None
