"""``tc_fixpoint``: semi-naive transitive closure over uncertain layered graphs.

Each operation is one fixpoint from scratch through the library API
(``CTFixpoint`` -> ``evaluation(db).database()``).  Its graph is the
disjoint union of ``COMPONENTS`` graphs from ``layered_uncertain_graph``
(pin and Or-domain edge conditions over two shared variables); a union
of several small graphs keeps the cost of one operation close to the
next, where a single graph's cost varies by about 45% with the seed.
This is where the condition machinery works hardest: canonical-DNF
subsumption each round, the insert-delta rules and condition-cache
traffic.  No server, JSON layer or views: a serving or encoding change
should not move it.
"""

from __future__ import annotations

import random

from oracles import closure, world_edges, world_valuations
from refclock import Tally
from wire import Var, condition_variables, decode_table, encode_database, holds, valued

LAYERS = 4
WIDTH = 4
COMPONENTS = 12
#: Worlds per operation whose rows are checked against a closure.
SAMPLED_WORLDS = 3
#: A value no edge condition names: one stand-in for all the others.
OTHER = -1
WARMUP = 2
PROGRAM = "TC(X,Y) :- edge(X,Y). TC(X,Z) :- TC(X,Y), edge(Y,Z)."


def _graph(rng: random.Random) -> list:
    """Edge rows ``((src, dst), condition)`` of one operation's graph."""
    from repro.io.jsonio import database_to_json
    from repro.workloads import layered_uncertain_graph

    span = (LAYERS + 1) * WIDTH
    rows = []
    for component in range(COMPONENTS):
        db = database_to_json(layered_uncertain_graph(rng, layers=LAYERS, width=WIDTH))
        table = next(t for t in db["tables"] if t["name"] == "edge")
        edge_rows, global_atoms = decode_table(table)
        if global_atoms:
            raise ValueError("layered graphs carry no global condition")
        for terms, condition in edge_rows:
            if any(isinstance(t, Var) for t in terms):
                raise ValueError("layered graphs have ground endpoints")
            rows.append((tuple(t + component * span for t in terms), condition))
    return rows


class _Graph:
    """One operation's input, and the answers it must produce.

    The expected answers are computed when first asked for and dropped
    with the graph, so the heap holds one operation's oracle at a time
    (a heap grown by the benchmark would slow the program's collector).
    """

    def __init__(self, rng: random.Random) -> None:
        self.rows = _graph(rng)
        self.sample_rng = random.Random(rng.random())

    def payload(self) -> dict:
        return encode_database({"edge": (2, self.rows)})

    def expected(self):
        """``(possible pairs, [(valuation, closure), ...])``."""
        variables: set = set()
        for _, condition in self.rows:
            condition_variables(condition, variables)
        constants = set(range(WIDTH))  # the values edge conditions compare to
        worlds = world_valuations(variables, constants, OTHER)
        possible = set()
        for valuation in worlds:
            possible |= closure(world_edges(self.rows, valuation))
        sampled = [
            (valuation, closure(world_edges(self.rows, valuation)))
            for valuation in self.sample_rng.sample(worlds, SAMPLED_WORLDS)
        ]
        return possible, sampled


class TcFixpoint:
    name = "tc_fixpoint"

    def prepare(self, seed: int, n_ops: int) -> None:
        rng = random.Random(seed)
        self.warmup = [_Graph(rng) for _ in range(WARMUP)]
        self.graphs = [_Graph(rng) for _ in range(n_ops)]
        self.program = None
        self.db = None

    def setup(self, clock, traced: bool):
        """Compile the program, load the warm-up graphs, run them."""
        from repro.io.jsonio import database_from_json

        stage = Tally(clock)
        self.program = stage(_compile)
        for graph in self.warmup:
            db = stage(database_from_json, graph.payload())
            out = stage(self._fixpoint, db)
            if not _matches(graph, out[1]):
                raise RuntimeError("warm-up closure is wrong")
        return stage.scaled, stage.raw

    def teardown(self) -> None:
        self.program = None

    def _fixpoint(self, db):
        evaluation = self.program.evaluation(db)
        return evaluation, evaluation.database()

    def load(self, i: int) -> None:
        """Decode operation ``i``'s graph into the program's tables
        (untimed: loading is not part of the operation)."""
        from repro.io.jsonio import database_from_json

        self.db = database_from_json(self.graphs[i].payload())

    def op(self, i: int):
        return self._fixpoint(self.db)

    def check(self, i: int, out) -> bool:
        self.db = None
        return _matches(self.graphs[i], out[1])

    def probes(self) -> list:
        return []

    def traced_op(self, i: int, clock, tracer):
        from served import cond_lookups, cond_metrics

        with tracer.span("fixpoint.compile"):
            _compile()
        before = cond_lookups()

        def fixpoint():
            with tracer.span("fixpoint.eval"):
                return self.op(i)

        out, raw, scaled = clock.call(fixpoint)
        values = cond_metrics(before, cond_lookups())
        evaluation, db = out
        ms = tracer.op_self_ms()
        derived = len(db["TC"])
        values.update(
            {
                "fixpoint.compile_ms": ms["fixpoint.compile"],
                "fixpoint.eval_ms": ms["fixpoint.eval"],
                "fixpoint.rounds": getattr(evaluation, "rounds", None),
                "fixpoint.derived_rows": derived,
                "fixpoint.delta_rows": _delta_rows(evaluation),
                "fixpoint.us_per_derived_row": ms["fixpoint.eval"] * 1e3 / derived,
            }
        )
        return out, raw, scaled, values


def _compile():
    from repro.queries.fixpoint import CTFixpoint
    from repro.relational.parser import parse_datalog

    return CTFixpoint(parse_datalog(PROGRAM))


def _delta_rows(evaluation):
    try:
        return sum(sum(r["deltas"].values()) for r in evaluation.round_stats)
    except (AttributeError, KeyError, TypeError):
        return None


def _matches(graph: _Graph, out) -> bool:
    """The derived pairs are exactly those some world reaches, and in each
    sampled world the rows whose conditions hold are that world's closure."""
    from repro.io.jsonio import table_to_json

    rows, global_atoms = decode_table(table_to_json(out["TC"]))
    if global_atoms:
        return False
    if any(isinstance(t, Var) for terms, _ in rows for t in terms):
        return False
    possible, sampled = graph.expected()
    if {terms for terms, _ in rows} != possible:
        return False
    for valuation, expected in sampled:
        present = {
            tuple(valued(t, valuation) for t in terms)
            for terms, condition in rows
            if holds(condition, valuation)
        }
        if present != expected:
            return False
    return True
