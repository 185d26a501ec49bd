"""Pieces shared by the two served workloads: the in-process server and
the program's own layer entry points the traced run calls directly."""

from __future__ import annotations

import json

from wire import HttpClient

__all__ = ["DB", "Server", "cond_lookups", "cond_metrics", "encode_answer", "walk_plan"]

#: The database name every served workload uses.
DB = "bench"


class Server:
    """A ``repro`` server in this process: no worker pool, no request
    cache, one client connection (so one handler thread)."""

    def __init__(self) -> None:
        from repro.server import make_server, start_in_thread

        self.server = make_server(workers=0, cache_size=0)
        self.thread = start_in_thread(self.server)
        host, port = self.server.server_address[:2]
        self.client = HttpClient(host, port)

    def request(self, method: str, path: str, payload=None):
        return self.client.request(method, path, payload)

    def close(self) -> None:
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


def cond_lookups():
    """Summed hits and misses of the program's condition caches, or
    ``None`` when the counters are gone."""
    try:
        from repro.core.conditions import condition_cache_stats

        stats = condition_cache_stats()
        hits = sum(v for k, v in stats.items() if k.endswith("_hits"))
        misses = sum(v for k, v in stats.items() if k.endswith("_misses"))
    except (ImportError, AttributeError, TypeError):
        return None
    return hits, misses


def cond_metrics(before, after) -> dict:
    """``core.cond_lookups`` and ``core.cond_hit_ratio`` over one interval."""
    if before is None or after is None:
        return {"core.cond_lookups": None, "core.cond_hit_ratio": None}
    hits = after[0] - before[0]
    lookups = hits + after[1] - before[1]
    return {
        "core.cond_lookups": lookups,
        "core.cond_hit_ratio": hits / lookups if lookups else 0.0,
    }


def encode_answer(result, served_by: str) -> bytes:
    """What the server's query route encodes for one answer."""
    from repro.io.jsonio import table_to_json

    payload = {
        "version": result.version,
        "rows": len(result.table),
        "classification": result.table.classify(),
        "table": table_to_json(result.table),
        "served_by": served_by,
        "trace_id": "0" * 16,
    }
    return json.dumps(payload).encode("utf-8")


def walk_plan(planned, db, tracer, counts: dict):
    """Evaluate a planned RA tree with the public c-table operators, one
    span per plan node (children nest inside, so a node's self time is its
    operator alone).  Adds output rows to ``counts``; raises
    ``LookupError`` on a node kind it does not know."""
    from repro.ctalgebra import operators as ops
    from repro.relational import algebra as ra

    def visit(node):
        kind = type(node).__name__.lower()
        with tracer.span(f"op:{kind}"):
            if isinstance(node, ra.Scan):
                return db[node.name]
            if isinstance(node, ra.Select):
                table = ops.select_ct(visit(node.child), node.predicates)
            elif isinstance(node, ra.Project):
                table = ops.project_ct(visit(node.child), node.columns)
            elif isinstance(node, ra.Join):
                table = ops.join_ct(visit(node.left), visit(node.right), node.on)
                counts["join_rows"] = counts.get("join_rows", 0) + len(table)
            elif isinstance(node, ra.Product):
                table = ops.product_ct(visit(node.left), visit(node.right))
            elif isinstance(node, ra.Union):
                table = ops.union_ct(visit(node.left), visit(node.right))
            else:
                raise LookupError(f"plan node {type(node).__name__}")
        counts["rows_out"] = counts.get("rows_out", 0) + len(table)
        return table

    return visit(planned)
