"""The program's documented JSON formats, read and written without the program.

Inputs reach the program, and answers come back, in the tagged JSON
format of ``repro.io.jsonio`` (terms ``{"const": v}`` / ``{"var": n}``,
condition trees ``{"node": "atom" | "and" | "or", ...}``).  The oracles
work on the plain Python values this module decodes, so no check relies
on the program's own condition or table code.  ``HttpClient`` keeps one
keep-alive connection, so a run talks to the server over exactly one
socket (and so through exactly one handler thread).
"""

from __future__ import annotations

import http.client
import json
from typing import NamedTuple

__all__ = [
    "HttpClient",
    "Var",
    "condition_variables",
    "decode_table",
    "encode_database",
    "holds",
    "valued",
]


class Var(NamedTuple):
    """A labelled null (variable) in a decoded row."""

    name: str


def _term(data: dict):
    if "var" in data:
        return Var(data["var"])
    if "const" in data:
        return data["const"]
    raise ValueError(f"not a term object: {data!r}")


def decode_table(data: dict):
    """``(rows, global_atoms)``: rows as ``(terms, condition_json_or_None)``."""
    if data.get("kind") != "ctable":
        raise ValueError(f"not a ctable object: {data.get('kind')!r}")
    rows = [
        (tuple(_term(t) for t in row["terms"]), row.get("condition"))
        for row in data["rows"]
    ]
    return rows, list(data.get("global", []))


def _const(value) -> dict:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"benchmark inputs use int/str constants, got {value!r}")
    return {"const": value}


def encode_database(tables: dict) -> dict:
    """Encode ``{name: (arity, [(terms, condition_json_or_None), ...])}``.

    Terms are plain constants or :class:`Var`; conditions are already in
    the tagged condition-tree form.
    """
    out = []
    for name, (arity, rows) in tables.items():
        encoded = []
        for terms, condition in rows:
            row = {
                "terms": [
                    {"var": t.name} if isinstance(t, Var) else _const(t) for t in terms
                ]
            }
            if condition is not None:
                row["condition"] = condition
            encoded.append(row)
        out.append(
            {"kind": "ctable", "name": name, "arity": arity, "global": [], "rows": encoded}
        )
    return {"kind": "table-database", "tables": out, "condition": []}


def valued(term, valuation: dict):
    """The constant a decoded term denotes under ``valuation``."""
    return valuation[term.name] if isinstance(term, Var) else term


def _side(data: dict, valuation: dict):
    return valuation[data["var"]] if "var" in data else data["const"]


def _atom_holds(atom: dict, valuation: dict) -> bool:
    equal = _side(atom["left"], valuation) == _side(atom["right"], valuation)
    if atom["op"] == "=":
        return equal
    if atom["op"] == "!=":
        return not equal
    raise ValueError(f"unknown atom operator {atom['op']!r}")


def holds(condition, valuation: dict) -> bool:
    """Evaluate a condition tree (or ``None``, meaning true) under a
    total valuation of its variables."""
    if condition is None:
        return True
    node = condition["node"]
    if node == "atom":
        return _atom_holds(condition["atom"], valuation)
    if node == "and":
        return all(holds(c, valuation) for c in condition["children"])
    if node == "or":
        return any(holds(c, valuation) for c in condition["children"])
    raise ValueError(f"unknown condition node {node!r}")


def condition_variables(condition, into: set) -> set:
    """Collect the variable names a condition tree mentions."""
    if condition is None:
        return into
    if condition["node"] == "atom":
        for side in (condition["atom"]["left"], condition["atom"]["right"]):
            if "var" in side:
                into.add(side["var"])
    else:
        for child in condition["children"]:
            condition_variables(child, into)
    return into


class HttpClient:
    """One keep-alive HTTP/1.1 connection to the benchmark's server."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method: str, path: str, payload=None):
        """Returns ``(status, body_bytes)``; the caller parses the body
        outside its timed region."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, data

    def close(self) -> None:
        self._conn.close()
