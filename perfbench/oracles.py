"""Answers computed apart from the program, from the generated inputs alone.

* ``star_answers`` — a plain hash join of the fact tuples with the
  dimension tuples (what a star UCQ must return on all-ground tables).
* ``closure`` / ``world_closures`` — reachability by bitset propagation
  over the edges present in one world; the union over every world is
  what the set of derived pairs must be, and each sampled world's
  closure is what the rows whose conditions hold in that world must be:
  ``rep(q(T)) = q(rep(T))``.
"""

from __future__ import annotations

import itertools

from wire import holds, valued

__all__ = ["closure", "star_answers", "world_edges", "world_valuations"]


def star_answers(facts, dims, select=None) -> set:
    """Answers of ``Q(P0..Pk) :- F(K0..Kk), D0(K0, P0), ..., Dk(Kk, Pk)``.

    ``facts`` is an iterable of key tuples, ``dims`` a list of iterables
    of ``(key, payload)`` pairs; ``select`` optionally maps a fact
    column to the one key it must equal.
    """
    index = []
    for dim in dims:
        by_key: dict = {}
        for key, payload in dim:
            by_key.setdefault(key, []).append(payload)
        index.append(by_key)
    out = set()
    for fact in facts:
        if select is not None and any(fact[c] != v for c, v in select.items()):
            continue
        partial = [()]
        for key, by_key in zip(fact, index):
            payloads = by_key.get(key)
            if not payloads:
                break
            partial = [p + (x,) for p in partial for x in payloads]
        else:
            out.update(partial)
    return out


def closure(edges) -> set:
    """Transitive closure of ``(src, dst)`` pairs, as a set of pairs.

    Each node's reachable set is a bitset; sweeps repeat until none
    changes.  Sweeping sources in descending order settles a DAG whose
    edges point to larger nodes in one sweep (plus the sweep that sees
    no change); any other graph just takes more sweeps.
    """
    succ: dict = {}
    for src, dst in edges:
        succ.setdefault(src, set()).add(dst)
    names = sorted(set(succ) | {d for ds in succ.values() for d in ds})
    index = {n: i for i, n in enumerate(names)}
    sources = sorted(succ, reverse=True)
    direct = {s: [index[d] for d in succ[s]] for s in sources}
    reach = {s: 0 for s in sources}
    changed = True
    while changed:
        changed = False
        for src in sources:
            acc = reach[src]
            for i in direct[src]:
                acc |= 1 << i
                nxt = reach.get(names[i])
                if nxt:
                    acc |= nxt
            if acc != reach[src]:
                reach[src] = acc
                changed = True
    out = set()
    for src, mask in reach.items():
        while mask:
            low = mask & -mask
            out.add((src, names[low.bit_length() - 1]))
            mask ^= low
    return out


def world_valuations(variables, constants, other) -> list:
    """Every valuation of ``variables`` over ``constants`` plus one value
    ``other`` standing for every constant the conditions never name."""
    names = sorted(variables)
    domain = sorted(set(constants)) + [other]
    return [dict(zip(names, values)) for values in itertools.product(domain, repeat=len(names))]


def world_edges(rows, valuation) -> list:
    """The ``(src, dst)`` edges present in the world ``valuation`` picks."""
    return [
        (valued(terms[0], valuation), valued(terms[1], valuation))
        for terms, condition in rows
        if holds(condition, valuation)
    ]
