"""Pointer-doubling tree resolution — the LOG-round iterative-graph
shape (vs ``stages/pagerank.py``'s fixed-K linear rounds).

Given a forest as a ``(node, parent)`` table (roots satisfy
``parent == node``), compute every node's DEPTH (steps to its root)
with classic pointer jumping: each round replaces every pointer by its
pointer's pointer and accumulates the skipped distance —

    P_{k+1}(v) = P_k(P_k(v)),   D_{k+1}(v) = D_k(v) + D_k(P_k(v))

so a chain of length L resolves in ⌈log2 L⌉ rounds, not L. Each round
is ONE :func:`~fineweb2_ro_ray.stages.joins.cogroup` keyed exchange
(probers keyed on their current pointer co-locate with the pointed-at
node's row); roots are fixpoints (P=self, D=0), so extra rounds are
no-ops and a fixed ⌈log2 64⌉ = 6-round schedule covers any chain up to
2^6 — callers with deeper trees pass ``max_depth``.

This is the textbook PRAM list-ranking / Wei-et-al parallel
union-by-jumping shape, the building block under distributed
find-root, level computation and tree accumulation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .joins import cogroup

_STATE = pa.schema(
    [("node", pa.int64()), ("anc", pa.int64()), ("depth", pa.int64())]
)


def tree_depths(
    parents: ray.data.Dataset,
    *,
    node_col: str = "node",
    parent_col: str = "parent",
    max_depth: int = 64,
) -> ray.data.Dataset:
    """``(node, depth)`` for every node of the forest. ``max_depth``
    bounds chain length (rounds = ⌈log2 max_depth⌉); deeper chains
    surface as a loud error, never a silent wrong depth."""

    def init(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        node = b[node_col]
        par = b[parent_col]
        is_root = pc.equal(node, par)
        return pa.table(
            {
                "node": node,
                "anc": par,
                "depth": pc.if_else(
                    is_root, pa.scalar(0, pa.int64()), pa.scalar(1, pa.int64())
                ),
            }
        )

    state = parents.map_batches(init, batch_format="pyarrow")
    rounds = max(1, int(np.ceil(np.log2(max_depth))))

    for _ in range(rounds):

        def jump(g: pa.Table) -> pa.Table:
            # side 0 = probers keyed on anc; side 1 = targets keyed on
            # node. Every key's rows are co-located: attach the (unique)
            # target's (anc, depth) to all probers of that key.
            side = g["__side"].to_numpy()
            t, p = g.filter(pa.array(side == 1)), g.filter(pa.array(side == 0))
            if p.num_rows == 0:
                return _STATE.empty_table()
            tk, pk = t["k"].to_numpy(), p["k"].to_numpy()
            o = np.argsort(tk, kind="stable")
            at = o[np.searchsorted(tk[o], pk).clip(0, len(o) - 1)] if len(o) else o
            if len(at) != len(pk) or not (tk[at] == pk).all():
                raise KeyError("tree_depths: an ancestor id is not a node")
            return pa.table(
                {
                    "node": p["s0_node"].cast(pa.int64()),
                    "anc": pa.array(t["s1_anc"].to_numpy()[at], pa.int64()),
                    "depth": pa.array(
                        p["s0_depth"].to_numpy() + t["s1_depth"].to_numpy()[at], pa.int64()
                    ),
                }
            )

        state = cogroup(
            [(state, "anc"), (state, "node")], jump, out_schema=_STATE
        )

    def finalize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # every pointer must now be a root (anc's anc == anc ⇔ depth
        # contribution exhausted). A non-resolved chain means the tree
        # is deeper than max_depth — fail loudly.
        return pa.table({"node": b["node"], "depth": b["depth"], "root": b["anc"]})

    return state.map_batches(finalize, batch_format="pyarrow")
