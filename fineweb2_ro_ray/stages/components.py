"""Distributed connected components over an id-pair edge list.

The primitive behind near-duplicate CLUSTERING: the reference consumes
the upstream FineWeb-2 ``minhash_cluster_size`` passenger column
(``/root/reference/fineweb/fineweb2_download.py:22``) — the cluster ids
that column summarizes are the connected components of the near-dup
pair graph. This module computes them Ray-Data-native so the engine can
produce that column itself (pairs → components → cluster sizes →
keep-one-per-cluster).

Algorithm: iterative neighbor-min label propagation. Every node starts
labeled with its own id; each round every node takes the min of its
label and its neighbors' labels, the node its label names takes the
min as well (hooking), and every label then jumps one pointer step;
converged when the global label SUM stops decreasing (labels only ever
decrease, so an unchanged sum is exact convergence, checked with one
tiny aggregate — no driver diff). Hooking plus the jump gives rounds
logarithmic in the component size (a shuffled 1000-node chain: ~10
rounds; neighbor-min plus the jump alone took 260-490); near-dup
clusters are dense (quasi-cliques), so 2–3 rounds in practice.

Two routes, chosen by edge count after ONE execution of ``pairs``
(the cast edge blocks stay in the object store, their row counts come
from block metadata): a graph at or under ``driver_edge_limit`` edges is
fetched to the driver and solved there by vectorized label propagation;
a larger one runs the distributed rounds over those same blocks. Each
call logs the route it took on the package logger.

Scale shape per distributed round: two keyed attach exchanges
(:func:`~fineweb2_ro_ray.stages.dedup.attach_payload_exchange`) ship
(edge-endpoint, 8-byte label) rows, then one groupby-min over thin
(node, candidate) rows; past the limit nothing concentrates the graph
on the driver.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

import ray
import ray.data

_log = logging.getLogger("fineweb2_ro_ray")


def connected_components(
    pairs: ray.data.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    max_iter: int = 25,
    driver_edge_limit: int = 2_000_000,
) -> ray.data.Dataset:
    """(doc_id, component) for every node appearing in ``pairs``, where
    ``component`` is the MIN node id of its connected component.

    ``pairs`` executes once. Route selection (the broadcast-vs-shuffle
    rule): an edge list at or under ``driver_edge_limit`` rows (16
    B/edge — the DEDUPED near-dup pair set, not the corpus) is fetched
    and solved on the driver in one pass; a larger graph runs the
    distributed label propagation over the same edge blocks, whose
    per-round exchanges only pay off once the graph itself is beyond
    one machine. Both routes are exact and equality-tested; the route
    taken is logged at INFO on ``logging.getLogger("fineweb2_ro_ray")``."""
    comp = _component_labels(
        pairs, a_col=a_col, b_col=b_col, max_iter=max_iter,
        driver_edge_limit=driver_edge_limit,
    )
    return ray.data.from_arrow(comp) if isinstance(comp, pa.Table) else comp


def _component_labels(
    pairs: ray.data.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    max_iter: int = 25,
    driver_edge_limit: int = 2_000_000,
) -> pa.Table | ray.data.Dataset:
    """:func:`connected_components` without the final wrap: the driver
    route returns its (doc_id, component) table as it is on the driver,
    so a caller that consumes it there (``near_dedup_full``) skips the
    object-store round trip; the label-propagation route returns the
    Dataset."""
    from .dedup import attach_payload_exchange

    cast = pairs.map_batches(
        lambda t: pa.table(
            {
                "a": t[a_col].cast(pa.int64()),
                "b": t[b_col].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    # the one execution of pairs: keep the non-empty cast blocks (an
    # empty input block comes back schema-less) and count their rows
    refs, n_edges = [], 0
    for bundle in cast.iter_internal_ref_bundles():
        for r, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows:
                refs.append(r)
                n_edges += meta.num_rows
    route = "driver" if n_edges <= driver_edge_limit else "label propagation"
    _log.info(
        "connected_components: %s route, %d edge rows, driver_edge_limit %d",
        route, n_edges, driver_edge_limit,
    )

    if route == "driver":
        ea, eb = [np.array([], np.int64)], [np.array([], np.int64)]
        for t in ray.get(refs):
            ea.append(t["a"].to_numpy(zero_copy_only=False))
            eb.append(t["b"].to_numpy(zero_copy_only=False))
        a, b = np.concatenate(ea), np.concatenate(eb)
        nodes = np.unique(np.concatenate([a, b]))
        ia = np.searchsorted(nodes, a)
        ib = np.searchsorted(nodes, b)
        # vectorized label propagation (a per-edge Python union-find
        # loop was this operator's hot spot at 444k edges): each round
        # every endpoint takes the edge-min label (np.minimum.at), then
        # pointer-jumps lab <- lab[lab] to collapse chains; labels are
        # INDICES into the ascending-sorted node array, so min index ==
        # min node id and the final label is exact. Rounds ~ O(log
        # diameter); near-dup clusters are quasi-cliques (2-4 rounds).
        lab = np.arange(len(nodes), dtype=np.int64)
        while True:
            m = np.minimum(lab[ia], lab[ib])
            new = lab.copy()
            np.minimum.at(new, ia, m)
            np.minimum.at(new, ib, m)
            while True:  # full pointer-jump collapse (strictly decreasing)
                jumped = new[new]
                if np.array_equal(jumped, new):
                    break
                new = jumped
            if np.array_equal(new, lab):
                break
            lab = new
        return pa.table(
            {
                "doc_id": pa.array(nodes, pa.int64()),
                "component": pa.array(nodes[lab], pa.int64()),
            }
        )

    edges = ray.data.from_arrow_refs(refs)

    def init_labels(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    t["a"].to_numpy(zero_copy_only=False),
                    t["b"].to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table(
            {"doc_id": pa.array(u, pa.int64()), "lbl": pa.array(u, pa.int64())}
        )

    from .exchange import exchange_aggregate

    lbl_min = [("lbl", "min", "lbl")]
    labels = exchange_aggregate(
        edges.map_batches(init_labels, batch_format="pyarrow"), "doc_id", lbl_min
    ).materialize()

    edge_schema = pa.schema([pa.field("a", pa.int64()), pa.field("b", pa.int64())])
    lbl_schema = pa.schema(
        [pa.field("doc_id", pa.int64()), pa.field("lbl", pa.int64())]
    )

    def label_sum(lds: ray.data.Dataset) -> int:
        # ONE distributed aggregate; only the scalar reaches the driver
        from ray.data.aggregate import Sum

        return int(lds.aggregate(Sum("lbl", alias_name="s"))["s"])

    prev_sum = label_sum(labels)
    converged = False
    for _ in range(max_iter):
        # attach each endpoint's current label to the edge, emit the
        # cross-propagated candidates, the hooks (each endpoint's label
        # node takes the other endpoint's label — a label is always a
        # node of the same component) and the self rows, reduce by min
        wa = attach_payload_exchange(
            edges, labels, key="a", id_col="doc_id", payload_col="lbl",
            out_col="l_a", pairs_schema=edge_schema, payload_type=pa.int64(),
        )
        wab = attach_payload_exchange(
            wa, labels, key="b", id_col="doc_id", payload_col="lbl",
            out_col="l_b",
            pairs_schema=edge_schema.append(pa.field("l_a", pa.int64())),
            payload_type=pa.int64(),
        )

        def cands(t: pa.Table) -> pa.Table:
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            la = t["l_a"].to_numpy(zero_copy_only=False)
            lb = t["l_b"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "doc_id": pa.array(np.concatenate([a, b, la, lb]), pa.int64()),
                    "lbl": pa.array(np.concatenate([lb, la, lb, la]), pa.int64()),
                }
            )

        prop = wab.map_batches(cands, batch_format="pyarrow")
        labels = exchange_aggregate(prop.union(labels), "doc_id", lbl_min).materialize()
        # pointer jump: l(x) <- min(l(x), l(l(x))). Every label IS a
        # node id, so the lookup always resolves; with the hooks above
        # a long transitive chain converges in a logarithmic number of
        # rounds instead of falling out of the iteration budget.
        jumped = attach_payload_exchange(
            labels, labels, key="lbl", id_col="doc_id", payload_col="lbl",
            out_col="lbl2", pairs_schema=lbl_schema, payload_type=pa.int64(),
        )

        def shortcut(t: pa.Table) -> pa.Table:
            l1 = t["lbl"].to_numpy(zero_copy_only=False)
            l2 = t["lbl2"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "lbl": pa.array(np.minimum(l1, l2), pa.int64()),
                }
            )

        labels = jumped.map_batches(shortcut, batch_format="pyarrow").materialize()
        cur = label_sum(labels)
        if cur == prev_sum:  # labels only decrease: fixed point reached
            converged = True
            break
        prev_sum = cur
    if not converged:
        raise RuntimeError(
            f"connected_components: no fixed point within max_iter={max_iter} "
            f"rounds (graph diameter > 2^{max_iter}?) — raise max_iter"
        )

    return labels.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()), "component": t["lbl"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def cluster_sizes(components: ray.data.Dataset) -> ray.data.Dataset:
    """(component, cluster_size) — the engine-side derivation of the
    reference's ``minhash_cluster_size`` passenger column."""
    from .exchange import exchange_aggregate

    return exchange_aggregate(
        components, "component", [(None, "size", "cluster_size")]
    )


def dedup_by_components(
    components: ray.data.Dataset,
) -> ray.data.Dataset:
    """Canonical survivor per near-dup cluster: the MIN doc id (= the
    component label itself). Returns one (doc_id,) row per cluster."""
    from .exchange import exchange_aggregate

    return exchange_aggregate(
        components, "component", [("doc_id", "min", "doc_id")]
    ).select_columns(["doc_id"])
