"""Cold-start inference: neighborhood aggregation, mapping, retrieval.

Before translating a source user vector into the target space, the source
embeddings can be smoothed over the interaction graph.  One hop replaces
every entity vector with the average of itself and its direct neighbors,
computed synchronously from the previous hop:

    item_j  <- (item_j  + sum of its users' vectors) / (deg_j + 1)
    user_i  <- (user_i  + sum of its items' vectors) / (deg_i + 1)

Entities without neighbors keep their vector (the denominator is 1).  Hop
zero is the raw space.  Averaging is a convex combination, so vectors that
start inside the unit ball stay inside it at every hop.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyCandidates, IndexMismatch, UnknownUser
from .mapping import mlp_forward


class AggregatedVectors:
    """User and item matrices after some number of hops."""

    __slots__ = ("hop", "user_vectors", "item_vectors")

    def __init__(self, hop, user_vectors, item_vectors):
        if hop < 0:
            raise ValueError(f"hop must be >= 0, got {hop}")
        self.hop = hop
        self.user_vectors = np.asarray(user_vectors, dtype=float)
        self.item_vectors = np.asarray(item_vectors, dtype=float)


def aggregate_step(prev, interactions):
    """One synchronous averaging hop over the interaction graph."""
    U, V = prev.user_vectors, prev.item_vectors
    if U.shape[0] != interactions.n_users \
            or V.shape[0] != interactions.n_items:
        raise IndexMismatch(
            f"vectors ({U.shape[0]} users, {V.shape[0]} items) do not "
            f"match data ({interactions.n_users}, {interactions.n_items})")
    pos_u, pos_i = interactions.pair_arrays()

    new_v = V.copy()
    np.add.at(new_v, pos_i, U[pos_u])
    new_v /= (interactions.item_degrees() + 1)[:, None]

    new_u = U.copy()
    np.add.at(new_u, pos_u, V[pos_i])
    new_u /= (interactions.user_degrees() + 1)[:, None]

    return AggregatedVectors(prev.hop + 1, new_u, new_v)


def aggregate_hops(space, interactions, hops):
    """Run ``hops`` averaging steps starting from a trained space."""
    if tuple(space.user_ids) != tuple(interactions.user_ids) \
            or tuple(space.item_ids) != tuple(interactions.item_ids):
        raise IndexMismatch("space ids do not match interaction ids")
    agg = AggregatedVectors(0, space.U.copy(), space.V.copy())
    for _ in range(hops):
        agg = aggregate_step(agg, interactions)
    return agg


def multi_hop_user(space, interactions, user, hops):
    """The ``user`` row after ``hops`` aggregation steps."""
    if not space.has_user(user):
        raise UnknownUser(user)
    agg = aggregate_hops(space, interactions, hops)
    return agg.user_vectors[space.user_index(user)]


def infer_cold_start(net, source_user_vec):
    """Translate an (aggregated) source user vector into the target space."""
    return mlp_forward(net, source_user_vec)


def cold_start_queries(source_space, interactions, net, hops, rows):
    """Target-space query vectors of the source user rows ``rows``: each
    row after ``hops`` aggregation steps, translated by ``net``."""
    U = (aggregate_hops(source_space, interactions, hops).user_vectors
         if hops > 0 else source_space.U)
    return np.stack([infer_cold_start(net, U[r]) for r in rows])


def _top_n(candidates, n, score):
    """The ``n`` candidates with the highest ``score(candidates)``; ties
    break toward the smaller item id."""
    if not candidates:
        raise EmptyCandidates("no candidate items")
    if n > len(candidates):
        raise ValueError(f"asked for top {n} of {len(candidates)}")
    s = score(candidates)
    order = sorted(range(len(candidates)),
                   key=lambda k: (-s[k], candidates[k]))
    return [candidates[k] for k in order[:n]]


def recommend_topn(space, query_vec, candidates, n):
    """Top ``n`` candidate item ids for a query vector.

    Metric spaces rank by ascending squared distance, inner-product spaces
    by descending dot product.  Ties break toward the smaller item id.
    """
    q = np.asarray(query_vec, dtype=float)
    return _top_n(candidates, n, lambda c: space.scores(
        [space.item_index(i) for i in c], q))


def itempop_rank(interactions, candidates, n):
    """Most popular candidates first; ties toward the smaller item id."""
    counts = interactions.item_degrees()
    return _top_n(candidates, n, lambda c: [
        counts[interactions.item_index(i)] if interactions.has_item(i)
        else 0 for i in c])
