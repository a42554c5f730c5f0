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

from .data import id_rows
from .errors import EmptyCandidates, IndexMismatch, UnknownUser
from .evaluation import id_keys, ranking
from .mapping import mlp_forward


def aggregate_step(U, V, interactions):
    """One synchronous averaging hop of ``(U, V)`` over the graph."""
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

    return new_u, new_v


def aggregate_hops(space, interactions, hops):
    """``(U, V)`` after ``hops`` averaging steps from a space holding a row
    for every user and item of ``interactions``, rows in their order."""
    U = space.U[id_rows(space.user_index, interactions.user_ids)]
    V = space.V[id_rows(space.item_index, interactions.item_ids)]
    for _ in range(hops):
        U, V = aggregate_step(U, V, interactions)
    return U, V


def multi_hop_user(space, interactions, user, hops):
    """The ``user`` row after ``hops`` aggregation steps."""
    if not interactions.has_user(user):
        raise UnknownUser(user)
    U, _ = aggregate_hops(space, interactions, hops)
    return U[interactions.user_index(user)]


def infer_cold_start(net, source_user_vec):
    """Translate an (aggregated) source user vector into the target space."""
    return mlp_forward(net, source_user_vec)


def cold_start_queries(source_space, interactions, net, hops, users):
    """Target-space query vectors of the source users ``users``: each
    user's row after ``hops`` aggregation steps, translated by ``net``."""
    U, index = source_space.U, source_space.user_index
    if hops > 0:  # aggregated rows follow the interactions' order
        U, _ = aggregate_hops(source_space, interactions, hops)
        index = interactions.user_index
    return np.stack([infer_cold_start(net, U[r])
                     for r in id_rows(index, users)])


def _top_n(candidates, n, scores):
    """The ``n`` candidates with the highest ``scores``, ties toward the
    smaller item id."""
    if not candidates:
        raise EmptyCandidates("no candidate items")
    if n > len(candidates):
        raise ValueError(f"asked for top {n} of {len(candidates)}")
    order = ranking(scores, id_keys(candidates))
    return [candidates[k] for k in order[:n]]


def recommend_topn(space, query_vec, candidates, n):
    """Top ``n`` candidate item ids for a query vector.

    Metric spaces rank by ascending squared distance, inner-product spaces
    by descending dot product.  Ties break toward the smaller item id.
    """
    rows = [space.item_index(i) for i in candidates]
    return _top_n(candidates, n,
                  space.scores(rows, np.asarray(query_vec, dtype=float)))


def itempop_rank(interactions, candidates, n):
    """Most popular candidates first; ties toward the smaller item id."""
    counts = interactions.item_degrees()
    return _top_n(candidates, n, [
        counts[interactions.item_index(i)] if interactions.has_item(i)
        else 0 for i in candidates])
