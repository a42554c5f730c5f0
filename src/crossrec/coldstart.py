"""Cold-start inference: neighborhood aggregation and mapping.

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
from .errors import IndexMismatch


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


def infer_cold_start(net, X):
    """Translate the (aggregated) source user vectors, the rows of ``X``,
    into the target space."""
    return net.forward_batch(X)


def cold_start_queries(source_space, interactions, net, hops, users):
    """Target-space query vectors of the source users ``users``: their
    rows after ``hops`` aggregation steps, translated by ``net`` in one
    pass."""
    U, index = source_space.U, source_space.user_index
    if hops > 0:  # aggregated rows follow the interactions' order
        U, _ = aggregate_hops(source_space, interactions, hops)
        index = interactions.user_index
    return infer_cold_start(net, U[id_rows(index, users)])

