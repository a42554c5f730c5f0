"""References the tests hold the package's kernels to: a full sort where
the evaluator counts, a squared distance apart from the spaces' scores,
one triplet with dense gradients where training takes batches of compact
rows, the mapping's two loss terms apart where training fuses them into
one pass, a unit-ball projection by fancy indexing where training
moves rows with take and put, the id-level views of an interaction set
that the numeric code reads by index, one test user's negative pool
apart from the evaluation loop, and the files a saved scenario holds."""

import numpy as np

from crossrec.data import CrossDomainScenario, SplitSeedConfig
from crossrec.embed import triplet_loss_and_grads
from crossrec.errors import DimensionMismatch, EmptyBatch
from crossrec.evaluation import heldout_rows

# every file save_scenario writes, as sorted(os.listdir(...)) lists them
SCENARIO_FILES = ["meta.txt", "source.tsv", "target_train.tsv", "test.tsv"]


def ranking(scores, keys):
    """Candidate positions best first: higher score, then smaller key."""
    return np.lexsort((keys, -np.asarray(scores, dtype=float)))


def distance(u, v):
    """Squared euclidean distance between two equal-length vectors."""
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    return float(np.dot(d, d))


def dense(rows, grads, n):
    """The kernel's gradients of the triplet rows ``rows`` scattered into
    ``n`` zero rows."""
    out = np.zeros((len(grads), n, grads[0].shape[1]))
    out[:, rows] = grads
    return out


def triplet(kind, u, v_pos, v_neg, margin=1.0):
    """``(loss, (gu, gp, gn))`` of one triplet through the batched kernel,
    a row without a gradient reading as zeros."""
    loss, rows, *grads = triplet_loss_and_grads(kind, *(
        np.asarray(x, dtype=float)[None] for x in (u, v_pos, v_neg)),
        margin=margin)
    return loss, tuple(dense(rows, grads, 1)[:, 0])


def project_rows(mat, rows=None):
    """Divide in place each row of ``mat`` (or each of its rows ``rows``)
    whose norm exceeds 1 by that norm; return the norms from before."""
    norms = np.linalg.norm(mat if rows is None else mat[rows], axis=1)
    big = norms > 1.0
    if np.any(big):
        mat[big if rows is None else rows[big]] /= norms[big][:, None]
    return norms


def supervised_loss(net, source_vecs, target_vecs):
    """Sum of squared distances between mapped sources and their targets."""
    S = np.asarray(source_vecs, dtype=float)
    T = np.asarray(target_vecs, dtype=float)
    if S.shape != T.shape:
        raise DimensionMismatch(f"{S.shape} vs {T.shape}")
    if S.shape[0] == 0:
        raise EmptyBatch("supervised loss over zero pairs")
    Y = net.forward_batch(S)
    d = Y - T
    return float(np.sum(d * d))


def unsupervised_triplet_loss(net, pos_item_vecs, neg_item_vecs,
                              target_anchor_vecs, margin):
    """Sum of hinges pushing mapped positives closer than mapped negatives.

    All three arrays are aligned per row: the anchor is the target-space
    vector the user is tied to, positives are source items the user
    touched, negatives are source items the user did not.
    """
    P = np.asarray(pos_item_vecs, dtype=float)
    N = np.asarray(neg_item_vecs, dtype=float)
    A = np.asarray(target_anchor_vecs, dtype=float)
    if P.shape != N.shape or P.shape != A.shape:
        raise DimensionMismatch("triplet arrays must share one shape")
    if P.shape[0] == 0:
        raise EmptyBatch("unsupervised loss over zero triplets")
    Yp = net.forward_batch(P)
    Yn = net.forward_batch(N)
    dp = np.einsum("ij,ij->i", Yp - A, Yp - A)
    dn = np.einsum("ij,ij->i", Yn - A, Yn - A)
    return float(np.sum(np.maximum(margin + dp - dn, 0.0)))


def items_of(s, user):
    """Item ids ``user`` interacted with in ``s`` (empty for unknown users)."""
    if not s.has_user(user):
        return ()
    return tuple(s.item_ids[i] for i in s.item_neighbors(s.user_index(user)))


def user_neighbors(s, i):
    """Rows of the users of item row ``i`` in ``s``."""
    users, items = s.pair_arrays()
    return users[items == i]


def users_of(s, item):
    """User ids that interacted with ``item`` in ``s`` (empty for unknown
    items)."""
    try:
        i = s.item_index(item)
    except KeyError:
        return ()
    return tuple(s.user_ids[u] for u in user_neighbors(s, i))


def has_pair(s, user, item):
    """Whether ``s`` holds the pair (``user``, ``item``)."""
    return item in items_of(s, user)


def id_pairs(s):
    """All (user_id, item_id) pairs of ``s`` sorted by (user, item) index."""
    return [(s.user_ids[u], s.item_ids[i]) for u, i in zip(*s.pair_arrays())]


def negative_pool(target, user, held, negatives=1):
    """The rows ``evaluate`` draws ``negatives`` negatives from for test
    user ``user`` over ``target`` with the item pair ``held`` held out:
    every row that ``heldout_rows`` does not block."""
    scen = CrossDomainScenario(
        source=target, target=target, train_overlap_users=(),
        heldout={user: held}, split=SplitSeedConfig())
    ((_, blocked),) = heldout_rows(scen, negatives)
    free = np.ones(target.n_items, bool)
    free[blocked] = False
    return np.flatnonzero(free)
