"""Per-domain embedding training.

Two objectives over the same (user, item, negative item) triplets:

* ``metric``: hinge loss ``max(0, m + d(u, v_pos) - d(u, v_neg))`` with
  ``d`` the squared euclidean distance, all vectors kept inside the unit
  ball by projection after every update.
* ``inner``: pairwise logistic loss ``-log sigmoid(u.v_pos - u.v_neg)``
  with optional L2 regularization, vectors unconstrained.

Training walks the observed pairs once per epoch in shuffled mini-batches,
pairing each with one freshly sampled negative item, and applies Adam to
the touched rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDataset,
    InsufficientCandidates,
    NonFiniteInput,
    NonFiniteLoss,
)
from .optim import Adam

KIND_METRIC = "metric"
KIND_INNER = "inner"
KIND_INFERRED = "inferred"
_BALL_TOL = 1e-6


def distance(u, v):
    """Squared euclidean distance between two equal-length vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionMismatch(f"{u.shape} vs {v.shape}")
    d = u - v
    return float(np.dot(d, d))


def project_unit_ball(x):
    """Scale ``x`` onto the unit ball: ``x / max(1, |x|)``."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("cannot project a non-finite vector")
    norm = float(np.linalg.norm(x))
    if norm > 1.0:
        return x / norm
    return x.copy()


def _project_rows(mat, rows):
    # in-place row projection for the rows just updated
    norms = np.linalg.norm(mat[rows], axis=1)
    mask = norms > 1.0
    if np.any(mask):
        sel = rows[mask]
        mat[sel] /= norms[mask][:, None]


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def triplet_loss_and_grads(kind, U, Vp, Vn, margin=1.0, l2=0.0):
    """Summed loss and per-row gradients over a batch of triplets.

    Row ``r`` of ``U``, ``Vp`` and ``Vn`` holds one (user, positive item,
    negative item) triplet.  ``kind`` ``metric`` is the ``margin`` hinge on
    squared distances, whose subgradient at an exactly-zero hinge argument
    is zero; ``inner`` is the logistic loss on the score gap plus
    ``l2`` times the squared norms of the three rows (``l2`` applies to
    ``inner`` only).  Returns ``(loss, gU, gVp, gVn)``.
    """
    if kind == KIND_METRIC:
        dp = np.einsum("ij,ij->i", U - Vp, U - Vp)
        dn = np.einsum("ij,ij->i", U - Vn, U - Vn)
        arg = margin + dp - dn
        loss = float(np.sum(np.maximum(arg, 0.0)))
        w = 2.0 * (arg > 0.0)[:, None]
        return loss, w * (Vn - Vp), w * (Vp - U), w * (U - Vn)
    s = np.einsum("ij,ij->i", U, Vp - Vn)
    loss = float(np.sum(np.logaddexp(0.0, -s)))
    g = (_sigmoid(s) - 1.0)[:, None]  # d loss / d s
    gu, gp, gn = g * (Vp - Vn), g * U, -g * U
    if l2 > 0.0:
        loss += l2 * float(np.sum(U * U) + np.sum(Vp * Vp) + np.sum(Vn * Vn))
        gu += 2.0 * l2 * U
        gp += 2.0 * l2 * Vp
        gn += 2.0 * l2 * Vn
    return loss, gu, gp, gn


def _one_triplet(kind, u, v_pos, v_neg, margin=1.0):
    rows = [np.asarray(x, dtype=float) for x in (u, v_pos, v_neg)]
    if rows[0].shape != rows[1].shape or rows[0].shape != rows[2].shape:
        raise DimensionMismatch("triplet vectors must share one shape")
    loss, gu, gp, gn = triplet_loss_and_grads(
        kind, *(x[None] for x in rows), margin=margin)
    return loss, (gu[0], gp[0], gn[0])


def cml_triplet_loss(u, v_pos, v_neg, margin):
    """Hinge on the gap between the positive and negative distances."""
    return _one_triplet(KIND_METRIC, u, v_pos, v_neg, margin)[0]


def cml_triplet_grad(u, v_pos, v_neg, margin):
    """Gradients of :func:`cml_triplet_loss` wrt (u, v_pos, v_neg)."""
    return _one_triplet(KIND_METRIC, u, v_pos, v_neg, margin)[1]


def bpr_triplet_loss(u, v_pos, v_neg):
    """``-log sigmoid(u.v_pos - u.v_neg)``, computed stably."""
    return _one_triplet(KIND_INNER, u, v_pos, v_neg)[0]


def bpr_triplet_grad(u, v_pos, v_neg):
    """Gradients of :func:`bpr_triplet_loss` wrt (u, v_pos, v_neg)."""
    return _one_triplet(KIND_INNER, u, v_pos, v_neg)[1]


@dataclass(frozen=True)
class EmbedTrainConfig:
    dim: int = 50
    margin: float = 1.0
    learning_rate: float = 0.001
    l2_reg: float = 0.0
    epochs: int = 500
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive")
        if not (np.isfinite(self.l2_reg) and self.l2_reg >= 0):
            raise ConfigError("l2_reg must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")


def check_objective(objective, cfg):
    """Reject an unknown objective, and ``l2_reg`` (``embed.l2``) on a
    metric one: only ``inner`` spaces are regularized."""
    if objective not in (KIND_METRIC, KIND_INNER):
        raise ConfigError(f"unknown objective {objective!r}")
    if objective == KIND_METRIC and cfg.l2_reg > 0:
        raise ConfigError(f"embed.l2 = {cfg.l2_reg}, but metric spaces "
                          f"are not regularized")


class EmbeddingSpace:
    """Learned user and item vectors plus the id bookkeeping.

    ``kind`` records which score orientation applies: ``metric`` spaces
    rank by ascending squared distance and keep every row inside the unit
    ball (up to a small tolerance), ``inner`` spaces rank by descending
    dot product.
    """

    __slots__ = ("user_ids", "item_ids", "U", "V", "kind",
                 "_uindex", "_iindex")

    def __init__(self, user_ids, item_ids, U, V, kind):
        if kind not in (KIND_METRIC, KIND_INNER, KIND_INFERRED):
            raise ConfigError(f"unknown embedding kind {kind!r}")
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or (U.shape[0] and V.shape[0]
                                          and U.shape[1] != V.shape[1]):
            raise DimensionMismatch(f"U {U.shape} vs V {V.shape}")
        if U.shape[0] != len(user_ids) or V.shape[0] != len(item_ids):
            raise DimensionMismatch("matrix rows must match id counts")
        if kind == KIND_METRIC:
            for mat in (U, V):
                if mat.size and np.max(np.linalg.norm(mat, axis=1)) \
                        > 1.0 + _BALL_TOL:
                    raise ValueError("metric rows must lie in the unit ball")
        self.user_ids = tuple(user_ids)
        self.item_ids = tuple(item_ids)
        self.U = U
        self.V = V
        self.kind = kind
        self._uindex = {u: k for k, u in enumerate(self.user_ids)}
        self._iindex = {i: k for k, i in enumerate(self.item_ids)}
        self.U.setflags(write=False)
        self.V.setflags(write=False)

    @property
    def dim(self):
        return self.U.shape[1] if self.U.size else self.V.shape[1]

    def has_user(self, user):
        return user in self._uindex

    def user_vec(self, user):
        return self.U[self._uindex[user]]

    def item_vec(self, item):
        return self.V[self._iindex[item]]

    def user_index(self, user):
        return self._uindex[user]

    def item_index(self, item):
        return self._iindex[item]

    def scores(self, rows, q):
        """Scores of the item rows ``rows`` for query ``q``, higher is
        better: the dot product in inner spaces, the negated squared
        distance otherwise."""
        mat = self.V[rows]
        if self.kind == KIND_INNER:
            return mat @ q
        diff = mat - q
        return -np.einsum("ij,ij->i", diff, diff)


def _sample_negatives_array(rng, pos_u, codes, n_items):
    """One negative item index per positive pair, rejecting seen pairs."""
    neg = rng.integers(0, n_items, size=pos_u.shape[0])
    while True:
        cand = pos_u * n_items + neg
        pos = np.searchsorted(codes, cand)
        pos = np.minimum(pos, codes.shape[0] - 1)
        bad = codes[pos] == cand
        if not np.any(bad):
            return neg
        neg[bad] = rng.integers(0, n_items, size=int(bad.sum()))


def train_embeddings(interactions, cfg, objective=KIND_METRIC,
                     loss_history=None):
    """Fit an :class:`EmbeddingSpace` on one interaction matrix.

    ``loss_history``, when given, receives the mean triplet loss of each
    epoch.
    """
    check_objective(objective, cfg)
    if interactions.n_interactions == 0:
        raise EmptyDataset("cannot train on zero interactions")

    rng = np.random.default_rng(cfg.seed)
    n_users, n_items = interactions.n_users, interactions.n_items
    k = cfg.dim
    scale = 1.0 / np.sqrt(k)
    U = rng.uniform(-scale, scale, size=(n_users, k))
    V = rng.uniform(-scale, scale, size=(n_items, k))

    pos_u, pos_i = interactions.pair_arrays()
    codes = pos_u * n_items + pos_i  # sorted because pairs are
    n_pairs = pos_u.shape[0]
    if np.any(interactions.user_degrees()[np.unique(pos_u)] >= n_items):
        raise InsufficientCandidates(0, 1)  # some user has no negatives

    opt_u = Adam(U.shape, cfg.learning_rate)
    opt_v = Adam(V.shape, cfg.learning_rate)
    metric = objective == KIND_METRIC

    for epoch in range(1, cfg.epochs + 1):
        neg_i = _sample_negatives_array(rng, pos_u, codes, n_items)
        order = rng.permutation(n_pairs)
        epoch_loss = 0.0
        for start in range(0, n_pairs, cfg.batch_size):
            b = order[start:start + cfg.batch_size]
            bu, bi, bk = pos_u[b], pos_i[b], neg_i[b]
            loss, gu, gp, gn = triplet_loss_and_grads(
                objective, U[bu], V[bi], V[bk], cfg.margin, cfg.l2_reg)
            epoch_loss += loss

            rows_u, inv_u = np.unique(bu, return_inverse=True)
            acc_u = np.zeros((rows_u.shape[0], k))
            np.add.at(acc_u, inv_u, gu)
            opt_u.step_rows(U, rows_u, acc_u)

            rows_v, inv_v = np.unique(np.concatenate([bi, bk]),
                                      return_inverse=True)
            acc_v = np.zeros((rows_v.shape[0], k))
            np.add.at(acc_v, inv_v, np.concatenate([gp, gn]))
            opt_v.step_rows(V, rows_v, acc_v)

            if metric:
                _project_rows(U, rows_u)
                _project_rows(V, rows_v)

        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(epoch, epoch_loss)
        if loss_history is not None:
            loss_history.append(epoch_loss / n_pairs)

    return EmbeddingSpace(interactions.user_ids, interactions.item_ids,
                          U, V, objective)


# -- embedding file format ----------------------------------------------

def _fmt(x):
    return format(float(x), ".9g")


def save_embeddings(space, path):
    """Write a space as a text file.

    First line: ``K <dim> users <n> items <m> kind <kind>``.  Then one
    ``U <id> <f1> .. <fK>`` line per user and one ``V <id> ...`` line per
    item, in id order, floats at nine significant digits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"K {space.dim} users {len(space.user_ids)} "
                 f"items {len(space.item_ids)} kind {space.kind}\n")
        for uid, row in zip(space.user_ids, space.U):
            fh.write("U " + uid + " " + " ".join(_fmt(x) for x in row)
                     + "\n")
        for iid, row in zip(space.item_ids, space.V):
            fh.write("V " + iid + " " + " ".join(_fmt(x) for x in row)
                     + "\n")


def load_embeddings(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if (len(header) != 8 or header[0] != "K" or header[2] != "users"
                or header[4] != "items" or header[6] != "kind"):
            raise ValueError(f"{path}: bad embedding header")
        dim, n_users, n_items = (int(header[1]), int(header[3]),
                                 int(header[5]))
        kind = header[7]
        user_ids, items_ids = [], []
        U = np.empty((n_users, dim))
        V = np.empty((n_items, dim))
        for line in fh:
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 2 or fields[0] not in ("U", "V"):
                raise ValueError(f"{path}: bad embedding row")
            ids, mat = ((user_ids, U) if fields[0] == "U"
                        else (items_ids, V))
            if len(ids) == mat.shape[0]:
                raise ValueError(f"{path}: more {fields[0]} rows than the "
                                 f"header declares")
            mat[len(ids)] = [float(x) for x in fields[2:]]
            ids.append(fields[1])
    if len(user_ids) != n_users or len(items_ids) != n_items:
        raise ValueError(f"{path}: row counts disagree with header")
    return EmbeddingSpace(user_ids, items_ids, U, V, kind)
