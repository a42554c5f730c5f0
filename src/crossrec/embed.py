"""Per-domain embedding training.

Two objectives over the same (user, item, negative item) triplets:

* ``metric``: hinge loss ``max(0, m + d(u, v_pos) - d(u, v_neg))`` with
  ``d`` the squared euclidean distance, all vectors kept inside the unit
  ball by projection after every update.
* ``inner``: pairwise logistic loss ``-log sigmoid(u.v_pos - u.v_neg)``
  with optional L2 regularization, vectors unconstrained.

Training walks the observed pairs once per epoch in shuffled mini-batches,
pairing each with one freshly sampled negative item, and applies Adam to
the touched rows.  A metric triplet whose hinge is inactive has a zero
subgradient, so it adds no gradient row; the rows it touches still take
their lazy Adam step with a zero gradient (and are projected).  Leaving
the zero rows out changes no byte (see :mod:`.optim`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import IdLookup, read_lines
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    EmptyDataset,
    InsufficientCandidates,
    MalformedLine,
    NonFiniteInput,
    NonFiniteLoss,
)
from .optim import Adam, put_rows

KIND_METRIC = "metric"
KIND_INNER = "inner"
KIND_INFERRED = "inferred"
_KINDS = (KIND_METRIC, KIND_INNER, KIND_INFERRED)
_BALL_TOL = 1e-6


def project_rows(mat, rows=None):
    """Divide in place each row of the C-contiguous ``mat`` (or each of its
    distinct ``rows``) over norm 1 by its norm; return the norms from before.
    One take, and one put of the rows outside the ball (see :mod:`.optim`)."""
    sub = mat if rows is None else mat.take(rows, axis=0)
    norms = np.linalg.norm(sub, axis=1)
    big = np.flatnonzero(norms > 1.0)
    put_rows(mat, big if rows is None else rows.take(big),
             sub.take(big, axis=0) / norms.take(big)[:, None])
    return norms


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def metric_hinge(A, P, N, margin):
    """``max(0, margin + |A - P|^2 - |A - N|^2)`` per row, with subgradient
    zero at an exactly-zero argument.  Returns ``(args, loss, rows, gA,
    gP, gN)``: the hinge arguments, the summed hinge, the active rows
    (``args > 0``) in ascending order and the gradients of those rows;
    an inactive row's gradient is zero and is left out."""
    pa, an = P - A, A - N  # |P - A| is |A - P| bit for bit
    dp = np.einsum("ij,ij->i", pa, pa)
    dn = np.einsum("ij,ij->i", an, an)
    arg = margin + dp - dn
    loss = float(np.sum(np.maximum(arg, 0.0)))
    rows = np.flatnonzero(arg > 0.0)
    return (arg, loss, rows, 2.0 * (N.take(rows, 0) - P.take(rows, 0)),
            2.0 * pa.take(rows, 0), 2.0 * an.take(rows, 0))


def triplet_loss_and_grads(kind, U, Vp, Vn, margin=1.0, l2=0.0):
    """Summed loss and per-row gradients over a batch of triplets.

    Row ``r`` of ``U``, ``Vp`` and ``Vn`` holds one (user, positive item,
    negative item) triplet.  ``kind`` ``metric`` is the ``margin`` hinge on
    squared distances, whose subgradient at an exactly-zero hinge argument
    is zero; ``inner`` is the logistic loss on the score gap plus
    ``l2`` times the squared norms of the three rows (``l2`` applies to
    ``inner`` only).  Returns ``(loss, rows, gU, gVp, gVn)``: the triplet
    rows that have a gradient, and row ``j`` of each gradient belongs to
    triplet ``rows[j]``.  ``rows`` is every row for ``inner`` and the
    active hinges for ``metric`` (see :func:`metric_hinge`).
    """
    if kind == KIND_METRIC:
        return metric_hinge(U, Vp, Vn, margin)[1:]
    s = np.einsum("ij,ij->i", U, Vp - Vn)
    loss = float(np.sum(np.logaddexp(0.0, -s)))
    g = (_sigmoid(s) - 1.0)[:, None]  # d loss / d s
    gu, gp, gn = g * (Vp - Vn), g * U, -g * U
    if l2 > 0.0:
        loss += l2 * float(np.sum(U * U) + np.sum(Vp * Vp) + np.sum(Vn * Vn))
        gu += 2.0 * l2 * U
        gp += 2.0 * l2 * Vp
        gn += 2.0 * l2 * Vn
    return loss, np.arange(U.shape[0]), gu, gp, gn


@dataclass(frozen=True)
class EmbedTrainConfig:
    dim: int = 50
    margin: float = 1.0
    lr: float = 0.001
    l2: float = 0.0
    epochs: int = 100
    batch: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be positive")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ConfigError("l2 must be non-negative")
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError("epochs and batch must be positive")


def check_objective(objective, cfg):
    """Reject an unknown objective, and ``l2`` (``embed.l2``) on a
    metric one: only ``inner`` spaces are regularized."""
    if objective not in (KIND_METRIC, KIND_INNER):
        raise ConfigError(f"unknown objective {objective!r}")
    if objective == KIND_METRIC and cfg.l2 > 0:
        raise ConfigError(f"embed.l2 = {cfg.l2}, but metric spaces "
                          f"are not regularized")


class EmbeddingSpace(IdLookup):
    """Learned user and item vectors plus the id bookkeeping.

    ``kind`` records which score orientation applies: ``metric`` spaces
    rank by ascending squared distance and keep every row inside the unit
    ball (up to a small tolerance), ``inner`` spaces rank by descending
    dot product.
    """

    __slots__ = ("U", "V", "kind")

    def __init__(self, user_ids, item_ids, U, V, kind):
        if kind not in _KINDS:
            raise DataError(f"unknown embedding kind {kind!r}")
        U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or (U.shape[0] and V.shape[0]
                                          and U.shape[1] != V.shape[1]):
            raise DimensionMismatch(f"U {U.shape} vs V {V.shape}")
        if U.shape[0] != len(user_ids) or V.shape[0] != len(item_ids):
            raise DimensionMismatch("matrix rows must match id counts")
        if kind == KIND_METRIC and any(
                m.size and np.linalg.norm(m, axis=1).max() > 1.0 + _BALL_TOL
                for m in (U, V)):
            raise DataError("metric rows must lie in the unit ball")
        self.user_ids, self.item_ids = tuple(user_ids), tuple(item_ids)
        self.U, self.V, self.kind = U, V, kind
        self._uindex, self._iindex  # built now: a repeated id fails here
        self.U.setflags(write=False)
        self.V.setflags(write=False)

    @property
    def dim(self):
        return self.U.shape[1] if self.U.size else self.V.shape[1]

    def scores(self, rows, q):
        """Scores of the item rows ``rows`` for query ``q``, higher is
        better: the dot product in inner spaces, the negated squared
        distance otherwise."""
        mat = self.V[rows]
        if self.kind == KIND_INNER:
            return mat @ q
        diff = mat - q
        return -np.einsum("ij,ij->i", diff, diff)


def _in_sorted(sorted_codes, c):
    """Whether each of ``c`` is in the sorted array ``sorted_codes``."""
    k = np.searchsorted(sorted_codes, c)
    return sorted_codes[np.minimum(k, sorted_codes.shape[0] - 1)] == c


def _sample_negatives_array(rng, pos_u, codes, n_items):
    """One negative item index per positive pair, rejecting seen pairs.

    Each round redraws the entries still blocked, in ascending order, and
    checks only those again: a free entry is never redrawn."""
    neg = rng.integers(0, n_items, size=pos_u.shape[0])
    bad = np.flatnonzero(_in_sorted(codes, pos_u * n_items + neg))
    while bad.shape[0]:
        neg[bad] = rng.integers(0, n_items, size=bad.shape[0])
        bad = bad[_in_sorted(codes, pos_u[bad] * n_items + neg[bad])]
    return neg


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
    if np.any(interactions.user_degrees() >= n_items):
        raise InsufficientCandidates(0, 1)  # some user holds every item

    opt_u = Adam(U.shape, cfg.lr)
    opt_v = Adam(V.shape, cfg.lr)
    metric = objective == KIND_METRIC

    for epoch in range(1, cfg.epochs + 1):
        neg_i = _sample_negatives_array(rng, pos_u, codes, n_items)
        order = rng.permutation(n_pairs)
        epoch_loss = 0.0
        for start in range(0, n_pairs, cfg.batch):
            b = order[start:start + cfg.batch]
            bu, bi, bk = pos_u[b], pos_i[b], neg_i[b]
            loss, live, gu, gp, gn = triplet_loss_and_grads(
                objective, U.take(bu, axis=0), V.take(bi, axis=0),
                V.take(bk, axis=0), cfg.margin, cfg.l2)
            epoch_loss += loss

            rows_u = opt_u.step_rows(U, bu, bu[live], gu)
            rows_v = opt_v.step_rows(V, np.concatenate([bi, bk]),
                                     np.concatenate([bi[live], bk[live]]),
                                     np.concatenate([gp, gn]))
            if metric:
                project_rows(U, rows_u)
                project_rows(V, rows_v)

        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(epoch, epoch_loss)
        if loss_history is not None:
            loss_history.append(epoch_loss / n_pairs)

    return EmbeddingSpace(interactions.user_ids, interactions.item_ids,
                          U, V, objective)


# -- embedding file format ----------------------------------------------

def _fmt_row(row):
    """A row of floats, space-separated at nine significant digits."""
    return " ".join(["%.9g"] * len(row)) % tuple(row.tolist())


def save_embeddings(space, path):
    """Write a space as a text file.

    First line: ``K <dim> users <n> items <m> kind <kind>``.  Then one
    ``U <id> <f1> .. <fK>`` line per user and one ``V <id> ...`` line per
    item, in id order, floats at nine significant digits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"K {space.dim} users {len(space.user_ids)} "
                 f"items {len(space.item_ids)} kind {space.kind}\n")
        for tag, ids, mat in (("U", space.user_ids, space.U),
                              ("V", space.item_ids, space.V)):
            for x, row in zip(ids, mat):
                fh.write(f"{tag} {x} {_fmt_row(row)}\n")


def read_artifact(path, *names):
    """The values of the header ``<name> <value> ..`` of ``path``, one
    per ``names``, each a count but a ``kind``, and ``(lineno, fields)``
    of every non-blank line after it; a fault raises :class:`DataError`."""
    lines = read_lines(path, DataError)
    header = next(lines, (1, ""))[1].split()
    if header[::2] != list(names) or len(header) != 2 * len(names):
        raise DataError(f"{path}: expected the header "
                        f"'{' '.join(f'{n} <{n}>' for n in names)}'")
    for name, text in zip(names, header[1::2]):
        if name != "kind" and not text.isdecimal():
            raise DataError(f"{path}: header field {name} is {text!r}, "
                            f"not a count")
    rows = ((lineno, line.split()) for lineno, line in lines)
    return ([text if name == "kind" else int(text)
             for name, text in zip(names, header[1::2])],
            ((lineno, fields) for lineno, fields in rows if fields))


def parse_row(path, lineno, fields, width):
    """``fields`` as ``width`` floats: a wrong width or a non-float raises
    :class:`MalformedLine`, a NaN or infinity :class:`NonFiniteInput`."""
    if len(fields) != width:
        raise MalformedLine(path, lineno, f"expected {width} values, "
                            f"got {len(fields)}")
    try:
        row = list(map(float, fields))
    except ValueError as exc:
        raise MalformedLine(path, lineno, str(exc)) from None
    if not all(map(math.isfinite, row)):
        raise NonFiniteInput(f"{path}:{lineno}: non-finite value")
    return row


def build_artifact(path, cls, *args):
    """``cls(*args)``; a :class:`DataError` it raises gains ``path``."""
    try:
        return cls(*args)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_embeddings(path):
    (dim, n_users, n_items, kind), rows = read_artifact(
        path, "K", "users", "items", "kind")
    # a row ("U <id>", dim " <x>", newline) takes 2 * dim + 4 bytes or
    # more, so counts the file cannot hold fail before any allocation
    size = os.path.getsize(path)
    if (n_users + n_items) * (2 * dim + 4) > size:
        raise DataError(f"{path}: header declares more rows than its "
                        f"{size} bytes can hold")
    ids = {"U": [], "V": []}
    mats = {"U": np.empty((n_users, dim)), "V": np.empty((n_items, dim))}
    for lineno, fields in rows:
        if fields[0] not in ids or len(fields) < 2:
            raise MalformedLine(path, lineno, "expected U <id> or V <id>")
        got, mat = ids[fields[0]], mats[fields[0]]
        if len(got) == mat.shape[0]:
            raise MalformedLine(path, lineno, f"more {fields[0]} rows than "
                                f"the header declares")
        mat[len(got)] = parse_row(path, lineno, fields[2:], dim)
        got.append(fields[1])
    if len(ids["U"]) != n_users or len(ids["V"]) != n_items:
        raise DataError(f"{path}: row counts disagree with header")
    return build_artifact(path, EmbeddingSpace, ids["U"], ids["V"],
                          mats["U"], mats["V"], kind)
