"""Cross-domain mapping network.

A two-layer perceptron ``K -> 2K -> K`` with tanh hidden units translates
source-domain user vectors into the target metric space.  The raw output
is projected onto the unit ball, so mapped vectors satisfy the same norm
constraint as trained target vectors for any input.

Two training signals:

* supervised: for the linked (train-overlap) users, pull the mapped
  source vector onto the user's target vector (squared distance).
* unsupervised: for the same users, require a source item the user
  interacted with, once mapped, to sit closer to the user's target vector
  than a random source item the user did not touch (a margin hinge).

The total objective is ``L_sup + lam * L_unsup``.  ``lam = 0`` (or mode
``supervised-only``) makes both signals collapse onto the identical
supervised code path, so the two configurations produce bit-identical
networks for equal seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    EmptyBatch,
    MalformedLine,
    NonFiniteLoss,
    NoOverlapUsers,
)
from .data import id_rows
from .embed import (_fmt_row, _in_sorted, build_artifact, metric_hinge,
                    parse_row, project_rows, read_artifact)
from .optim import Adam

MODE_SUPERVISED = "supervised-only"
MODE_SEMI = "semi-supervised"


class MappingNetwork:
    """Weights of the translator; treated as immutable outside training."""

    __slots__ = ("w1", "b1", "w2", "b2")

    def __init__(self, w1, b1, w2, b2):
        w1, b1, w2, b2 = (np.asarray(a, dtype=float) for a in (w1, b1, w2, b2))
        k = w1.shape[1]
        if (w1.shape != (2 * k, k) or b1.shape != (2 * k,)
                or w2.shape != (k, 2 * k) or b2.shape != (k,)):
            raise DimensionMismatch("weights are not K -> 2K -> K shaped")
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @property
    def dim(self):
        return self.w1.shape[1]

    def forward_batch(self, X):
        """Map the rows of ``X``; every result row has norm <= 1."""
        return _Backprop(self, np.asarray(X, dtype=float)).Y


def init_mapping(dim, rng):
    """Glorot-uniform weights, zero biases."""
    lim1 = np.sqrt(6.0 / (dim + 2 * dim))
    w1 = rng.uniform(-lim1, lim1, size=(2 * dim, dim))
    b1 = np.zeros(2 * dim)
    lim2 = np.sqrt(6.0 / (2 * dim + dim))
    w2 = rng.uniform(-lim2, lim2, size=(dim, 2 * dim))
    b2 = np.zeros(dim)
    return MappingNetwork(w1, b1, w2, b2)


@dataclass(frozen=True)
class MapTrainConfig:
    lam: float = 0.5
    margin: float = 1.0
    lr: float = 0.001
    epochs: int = 100
    batch: int = 64
    mode: str = MODE_SEMI
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_SUPERVISED, MODE_SEMI):
            raise ConfigError(f"unknown mapping mode {self.mode!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be non-negative, got {self.lam}")
        if not all(np.isfinite(x) and x > 0
                   for x in (self.margin, self.lr)):
            raise ConfigError("margin and lr must be positive")
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError("epochs and batch must be positive")


class _Backprop:
    """The network's forward pass over a stacked input batch, keeping what
    the backward pass needs."""

    def __init__(self, net, X):
        self.net = net
        self.X = X
        self.H = np.tanh(X @ net.w1.T + net.b1)
        self.Y = self.H @ net.w2.T + net.b2
        self.norms = project_rows(self.Y)
        self.big = self.norms > 1.0

    def grads(self, dY):
        """dLoss/d(w1, b1, w2, b2) given dLoss/dY."""
        G = dY.copy()
        if self.big.any():
            # through y = yr / |yr|: (I - y y^T) / |yr|
            b = self.big
            yhat = self.Y[b]
            inner = np.einsum("ij,ij->i", yhat, dY[b])
            G[b] = (dY[b] - yhat * inner[:, None]) / self.norms[b][:, None]
        dw2 = G.T @ self.H
        db2 = G.sum(axis=0)
        dH = G @ self.net.w2
        dA = dH * (1.0 - self.H * self.H)
        dw1 = dA.T @ self.X
        db1 = dA.sum(axis=0)
        return dw1, db1, dw2, db2


def mapping_loss_and_grads(net, sup_src, sup_tgt, margin=1.0, lam=0.0,
                           pos_vecs=None, neg_vecs=None, anchor_vecs=None):
    """Batch loss and parameter gradients in one shared pass.

    The supervised term sums squared distances between mapped ``sup_src``
    rows and ``sup_tgt`` rows.  When ``lam > 0`` and triplet arrays are
    given, each (pos, neg, anchor) row adds a margin hinge on the mapped
    item distances, weighted by ``lam``.  Returns ``(loss, grads, info)``
    with ``grads = (dw1, db1, dw2, db2)`` and ``info`` carrying the raw
    output norms and hinge arguments (useful to keep finite-difference
    checks away from the kinks).  Only the active hinges write their
    gradients into ``dL/dY``.  An inactive one's rows stay +0.0 where a
    dense subgradient would hold ±0.0; a signed zero term changes no
    nonzero sum, so the parameter gradients keep their bits.
    """
    S = np.asarray(sup_src, dtype=float)
    T = np.asarray(sup_tgt, dtype=float)
    if S.shape != T.shape:
        raise DimensionMismatch(f"{S.shape} vs {T.shape}")
    m = S.shape[0]
    semi = lam > 0.0 and pos_vecs is not None
    if semi:
        P = np.asarray(pos_vecs, dtype=float)
        N = np.asarray(neg_vecs, dtype=float)
        A = np.asarray(anchor_vecs, dtype=float)
        if P.shape != N.shape or P.shape != A.shape:
            raise DimensionMismatch("triplet arrays must share one shape")
        X = np.concatenate([S, P, N])
    else:
        X = S
    bp = _Backprop(net, X)
    Y = bp.Y
    dY = np.zeros_like(Y)

    diff = Y[:m] - T
    loss = float(np.sum(diff * diff))
    dY[:m] = 2.0 * diff

    hinge_args = np.empty(0)
    if semi:
        t = P.shape[0]
        hinge_args, hinge, live, _, gP, gN = metric_hinge(
            A, Y[m:m + t], Y[m + t:], margin)
        loss += lam * hinge
        dY[m + live] = lam * gP
        dY[m + t + live] = lam * gN

    info = {"raw_norms": bp.norms.copy(), "hinge_args": hinge_args}
    return loss, bp.grads(dY), info


def _sample_excluding(rng, n, users, starts, codes):
    """One (positive, negative) source item pair per entry of ``users``.

    ``codes`` holds the sorted ``user * n + item`` codes of every user's
    items, user ``u``'s at ``codes[starts[u]:starts[u + 1]]``.  For each
    user in turn the pair is what the scalar calls ::

        pos = the user's item number rng.integers(0, its item count)
        neg = rng.integers(0, n), drawn again while the user has it

    return, and ``rng`` ends in the state those calls leave it in.

    ``rng.integers(0, bounds)`` with an array of bounds draws one value
    per bound, as that many scalar calls would.  Every user's pair is
    drawn at once with bounds ``[deg(u0), n, deg(u1), n, ...]``.  At the
    first blocked negative the generator is rewound and drawn again up
    to that negative, which is then redrawn alone until it is free, and
    the users after it go on in bulk.
    """
    bounds = np.full(2 * users.shape[0], n, dtype=np.int64)
    bounds[::2] = starts[users + 1] - starts[users]
    pos = np.empty(users.shape[0], dtype=np.int64)
    neg = np.empty(users.shape[0], dtype=np.int64)
    r = 0
    while r < users.shape[0]:
        u = users[r:]
        state = rng.bit_generator.state
        k, x = rng.integers(0, bounds[2 * r:]).reshape(-1, 2).T
        pos[r:] = codes[starts[u] + k] - u * n
        neg[r:] = x
        blocked = _in_sorted(codes, u * n + x)
        if not blocked.any():
            break
        f = int(np.argmax(blocked))
        rng.bit_generator.state = state
        rng.integers(0, bounds[2 * r:2 * (r + f + 1)])
        r += f
        while _in_sorted(codes, users[r] * n + neg[r]):
            neg[r] = rng.integers(0, n)
        r += 1
    return pos, neg


def train_mapping(source_space, target_space, scenario, cfg,
                  loss_history=None):
    """Fit the translator on the linked (train-overlap) users.

    Only the train-overlap users' target vectors are ever read, so held
    out test users cannot leak into the mapping.  In semi-supervised mode
    each batch user also contributes one (positive item, negative item)
    triplet, resampled every epoch, anchored at the user's target vector.
    Rows of both spaces are found by id, so their order does not matter.
    Both spaces share one K: ``experiment.train_artifact`` checks it.
    """
    linked = scenario.train_overlap_users
    if not linked:
        raise NoOverlapUsers("no train-overlap users")

    semi = cfg.mode == MODE_SEMI and cfg.lam > 0.0
    dim = source_space.dim
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_init = np.random.default_rng(seeds[0])
    rng_perm = np.random.default_rng(seeds[1])
    rng_neg = np.random.default_rng(seeds[2])

    net = init_mapping(dim, rng_init)
    opts = [Adam(p.shape, cfg.lr)
            for p in (net.w1, net.b1, net.w2, net.b2)]

    n = len(linked)
    S = source_space.U[id_rows(source_space.user_index, linked)]
    T = target_space.U[id_rows(target_space.user_index, linked)]

    if semi:
        src = scenario.source
        u_rows = id_rows(src.user_index, linked)
        # sorted ``row * n_items + item`` codes of the source pairs, row
        # r's at codes[starts[r]:starts[r + 1]]
        pair_u, pair_i = src.pair_arrays()
        codes = pair_u * src.n_items + pair_i
        starts = np.searchsorted(pair_u, np.arange(src.n_users + 1))
        deg = np.diff(starts)[u_rows]
        if np.any(deg == 0):
            user = src.user_ids[u_rows[deg.argmin()]]
            raise EmptyBatch(f"linked user {user} has no source items")
        if np.any(deg >= src.n_items):
            raise EmptyBatch("no negative source items to sample")
        Vsrc = source_space.V[id_rows(source_space.item_index, src.item_ids)]

    for epoch in range(1, cfg.epochs + 1):
        order = rng_perm.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch):
            b = order[start:start + cfg.batch]
            Sb, Tb = S[b], T[b]
            if semi:
                pj, nk = _sample_excluding(rng_neg, src.n_items, u_rows[b],
                                           starts, codes)
                loss, grads, _ = mapping_loss_and_grads(
                    net, Sb, Tb, margin=cfg.margin, lam=cfg.lam,
                    pos_vecs=Vsrc[pj], neg_vecs=Vsrc[nk], anchor_vecs=Tb)
            else:
                loss, grads, _ = mapping_loss_and_grads(net, Sb, Tb)
            epoch_loss += loss
            for opt, param, grad in zip(opts,
                                        (net.w1, net.b1, net.w2, net.b2),
                                        grads):
                opt.step(param, grad)

        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(epoch, epoch_loss)
        if loss_history is not None:
            loss_history.append(epoch_loss / n)

    return net


# -- mapping file format -------------------------------------------------

def save_mapping(net, path):
    """Text format: ``K <dim>`` then W1 rows, b1, W2 rows, b2, one row per
    line at nine significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"K {net.dim}\n")
        for row in (*net.w1, net.b1, *net.w2, net.b2):
            fh.write(_fmt_row(row) + "\n")


def load_mapping(path):
    (k,), lines = read_artifact(path, "K")
    expect = 2 * k + 1 + k + 1
    rows = []  # w1 rows, then b1, w2 rows and b2: K, 2K, 2K and K values
    for lineno, fields in lines:
        if len(rows) == expect:
            raise MalformedLine(path, lineno, f"more than the {expect} rows "
                                f"the header declares")
        width = 2 * k if 2 * k <= len(rows) <= 3 * k else k
        rows.append(parse_row(path, lineno, fields, width))
    if len(rows) != expect:
        raise DataError(f"{path}: expected {expect} rows, got {len(rows)}")
    return build_artifact(path, MappingNetwork, rows[:2 * k], rows[2 * k],
                          rows[2 * k + 1:3 * k + 1], rows[3 * k + 1])
