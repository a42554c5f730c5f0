import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import dense, distance, triplet

from crossrec import optim
from crossrec.data import InteractionSet
from crossrec.embed import (
    EmbeddingSpace,
    EmbedTrainConfig,
    _sample_negatives_array,
    load_embeddings,
    metric_hinge,
    project_rows,
    save_embeddings,
    train_embeddings,
    triplet_loss_and_grads,
)
from crossrec.errors import ConfigError, EmptyDataset

# frozen oracle values, computed with mpmath at 30 digits:
#   log(1 + exp(-10)) and log(1 + e)
BPR_LOSS_AT_10 = 4.5398899216864646769e-05
BPR_LOSS_AT_MINUS_1 = 1.313261687518222834


# -- distance and projection ---------------------------------------------

def _sq_distance(v, q):
    """``|v - q|^2``: a metric space's negated score of row ``v`` for ``q``."""
    space = EmbeddingSpace((), ("v",), np.zeros((0, len(v))), [v], "metric")
    return -space.scores([0], np.asarray(q, dtype=float))[0]


def _projected(x):
    x = np.array(x, dtype=float)
    project_rows(x[None])
    return x


def test_distance_values():
    assert _sq_distance([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert _sq_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
        2.0, abs=1e-12)
    assert _sq_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert _sq_distance([-1.0], [3.0]) == pytest.approx(16.0, abs=1e-12)


def test_project_unit_ball_values():
    np.testing.assert_allclose(_projected([0.3, 0.4]), [0.3, 0.4])
    np.testing.assert_allclose(_projected([3.0, 4.0]), [0.6, 0.8],
                               atol=1e-12)
    z = _projected([0.0, 0.0, 0.0])
    np.testing.assert_array_equal(z, [0.0, 0.0, 0.0])


@settings(max_examples=80)
@given(arrays(np.float64, st.integers(1, 8),
              elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_projection_is_idempotent_and_non_expansive(x):
    p = _projected(x)
    assert np.linalg.norm(p) <= 1.0 + 1e-12
    np.testing.assert_allclose(_projected(p), p, atol=1e-12)
    # never increases the norm
    assert np.linalg.norm(p) <= np.linalg.norm(x) + 1e-12


# -- triplet losses ------------------------------------------------------

def test_cml_triplet_loss_values():
    u = [0.0, 0.0]
    near = [0.1, 0.0]   # d = 0.01
    far = [1.0, 0.0]    # d = 1.0
    # active hinge: 1 + 0.01 - 1.0
    assert triplet("metric", u, near, far, 1.0)[0] == pytest.approx(
        0.01, abs=1e-12)
    # inactive: positive much closer than negative with a small margin
    assert triplet("metric", u, near, far, 0.5)[0] == 0.0
    # zero vectors: loss equals the margin
    assert triplet("metric", [0.0], [0.0], [0.0], 1.5)[0] == 1.5


@settings(max_examples=60)
@given(arrays(np.float64, 4, elements=st.floats(-2, 2, allow_nan=False)),
       arrays(np.float64, 4, elements=st.floats(-2, 2, allow_nan=False)),
       arrays(np.float64, 4, elements=st.floats(-2, 2, allow_nan=False)),
       st.floats(0.1, 2.0))
def test_cml_loss_zero_iff_gap_exceeds_margin(u, vp, vn, margin):
    loss = triplet("metric", u, vp, vn, margin)[0]
    gap = distance(u, vn) - distance(u, vp)
    if gap >= margin:
        assert loss == 0.0
    else:
        assert loss == pytest.approx(margin - gap, rel=1e-9, abs=1e-9)


def test_bpr_triplet_loss_frozen_values():
    # score gap of 10
    u = [1.0, 0.0]
    vp = [10.0, 0.0]
    vn = [0.0, 0.0]
    assert triplet("inner", u, vp, vn)[0] == pytest.approx(
        BPR_LOSS_AT_10, rel=1e-12)
    # score gap of -1
    assert triplet("inner", [1.0], [0.0], [1.0])[0] == pytest.approx(
        BPR_LOSS_AT_MINUS_1, rel=1e-12)
    # zero gap
    assert triplet("inner", [0.0], [5.0], [5.0])[0] == pytest.approx(
        np.log(2.0), rel=1e-12)


def test_bpr_loss_is_stable_for_huge_gaps():
    assert triplet("inner", [1.0], [1000.0], [0.0])[0] == 0.0
    big = triplet("inner", [1.0], [0.0], [1000.0])[0]
    assert big == pytest.approx(1000.0, rel=1e-9)


# -- analytic gradients vs central differences ---------------------------

def _central_diff(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = eps
        g[k] = (f(x + e) - f(x - e)) / (2 * eps)
    return g


def test_cml_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 25:
        u, vp, vn = rng.normal(size=(3, 5))
        m = 1.0  # margin
        arg = m + distance(u, vp) - distance(u, vn)
        if abs(arg) < 1e-3:  # keep away from the hinge kink
            continue
        gu, gp, gn = triplet("metric", u, vp, vn, m)[1]
        fu = _central_diff(lambda x: triplet("metric", x, vp, vn, m)[0], u)
        fp = _central_diff(lambda x: triplet("metric", u, x, vn, m)[0], vp)
        fn = _central_diff(lambda x: triplet("metric", u, vp, x, m)[0], vn)
        for a, b in ((gu, fu), (gp, fp), (gn, fn)):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-7)
        checked += 1


def test_bpr_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(25):
        u, vp, vn = rng.normal(size=(3, 5))
        gu, gp, gn = triplet("inner", u, vp, vn)[1]
        fu = _central_diff(lambda x: triplet("inner", x, vp, vn)[0], u)
        fp = _central_diff(lambda x: triplet("inner", u, x, vn)[0], vp)
        fn = _central_diff(lambda x: triplet("inner", u, vp, x)[0], vn)
        for a, b in ((gu, fu), (gp, fp), (gn, fn)):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("kind, l2", [("metric", 0.0), ("inner", 0.0),
                                      ("inner", 0.05)])
def test_batched_kernel_matches_finite_differences(kind, l2):
    rng = np.random.default_rng(7)
    n, k, margin = 6, 4, 1.0
    U, Vp, Vn = rng.uniform(-0.6, 0.6, size=(3, n, k))
    # row 0 sits exactly on the hinge: d_pos = 0, d_neg = margin
    U[0], Vp[0], Vn[0] = 0.0, 0.0, [1.0, 0.0, 0.0, 0.0]
    loss, rows, *grads = triplet_loss_and_grads(kind, U, Vp, Vn, margin, l2)
    grads = dense(rows, grads, n)
    if kind == "metric":
        for g in grads:
            assert not g[0].any()
        arg = (margin + np.sum((U - Vp) ** 2, axis=1)
               - np.sum((U - Vn) ** 2, axis=1))
        # the other rows are off the kink, some active and some not
        assert np.all(np.abs(arg[1:]) > 1e-3)
        assert np.any(arg[1:] > 0) and np.any(arg[1:] < 0)
        rows = slice(1, n)
    else:
        rows = slice(0, n)
    mats = (U, Vp, Vn)
    for which, g in enumerate(grads):
        def f(x, which=which):
            batch = list(mats)
            batch[which] = batch[which].copy()
            batch[which][rows] = x.reshape(-1, k)
            return triplet_loss_and_grads(kind, *batch, margin, l2)[0]
        fd = _central_diff(f, mats[which][rows].ravel())
        np.testing.assert_allclose(g[rows].ravel(), fd, rtol=1e-4,
                                   atol=1e-7)


def test_scalar_triplet_functions_wrap_the_batched_kernel():
    rng = np.random.default_rng(3)
    U, Vp, Vn = rng.normal(size=(3, 5, 4))
    for kind in ("metric", "inner"):
        _, rows, *grads = triplet_loss_and_grads(kind, U, Vp, Vn, 1.0)
        grads = dense(rows, grads, 5)
        for r in range(5):
            for a, b in zip(triplet(kind, U[r], Vp[r], Vn[r])[1], grads):
                np.testing.assert_array_equal(a, b[r])


def test_hinge_subgradient_is_zero_at_the_boundary():
    # arrange an exactly-zero hinge argument: d_pos = 0, d_neg = margin
    u = np.zeros(2)
    vp = np.zeros(2)
    vn = np.array([1.0, 0.0])
    gu, gp, gn = triplet("metric", u, vp, vn, 1.0)[1]
    assert not gu.any() and not gp.any() and not gn.any()


@pytest.mark.parametrize("seed", range(4))
def test_metric_hinge_returns_the_active_rows_and_their_gradients(seed):
    rng = np.random.default_rng(seed)
    n, k, margin = 64, 5, 0.25
    A, P, N = rng.uniform(-0.5, 0.5, size=(3, n, k))
    # rows 0 and 1 sit exactly on the hinge: d_pos = 0, d_neg = margin
    A[:2], P[:2], N[:2] = 0.0, 0.0, 0.0
    N[:2, 0] = 0.5
    arg, loss, rows, gA, gP, gN = metric_hinge(A, P, N, margin)
    assert arg[0] == arg[1] == 0.0
    assert 0 < rows.shape[0] < n - 2
    np.testing.assert_array_equal(rows, np.flatnonzero(arg > 0))
    assert loss == float(np.sum(np.maximum(arg, 0.0)))
    w = 2.0 * (arg > 0)[:, None]
    for full, want in zip(dense(rows, (gA, gP, gN), n),
                          (w * (N - P), w * (P - A), w * (A - N))):
        assert np.array_equal(full, want)


# -- config and space types ----------------------------------------------

def test_embed_config_validation():
    with pytest.raises(ConfigError):
        EmbedTrainConfig(dim=0)
    with pytest.raises(ConfigError):
        EmbedTrainConfig(margin=0.0)
    with pytest.raises(ConfigError):
        EmbedTrainConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        EmbedTrainConfig(l2_reg=-1e-9)
    for bad in (np.nan, np.inf):
        for field in ("margin", "learning_rate", "l2_reg"):
            with pytest.raises(ConfigError):
                EmbedTrainConfig(**{field: bad})


def test_metric_space_rejects_rows_outside_the_ball():
    U = np.array([[0.9, 0.9]])  # norm > 1
    V = np.zeros((1, 2))
    with pytest.raises(ValueError):
        EmbeddingSpace(("u",), ("i",), U, V, "metric")
    # the same rows are fine for an inner-product space
    EmbeddingSpace(("u",), ("i",), U, V, "inner")


def _toy_interactions(n_users=6, n_items=9, per_user=4):
    pairs = [(f"u{a}", f"i{(a * 3 + j) % n_items}")
             for a in range(n_users) for j in range(per_user)]
    return InteractionSet(pairs, items=[f"i{b}" for b in range(n_items)])


# -- training ------------------------------------------------------------

def test_train_embeddings_metric_loss_decreases_and_stays_in_ball():
    data = _toy_interactions()
    cfg = EmbedTrainConfig(dim=8, learning_rate=0.05, epochs=50,
                           batch_size=8, seed=3)
    history = []
    space = train_embeddings(data, cfg, objective="metric",
                             loss_history=history)
    assert len(history) == 50
    assert history[49] < history[0]
    norms = np.linalg.norm(np.vstack([space.U, space.V]), axis=1)
    assert norms.max() <= 1.0 + 1e-6
    assert space.kind == "metric"
    assert space.user_ids == data.user_ids
    assert space.item_ids == data.item_ids


def test_train_embeddings_inner_loss_decreases():
    data = _toy_interactions()
    cfg = EmbedTrainConfig(dim=8, learning_rate=0.05, epochs=50,
                           batch_size=8, l2_reg=0.001, seed=3)
    history = []
    space = train_embeddings(data, cfg, objective="inner",
                             loss_history=history)
    assert history[49] < history[0]
    assert space.kind == "inner"


def test_train_embeddings_is_deterministic():
    data = _toy_interactions()
    cfg = EmbedTrainConfig(dim=4, learning_rate=0.02, epochs=10,
                           batch_size=4, seed=11)
    a = train_embeddings(data, cfg)
    b = train_embeddings(data, cfg)
    np.testing.assert_array_equal(a.U, b.U)
    np.testing.assert_array_equal(a.V, b.V)
    c = train_embeddings(data, EmbedTrainConfig(
        dim=4, learning_rate=0.02, epochs=10, batch_size=4, seed=12))
    assert not np.array_equal(a.U, c.U)


def test_train_embeddings_empty_dataset():
    empty = InteractionSet([], users=["u"], items=["i"])
    with pytest.raises(EmptyDataset):
        train_embeddings(empty, EmbedTrainConfig(dim=2, epochs=1))


def test_negative_sampling_never_hits_observed_pairs():
    # a user holding all items but one forces heavy rejection
    items = [f"i{k}" for k in range(6)]
    pairs = [("u0", i) for i in items[:5]]
    pairs += [(f"u{k}", items[j]) for k in range(1, 4) for j in range(3)]
    data = InteractionSet(pairs, items=items)
    cfg = EmbedTrainConfig(dim=3, learning_rate=0.05, epochs=30,
                           batch_size=4, seed=0)
    space = train_embeddings(data, cfg)  # would loop forever on a bug
    assert space.U.shape == (4, 3)


def _negatives_rechecking_all(rng, pos_u, codes, n_items):
    """The sampler that checks every entry again after each round."""
    neg = rng.integers(0, n_items, size=pos_u.shape[0])
    while True:
        bad = np.isin(pos_u * n_items + neg, codes)
        if not bad.any():
            return neg
        neg[bad] = rng.integers(0, n_items, size=int(bad.sum()))


@pytest.mark.parametrize("seed", range(5))
def test_negative_sampler_rechecks_only_redrawn_entries(seed):
    """The draws and the generator state it leaves match a sampler that
    checks every entry in every round."""
    rng = np.random.default_rng(seed)
    n_items = 40
    degrees = [37, 30, 3, 1, 12, 39]
    pos_u = np.repeat(np.arange(len(degrees)), degrees)
    pos_i = np.concatenate([np.sort(rng.choice(n_items, d, replace=False))
                            for d in degrees])
    codes = pos_u * n_items + pos_i
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = _sample_negatives_array(ours, pos_u, codes, n_items)
        np.testing.assert_array_equal(
            got, _negatives_rechecking_all(ref, pos_u, codes, n_items))
        assert not np.isin(pos_u * n_items + got, codes).any()
    assert ours.bit_generator.state == ref.bit_generator.state


def _dense_lazy_adam(opt, param, idx, grads):
    """Sum the gradients of ``idx`` with ``np.add.at`` into a dense array
    and take one lazy Adam step on the rows ``idx`` names."""
    acc = np.zeros_like(param)
    np.add.at(acc, idx, grads)
    rows = np.unique(idx)
    g = acc[rows]
    opt.t += 1
    opt.m[rows] = optim.BETA1 * opt.m[rows] + (1.0 - optim.BETA1) * g
    opt.v[rows] = (optim.BETA2 * opt.v[rows]
                   + (1.0 - optim.BETA2) * g * g)
    m_hat = opt.m[rows] / (1.0 - optim.BETA1 ** opt.t)
    v_hat = opt.v[rows] / (1.0 - optim.BETA2 ** opt.t)
    param[rows] -= m_hat * opt.lr / (np.sqrt(v_hat) + optim.EPS)
    return rows


def _reference_train(data, cfg, objective):
    """Training as a dense loop: a gradient row for every triplet, active
    or not, summed with ``np.add.at``, and every negative checked again
    in each sampling round.  Returns ``(U, V, loss_history, share of
    active hinges in the last epoch, most sampling rounds in one
    epoch)``."""
    rng = np.random.default_rng(cfg.seed)
    n_items = data.n_items
    scale = 1.0 / np.sqrt(cfg.dim)
    U = rng.uniform(-scale, scale, size=(data.n_users, cfg.dim))
    V = rng.uniform(-scale, scale, size=(n_items, cfg.dim))
    pos_u, pos_i = data.pair_arrays()
    codes = pos_u * n_items + pos_i
    opt_u = optim.Adam(U.shape, cfg.learning_rate)
    opt_v = optim.Adam(V.shape, cfg.learning_rate)
    history, active, rounds = [], 0.0, 0
    for _ in range(cfg.epochs):
        neg = rng.integers(0, n_items, size=pos_u.shape[0])
        n_rounds = 0
        while True:
            bad = np.isin(pos_u * n_items + neg, codes)
            if not bad.any():
                break
            neg[bad] = rng.integers(0, n_items, size=int(bad.sum()))
            n_rounds += 1
        rounds = max(rounds, n_rounds)
        order = rng.permutation(pos_u.shape[0])
        epoch_loss, n_active = 0.0, 0
        for start in range(0, order.shape[0], cfg.batch_size):
            b = order[start:start + cfg.batch_size]
            bu, bi, bk = pos_u[b], pos_i[b], neg[b]
            A, P, N = U[bu], V[bi], V[bk]
            if objective == "metric":
                pa, an = P - A, A - N
                arg = (cfg.margin + np.einsum("ij,ij->i", pa, pa)
                       - np.einsum("ij,ij->i", an, an))
                loss = float(np.sum(np.maximum(arg, 0.0)))
                w = 2.0 * (arg > 0.0)[:, None]
                gu, gp, gn = w * (N - P), w * pa, w * an
                n_active += int(np.sum(arg > 0.0))
            else:
                loss, _, gu, gp, gn = triplet_loss_and_grads(
                    "inner", A, P, N, l2=cfg.l2_reg)
            epoch_loss += loss
            rows_u = _dense_lazy_adam(opt_u, U, bu, gu)
            rows_v = _dense_lazy_adam(opt_v, V, np.concatenate([bi, bk]),
                                      np.concatenate([gp, gn]))
            if objective == "metric":
                project_rows(U, rows_u)
                project_rows(V, rows_v)
        history.append(epoch_loss / pos_u.shape[0])
        active = n_active / pos_u.shape[0]
    return U, V, history, active, rounds


@pytest.mark.parametrize("objective, l2", [("metric", 0.0),
                                           ("inner", 0.001)])
def test_training_matches_the_dense_loop_bit_for_bit(objective, l2):
    n_items = 40
    rng = np.random.default_rng(5)
    # user u0 holds 36 of the 40 items, so its negatives are redrawn in
    # several rounds
    pairs = [("u0", f"i{j}") for j in range(36)]
    pairs += [(f"u{a}", f"i{j}") for a in range(1, 25)
              for j in rng.choice(n_items, 5, replace=False)]
    data = InteractionSet(pairs, items=[f"i{j}" for j in range(n_items)])
    cfg = EmbedTrainConfig(dim=6, learning_rate=0.05, l2_reg=l2,
                           epochs=80, batch_size=32, seed=9)
    U, V, ref_history, active, rounds = _reference_train(data, cfg,
                                                         objective)
    assert rounds >= 3
    if objective == "metric":
        assert active < 0.5
    history = []
    space = train_embeddings(data, cfg, objective=objective,
                             loss_history=history)
    np.testing.assert_array_equal(space.U, U)
    np.testing.assert_array_equal(space.V, V)
    assert history == ref_history


# -- file format ---------------------------------------------------------

def test_embedding_save_load_round_trip(tmp_path):
    data = _toy_interactions()
    cfg = EmbedTrainConfig(dim=5, learning_rate=0.05, epochs=5,
                           batch_size=8, seed=2)
    space = train_embeddings(data, cfg)
    path = tmp_path / "emb.txt"
    save_embeddings(space, path)

    header = path.read_text().splitlines()[0].split()
    assert header == ["K", "5", "users", "6", "items", "9",
                      "kind", "metric"]
    back = load_embeddings(path)
    assert back.kind == space.kind
    assert back.user_ids == space.user_ids
    assert back.item_ids == space.item_ids
    # nine significant digits quantize at <= 5e-9 relative error
    np.testing.assert_allclose(back.U, space.U, rtol=5.1e-9, atol=1e-12)
    np.testing.assert_allclose(back.V, space.V, rtol=5.1e-9, atol=1e-12)

    save_embeddings(back, tmp_path / "emb2.txt")
    assert (tmp_path / "emb2.txt").read_bytes() == path.read_bytes()


# signed zeros, subnormals, the largest and smallest normal magnitudes,
# values at the edge of nine digits and of exponent notation, thirds
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -4.9e-322, 2.2250738585072014e-308,
                -1e-308, 1e308, -1.7976931348623157e308, 1e16, -1e16,
                1e15, 123456789.0, 1234567890.5, 9.9999999995e-5, 1e-4,
                0.1, 1 / 3, -2 / 3, 12345.6789012345, 1e-7]


def _per_float_row(row):
    """A saved row as each float formatted on its own."""
    return " ".join(format(float(x), ".9g") for x in row)


def test_saved_rows_match_the_per_float_format(tmp_path):
    mat = np.array(_EDGE_FLOATS).reshape(4, 5)
    space = EmbeddingSpace(["a", "b"], ["x", "y"], mat[:2], mat[2:],
                           "inner")
    path = tmp_path / "emb.txt"
    save_embeddings(space, path)
    assert path.read_text(encoding="utf-8") == (
        "K 5 users 2 items 2 kind inner\n"
        + "".join(f"{tag} {x} {_per_float_row(row)}\n" for tag, x, row in
                  zip("UUVV", ("a", "b", "x", "y"), mat)))
    back = load_embeddings(path)
    parsed = np.array([float(format(x, ".9g")) for x in _EDGE_FLOATS])
    assert np.vstack((back.U, back.V)).tobytes() == \
        parsed.reshape(4, 5).tobytes()


def test_load_embeddings_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a header\n")
    with pytest.raises(ValueError):
        load_embeddings(p)


def test_load_embeddings_rejects_rows_beyond_the_header(tmp_path):
    space = EmbeddingSpace(("u",), ("i",), np.zeros((1, 2)),
                           np.zeros((1, 2)), "inner")
    path = tmp_path / "emb.txt"
    save_embeddings(space, path)
    for extra in ("U u2 0 0\n", "V i2 0 0\n"):
        bad = tmp_path / "extra.txt"
        bad.write_text(path.read_text() + extra)
        with pytest.raises(ValueError, match="more"):
            load_embeddings(bad)


@pytest.mark.parametrize("users, items, repeated", [
    (("u", "w", "u"), ("i",), "'u'"),
    (("u",), ("i", "j", "j"), "'j'"),
])
def test_space_rejects_repeated_ids(users, items, repeated):
    with pytest.raises(ValueError, match=f"repeated .* id {repeated}"):
        EmbeddingSpace(users, items, np.zeros((len(users), 2)),
                       np.zeros((len(items), 2)), "inner")


def test_space_looks_ids_up_as_an_interaction_set_does():
    inter = InteractionSet([("u", "i"), ("w", "j"), ("u", "k")])
    space = EmbeddingSpace(inter.user_ids, inter.item_ids,
                           np.zeros((2, 2)), np.zeros((3, 2)), "inner")
    probes = {"user": ("u", "w", "x"), "item": ("i", "j", "k", "u")}
    for name, ids in probes.items():
        for x in ids:
            rows = []  # each lookup's row for x, None where it has none
            for lookup in (space, inter):
                try:
                    rows.append(getattr(lookup, f"{name}_index")(x))
                except KeyError:
                    rows.append(None)
            assert rows[0] == rows[1]
    for x in probes["user"]:
        assert space.has_user(x) == inter.has_user(x)
