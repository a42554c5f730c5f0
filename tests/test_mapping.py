import numpy as np
import pytest
from reference import items_of, supervised_loss, unsupervised_triplet_loss

from crossrec import experiment, mapping
from crossrec.data import (CrossDomainScenario, InteractionSet,
                           SplitSeedConfig)
from crossrec.embed import EmbeddingSpace
from crossrec.errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    EmptyBatch,
    NoOverlapUsers,
)
from crossrec.mapping import (
    MappingNetwork,
    _sample_excluding,
    MapTrainConfig,
    init_mapping,
    load_mapping,
    mapping_loss_and_grads,
    save_mapping,
    train_mapping,
)


def _zero_net(k):
    return MappingNetwork(np.zeros((2 * k, k)), np.zeros(2 * k),
                          np.zeros((k, 2 * k)), np.zeros(k))


def _net_with_b2(b2):
    k = len(b2)
    return MappingNetwork(np.zeros((2 * k, k)), np.zeros(2 * k),
                          np.zeros((k, 2 * k)), np.asarray(b2, float))


def _ball_rows(rng, n, k):
    return rng.uniform(-1.0 / np.sqrt(k), 1.0 / np.sqrt(k), size=(n, k))


# -- forward -------------------------------------------------------------

def test_forward_zero_network_maps_to_zero():
    net = _zero_net(3)
    np.testing.assert_array_equal(net.forward_batch([[0.5, -0.2, 0.1]])[0],
                                  np.zeros(3))


def test_forward_constant_output_inside_ball_is_untouched():
    net = _net_with_b2([0.3, 0.4])  # norm 0.5
    np.testing.assert_allclose(net.forward_batch([[9.0, -9.0]])[0],
                               [0.3, 0.4])


def test_forward_projects_outputs_outside_ball():
    net = _net_with_b2([1.2, 1.6])  # norm 2.0
    np.testing.assert_allclose(net.forward_batch([[0.0, 0.0]])[0],
                               [0.6, 0.8], atol=1e-12)


def test_output_norm_bounded_for_any_input():
    rng = np.random.default_rng(0)
    net = init_mapping(6, rng)
    X = rng.normal(scale=50.0, size=(200, 6))
    Y = net.forward_batch(X)
    assert np.linalg.norm(Y, axis=1).max() <= 1.0 + 1e-12
    for x in X[:10]:
        assert np.linalg.norm(net.forward_batch(x[None])[0]) <= 1.0 + 1e-12


# -- losses ---------------------------------------------------------------

def test_supervised_loss_values():
    net = _zero_net(2)  # maps everything to the origin
    S = np.array([[0.5, 0.0], [0.0, 0.1]])
    T = np.array([[0.3, 0.4], [0.0, 0.0]])
    # distances to the origin: 0.25 and 0.0
    assert supervised_loss(net, S, T) == pytest.approx(0.25, abs=1e-12)
    # identical pairs and a zero map: loss is the sum of |t|^2
    assert supervised_loss(net, T, T) == pytest.approx(0.25, abs=1e-12)


def test_supervised_loss_empty_batch():
    with pytest.raises(EmptyBatch):
        supervised_loss(_zero_net(2), np.empty((0, 2)), np.empty((0, 2)))


def test_unsupervised_loss_values():
    net = _zero_net(2)  # every mapped vector is the origin
    P = np.array([[0.9, 0.0]])
    N = np.array([[0.0, 0.9]])
    A = np.array([[0.6, 0.0]])
    # both map to the origin: d_pos = d_neg, hinge = margin
    assert unsupervised_triplet_loss(net, P, N, A, 0.7) == pytest.approx(
        0.7, abs=1e-12)
    # identity-ish case via constant output equal to the anchor
    net2 = _net_with_b2([0.6, 0.0])
    assert unsupervised_triplet_loss(net2, P, N, A, 0.7) == pytest.approx(
        0.7, abs=1e-12)


# -- gradients vs finite differences --------------------------------------

def _flatten(net):
    return np.concatenate([net.w1.ravel(), net.b1, net.w2.ravel(), net.b2])


def _unflatten(theta, k):
    a = 2 * k * k
    w1 = theta[:a].reshape(2 * k, k)
    b1 = theta[a:a + 2 * k]
    w2 = theta[a + 2 * k:a + 2 * k + 2 * k * k].reshape(k, 2 * k)
    b2 = theta[a + 2 * k + 2 * k * k:]
    return MappingNetwork(w1, b1, w2, b2)


def test_mapping_gradients_match_finite_differences():
    k = 4
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        net = init_mapping(k, rng)
        S = _ball_rows(rng, 3, k)
        T = _ball_rows(rng, 3, k)
        P = _ball_rows(rng, 3, k)
        N = _ball_rows(rng, 3, k)
        lam, margin = 0.6, 0.8
        loss, grads, info = mapping_loss_and_grads(
            net, S, T, margin=margin, lam=lam,
            pos_vecs=P, neg_vecs=N, anchor_vecs=T)
        # stay away from hinge kinks and the projection boundary
        if np.any(np.abs(info["hinge_args"]) < 1e-3):
            continue
        if np.any(np.abs(info["raw_norms"] - 1.0) < 1e-3):
            continue
        theta = _flatten(net)
        flat_analytic = np.concatenate(
            [grads[0].ravel(), grads[1], grads[2].ravel(), grads[3]])
        eps = 1e-6
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += eps
            down[j] -= eps
            lu, _, _ = mapping_loss_and_grads(
                _unflatten(up, k), S, T, margin=margin, lam=lam,
                pos_vecs=P, neg_vecs=N, anchor_vecs=T)
            ld, _, _ = mapping_loss_and_grads(
                _unflatten(down, k), S, T, margin=margin, lam=lam,
                pos_vecs=P, neg_vecs=N, anchor_vecs=T)
            fd[j] = (lu - ld) / (2 * eps)
        np.testing.assert_allclose(flat_analytic, fd, rtol=1e-4, atol=1e-7)
        checked += 1


def test_projection_jacobian_region_is_exercised():
    # big biases force the raw output outside the ball
    k = 3
    rng = np.random.default_rng(3)
    net = init_mapping(k, rng)
    net.b2 += 2.0
    S = _ball_rows(rng, 2, k)
    T = _ball_rows(rng, 2, k)
    loss, grads, info = mapping_loss_and_grads(net, S, T)
    assert np.all(info["raw_norms"] > 1.0)
    theta = _flatten(net)
    flat = np.concatenate([grads[0].ravel(), grads[1], grads[2].ravel(),
                           grads[3]])
    eps = 1e-6
    for j in rng.choice(theta.size, size=12, replace=False):
        up, down = theta.copy(), theta.copy()
        up[j] += eps
        down[j] -= eps
        lu, _, _ = mapping_loss_and_grads(_unflatten(up, k), S, T)
        ld, _, _ = mapping_loss_and_grads(_unflatten(down, k), S, T)
        assert flat[j] == pytest.approx((lu - ld) / (2 * eps), rel=1e-4,
                                        abs=1e-7)


# -- training -------------------------------------------------------------

def _mapping_scenario(n_users=12, n_items=15, per_user=4, seed=0):
    users = [f"u{k:02d}" for k in range(n_users)]
    items = [f"s{k:02d}" for k in range(n_items)]
    pairs = [(u, items[(3 * a + j) % n_items])
             for a, u in enumerate(users) for j in range(per_user)]
    source = InteractionSet(pairs, items=items)
    target = InteractionSet([(u, "t0") for u in users], items=["t0", "t1"])
    return CrossDomainScenario(
        source=source, target=target, train_overlap_users=tuple(users),
        heldout={}, split=SplitSeedConfig(phi=1.0, seed=seed))


def _paired_spaces(scenario, k, seed, rotate=False):
    rng = np.random.default_rng(seed)
    src_u = _ball_rows(rng, scenario.source.n_users, k)
    src_v = _ball_rows(rng, scenario.source.n_items, k)
    if rotate:
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        tgt_u = src_u @ q.T
    else:
        tgt_u = _ball_rows(rng, scenario.source.n_users, k)
    tgt_v = _ball_rows(rng, 2, k)
    source_space = EmbeddingSpace(scenario.source.user_ids,
                                  scenario.source.item_ids,
                                  src_u, src_v, "metric")
    target_space = EmbeddingSpace(scenario.source.user_ids,
                                  ("t0", "t1"), tgt_u, tgt_v, "metric")
    return source_space, target_space


def test_train_mapping_loss_decreases():
    scen = _mapping_scenario()
    src, tgt = _paired_spaces(scen, 6, seed=1)
    history = []
    cfg = MapTrainConfig(lam=0.5, lr=0.01, epochs=40,
                         batch=4, seed=5)
    net = train_mapping(src, tgt, scen, cfg, loss_history=history)
    assert len(history) == 40
    assert history[-1] < history[0]
    assert all(np.all(np.isfinite(p))
               for p in (net.w1, net.b1, net.w2, net.b2))


def test_lambda_zero_is_bit_identical_to_supervised_only():
    scen = _mapping_scenario()
    src, tgt = _paired_spaces(scen, 5, seed=2)
    semi = MapTrainConfig(lam=0.0, mode="semi-supervised",
                          lr=0.02, epochs=15, batch=4,
                          seed=9)
    sup = MapTrainConfig(lam=0.7, mode="supervised-only",
                         lr=0.02, epochs=15, batch=4,
                         seed=9)
    a = train_mapping(src, tgt, scen, semi)
    b = train_mapping(src, tgt, scen, sup)
    for pa, pb in ((a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2), (a.b2, b.b2)):
        np.testing.assert_array_equal(pa, pb)


def test_semi_supervised_differs_from_supervised():
    scen = _mapping_scenario()
    src, tgt = _paired_spaces(scen, 5, seed=2)
    a = train_mapping(src, tgt, scen, MapTrainConfig(
        lam=0.5, lr=0.02, epochs=15, batch=4, seed=9))
    b = train_mapping(src, tgt, scen, MapTrainConfig(
        lam=0.0, lr=0.02, epochs=15, batch=4, seed=9))
    assert not np.array_equal(a.w1, b.w1)


# -- negative draws --------------------------------------------------------

def _draw_one_by_one(rng, n, users, item_lists):
    """The per-user scalar calls whose draws and generator state the bulk
    draws in ``_sample_excluding`` must reproduce."""
    pos, neg = [], []
    for u in users:
        items = item_lists[u]
        pos.append(items[int(rng.integers(0, items.shape[0]))])
        while True:
            x = int(rng.integers(0, n))
            if not np.any(items == x):
                break
        neg.append(x)
    return pos, neg


# numpy redraws about a quarter and a half of its draws from 3 * 2**30 and
# 2**31 + 1, and draws from 2**33 + 1 through 64-bit words
@pytest.mark.parametrize("n", [2, 7, 50, 3 * 2 ** 30, 2 ** 31 + 1,
                               2 ** 33 + 1])
def test_bulk_negative_draws_replay_the_scalar_calls(n):
    meta = np.random.default_rng(n)
    for case in range(30):
        n_users = int(meta.integers(1, 10))
        # a third of the users have one item: their positive draws nothing
        counts = np.where(meta.random(n_users) < 0.3, 1,
                          meta.integers(1, min(n, 9), size=n_users))
        item_lists = [np.sort(meta.choice(min(n, 10 ** 6), size=c,
                                          replace=False))
                      for c in counts]
        starts = np.concatenate([[0], np.cumsum(counts)])
        codes = (np.repeat(np.arange(n_users), counts) * n
                 + np.concatenate(item_lists))
        users = meta.integers(0, n_users, size=int(meta.integers(1, 40)))
        seed = int(meta.integers(2 ** 32))
        ref, got = np.random.default_rng(seed), np.random.default_rng(seed)
        if case % 2:  # start with half of a 64-bit output kept back
            ref.integers(0, 5)
            got.integers(0, 5)
            assert got.bit_generator.state["has_uint32"] == 1
        want_pos, want_neg = _draw_one_by_one(ref, n, users, item_lists)
        pos, neg = _sample_excluding(got, n, users, starts, codes)
        np.testing.assert_array_equal(pos, want_pos)
        np.testing.assert_array_equal(neg, want_neg)
        assert got.bit_generator.state == ref.bit_generator.state


def test_semi_supervised_triplets_are_drawn_for_linked_users(monkeypatch):
    # user a holds items 3a..3a+2 only; the linked users sit at source rows
    # 7, 5, 3, 1, so a batch position is never the user's source row
    users = [f"u{a}" for a in range(8)]
    items = [f"s{i:02d}" for i in range(24)]
    source = InteractionSet([(u, items[3 * a + j])
                             for a, u in enumerate(users) for j in range(3)],
                            items=items)
    linked = ("u7", "u5", "u3", "u1")
    scen = CrossDomainScenario(
        source=source, target=InteractionSet([(u, "t0") for u in users]),
        train_overlap_users=linked, heldout={},
        split=SplitSeedConfig(phi=1.0, seed=0))
    src, tgt = _paired_spaces(scen, 4, seed=3)
    user_of = {tuple(row): u for u, row in zip(src.user_ids, src.U)}
    item_of = {tuple(row): i for i, row in zip(src.item_ids, src.V)}
    assert len(user_of) == len(users) and len(item_of) == len(items)

    triplets = []
    real = mapping.mapping_loss_and_grads

    def capture(net, Sb, Tb, **kw):
        for s, p, n, a in zip(Sb, kw["pos_vecs"], kw["neg_vecs"],
                              kw["anchor_vecs"]):
            user = user_of[tuple(s)]
            np.testing.assert_array_equal(a, tgt.U[tgt.user_index(user)])
            triplets.append((user, item_of[tuple(p)], item_of[tuple(n)]))
        return real(net, Sb, Tb, **kw)

    monkeypatch.setattr(mapping, "mapping_loss_and_grads", capture)
    train_mapping(src, tgt, scen, MapTrainConfig(
        lam=0.5, lr=0.01, epochs=20, batch=3, seed=4))
    assert len(triplets) == 20 * len(linked)
    for user, pos, neg in triplets:
        assert user in linked
        assert pos in items_of(source, user)
        assert neg not in items_of(source, user)
    assert {u for u, _, _ in triplets} == set(linked)


def test_train_mapping_recovers_a_rotation():
    scen = _mapping_scenario(n_users=60, n_items=40, per_user=5)
    src, tgt = _paired_spaces(scen, 8, seed=4, rotate=True)
    cfg = MapTrainConfig(lam=0.0, mode="supervised-only",
                         lr=0.01, epochs=300, batch=16,
                         seed=0)
    net = train_mapping(src, tgt, scen, cfg)
    mapped = net.forward_batch(src.U)
    err = np.linalg.norm(mapped - tgt.U, axis=1)
    assert float(err.mean()) < 0.05


def test_train_mapping_never_reads_test_user_targets():
    scen = _mapping_scenario(n_users=10)
    users = scen.source.user_ids
    # declare the last four users test users and poison their target rows
    test_users = users[6:]
    scen = CrossDomainScenario(
        source=scen.source, target=scen.target,
        train_overlap_users=users[:6],
        heldout={u: ("t0", "t1") for u in test_users},
        split=SplitSeedConfig(phi=1.0, seed=0))
    src, tgt = _paired_spaces(scen, 5, seed=8)
    poisoned = tgt.U.copy()
    poisoned[6:] = np.nan
    tgt = EmbeddingSpace(tgt.user_ids, tgt.item_ids, poisoned, tgt.V,
                         "metric")
    net = train_mapping(src, tgt, scen, MapTrainConfig(
        lam=0.5, lr=0.02, epochs=10, batch=4, seed=1))
    assert np.all(np.isfinite(net.w1))
    assert np.all(np.isfinite(net.b2))


def test_train_mapping_requires_linked_users():
    scen = _mapping_scenario()
    src, tgt = _paired_spaces(scen, 5, seed=2)
    empty = CrossDomainScenario(
        source=scen.source, target=scen.target,
        train_overlap_users=(), heldout={},
        split=SplitSeedConfig(phi=1.0, seed=0))
    with pytest.raises(NoOverlapUsers):
        train_mapping(src, tgt, empty, MapTrainConfig(epochs=1))


def test_train_mapping_dimension_mismatch():
    scen = _mapping_scenario()
    src, _ = _paired_spaces(scen, 5, seed=2)
    _, tgt = _paired_spaces(scen, 6, seed=2)
    with pytest.raises(DimensionMismatch):
        experiment.train_artifact(
            "net", scen, experiment.ExperimentConfig(map_epochs=1),
            {"source_space": src, "target_space": tgt})


def test_map_config_validation():
    with pytest.raises(ConfigError):
        MapTrainConfig(mode="nonsense")
    with pytest.raises(ConfigError):
        MapTrainConfig(lam=-0.5)
    with pytest.raises(ConfigError):
        MapTrainConfig(margin=0.0)
    for bad in (np.nan, np.inf):
        for field in ("lam", "margin", "lr"):
            with pytest.raises(ConfigError):
                MapTrainConfig(**{field: bad})


# -- file format -----------------------------------------------------------

def test_mapping_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    net = init_mapping(5, rng)
    path = tmp_path / "map.txt"
    save_mapping(net, path)
    assert path.read_text().splitlines()[0] == "K 5"
    back = load_mapping(path)
    np.testing.assert_allclose(back.w1, net.w1, rtol=5.1e-9, atol=1e-12)
    np.testing.assert_allclose(back.b2, net.b2, rtol=5.1e-9, atol=1e-12)
    save_mapping(back, tmp_path / "map2.txt")
    assert (tmp_path / "map2.txt").read_bytes() == path.read_bytes()


def test_saved_mapping_rows_match_the_per_float_format(tmp_path):
    edge = [0.0, -0.0, 5e-324, -1e-308, 1e308, -1.7976931348623157e308,
            1e16, 1 / 3, -2 / 3, 9.9999999995e-5]
    values = np.resize(edge, 22)  # K = 2: W1 4x2, b1 4, W2 2x4, b2 2
    w1, b1, w2, b2 = np.split(values, [8, 12, 20])
    net = MappingNetwork(w1.reshape(4, 2), b1, w2.reshape(2, 4), b2)
    path = tmp_path / "map.txt"
    save_mapping(net, path)
    assert path.read_text(encoding="utf-8") == "K 2\n" + "".join(
        " ".join(format(float(x), ".9g") for x in row) + "\n"
        for row in (*net.w1, net.b1, *net.w2, net.b2))
    back = load_mapping(path)
    parsed = [float(format(x, ".9g")) for x in values]
    assert np.concatenate([back.w1.ravel(), back.b1, back.w2.ravel(),
                           back.b2]).tobytes() == np.array(parsed).tobytes()


def test_load_mapping_rejects_wrong_row_count(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("K 2\n1 2\n")
    with pytest.raises(DataError) as exc:
        load_mapping(p)
    assert str(exc.value) == f"{p}: expected 8 rows, got 1"
    p.write_text("K 1\n1\n2\n3 4\n5 6\n7\n\n8\n")  # b2, a blank, more
    with pytest.raises(DataError) as exc:
        load_mapping(p)
    assert str(exc.value) == f"{p}:8: more than the 5 rows the header declares"
