"""Acceptance suite: one test per release criterion.

Each test prints a single summary line and enforces its own runtime
budget.  The budgets are quoted for a 4-core desktop; a single core meets
them with room to spare, so the asserts stay strict.

1. analytic unit suite (every hand-checkable example, 1e-9 absolute)
2. gradient fidelity against central finite differences
3. semi-supervised training with lambda=0 reduces bit-identically to the
   supervised-only mode
4. oracle equivalence for aggregation, ranking, and popularity
5. a random scorer lands inside 3-sigma binomial bounds of H@10 = 10/1000
6. directional replication of the method ordering on the synthetic
   benchmark
7. rerunning the pipeline reproduces the report byte for byte
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import reference

from crossrec import (
    coldstart,
    data,
    embed,
    evaluation,
    experiment,
    mapping,
    synth,
)
from crossrec.errors import EmptyDataset, InsufficientCandidates

TOL = 1e-9


def _close(a, b, tol=TOL):
    assert abs(a - b) <= tol, f"{a!r} != {b!r} (tol {tol})"


def _vec_close(a, b, tol=TOL):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape and np.max(np.abs(a - b)) <= tol, \
        f"{a!r} != {b!r}"


def _write_pairs(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{i}\n" for u, i in pairs)
    return str(path)


def _const_net(k, b2):
    """W2 = 0 so every input maps to (the projection of) b2."""
    return mapping.MappingNetwork(
        np.zeros((2 * k, k)), np.zeros(2 * k),
        np.zeros((k, 2 * k)), np.asarray(b2, dtype=float))


def _tanh_net():
    """K=1 network computing proj(tanh(x)); handy for exact loss values."""
    return mapping.MappingNetwork(
        np.array([[1.0], [0.0]]), np.zeros(2),
        np.array([[1.0, 0.0]]), np.zeros(1))


def _sq_distance(v, q):
    """``|v - q|^2``: a metric space's negated score of row ``v`` for ``q``."""
    space = embed.EmbeddingSpace((), ("v",), np.zeros((0, len(v))), [v],
                                 embed.KIND_METRIC)
    return -space.scores([0], q)[0]


def _ranked(scores, ids):
    """``ids`` by the rank :func:`evaluation.rank_of_test_item` gives each
    as the positive, the others as its negatives; each id's tie key is its
    place in sorted id order, as in :func:`evaluation.evaluate`."""
    keys = data.id_keys(ids)
    ranks = [evaluation.rank_of_test_item(np.roll(scores, -k),
                                          np.roll(keys, -k))
             for k in range(len(ids))]
    assert sorted(ranks) == list(range(1, len(ids) + 1))
    return [ids[k] for k in np.argsort(ranks)]


def _popularity(inter, ids):
    """``ids`` ranked by the ITEMPOP scorer with ``inter`` as the target."""
    scorer = experiment.make_scorer(
        SimpleNamespace(target=inter),
        experiment.ExperimentConfig(method=experiment.METHOD_ITEMPOP),
        {})
    return _ranked(scorer(0, data.id_rows(inter.item_index, ids)), ids)


# -- criterion 1: analytic unit suite ------------------------------------

def test_criterion_1_analytic_unit_suite(tmp_path):
    t0 = time.monotonic()

    # interaction loading: construction, dedup, empty input
    p = _write_pairs(tmp_path / "a.tsv",
                     [("u1", "i1"), ("u1", "i2"), ("u2", "i1")])
    inter = data.load_interactions(p)
    assert (inter.n_users, inter.n_items, inter.n_interactions) == (2, 2, 3)
    p = _write_pairs(tmp_path / "b.tsv", [("u1", "i1"), ("u1", "i1")])
    assert data.load_interactions(p).n_interactions == 1
    p = _write_pairs(tmp_path / "c.tsv", [])
    with pytest.raises(EmptyDataset):
        data.load_interactions(p)

    # split sizes: 200 overlapping users, half become test users, phi=0.10
    # of the rest are supervision
    users = [f"u{k:03d}" for k in range(200)]
    src = data.InteractionSet([(u, i) for u in users
                               for i in ("s1", "s2", "s3")])
    tgt = data.InteractionSet([(u, i) for u in users
                               for i in ("t1", "t2", "t3")])
    scen = data.build_scenario(
        src, tgt, data.SplitSeedConfig(seed=7, test_fraction=0.5, phi=0.10,
                                       min_overlap_interactions=3,
                                       min_other_interactions=3))
    assert len(scen.test_users) == 100
    assert len(scen.train_overlap_users) == 10

    # unified matrix: 3 source + 4 target users with 2 shared -> 5;
    # 10 + 7 items -> 17; held-out interactions stay out
    src = data.InteractionSet(
        [("a", f"s{k}") for k in range(4)]
        + [("b", f"s{k}") for k in range(4, 7)]
        + [("c", f"s{k}") for k in range(7, 10)])
    tgt = data.InteractionSet(
        [("b", t) for t in ("t0", "t1", "t2", "t3")]
        + [("c", t) for t in ("t2", "t3", "t4", "t5")]
        + [("d", t) for t in ("t4", "t5", "t6")]
        + [("e", t) for t in ("t5", "t6", "t0")])
    scen = data.build_scenario(
        src, tgt, data.SplitSeedConfig(seed=5, test_fraction=0.5, phi=1.0,
                                       min_overlap_interactions=1,
                                       min_other_interactions=1))
    unified = data.build_unified(scen)
    assert unified.n_users == 5
    assert unified.n_items == 17
    (test_user,) = scen.test_users
    held = scen.heldout[test_user]
    for item in held:
        assert not reference.has_pair(unified, test_user,
                                      data.TARGET_PREFIX + item)

    # negative sampling: exclusion, determinism, exhaustion
    inter = data.InteractionSet([("u", "1")],
                                items=["1", "2", "3", "4", "5", "6", "7"])
    pool = reference.negative_pool(inter, "u", ("6", "7"), 3)
    rng = np.random.default_rng(3)
    negs = [inter.item_ids[r]
            for r in evaluation.sample_negatives(pool, 3, rng)]
    assert len(set(negs)) == 3 and set(negs) <= {"2", "3", "4", "5"}
    again = evaluation.sample_negatives(pool, 3, np.random.default_rng(3))
    assert list(evaluation.sample_negatives(
        pool, 3, np.random.default_rng(3))) == list(again)
    big = data.InteractionSet([("u", "0")],
                              items=[str(k) for k in range(503)])
    with pytest.raises(InsufficientCandidates) as err:
        reference.negative_pool(big, "u", ("501", "502"), 999)
    assert err.value.available == 500

    # squared distance
    _close(_sq_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])), 25.0)
    x = np.array([0.2, -0.7, 0.1])
    _close(_sq_distance(x, x), 0.0)
    _close(_sq_distance(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])), 2.0)

    # unit-ball projection
    rows = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
    embed.project_rows(rows)
    _vec_close(rows[0], [0.6, 0.8])
    _vec_close(rows[1], [0.3, 0.4])
    _vec_close(rows[2], [0.0, 0.0])

    # hinge triplet loss, driven through vectors with known distances
    def cml(*triplet):
        return reference.triplet(embed.KIND_METRIC, *triplet)[0]

    z = np.zeros(1)
    _close(cml(z, np.array([math.sqrt(0.2)]), np.array([math.sqrt(0.5)]),
               1.0), 0.7)
    _close(cml(z, z, np.array([math.sqrt(2.0)]), 1.0), 0.0)
    v3 = np.array([math.sqrt(0.3)])
    _close(cml(z, v3, v3, 0.5), 0.5)

    # pairwise-ranking loss at score margin zero
    _close(reference.triplet(embed.KIND_INNER, z, np.array([0.4]),
                             np.array([0.4]))[0], math.log(2.0))

    # tiny metric training run: ball invariant and determinism
    inter = data.InteractionSet(
        [(f"u{k}", f"i{j}") for k in range(4) for j in range(4) if j != k])
    cfg = embed.EmbedTrainConfig(dim=2, epochs=5, lr=0.05,
                                 batch=16, seed=9)
    space = embed.train_embeddings(inter, cfg, objective=embed.KIND_METRIC)
    assert np.all(np.linalg.norm(space.U, axis=1) <= 1 + 1e-6)
    assert np.all(np.linalg.norm(space.V, axis=1) <= 1 + 1e-6)
    space2 = embed.train_embeddings(inter, cfg, objective=embed.KIND_METRIC)
    assert np.array_equal(space.U, space2.U)
    assert np.array_equal(space.V, space2.V)

    # translator forward pass: zero net, constant net, projected constant
    zero4 = _const_net(4, np.zeros(4))
    _vec_close(zero4.forward_batch(np.array([[1.0, -2, 3, 0.5]]))[0],
               np.zeros(4))
    b2 = np.array([0.3, 0.0, 0.4, 0.0])
    half = _const_net(4, b2)
    for seed in range(3):
        x = np.random.default_rng(seed).uniform(-1, 1, 4)
        _vec_close(half.forward_batch(x[None])[0], b2)
    two = _const_net(4, 4 * b2)  # raw norm 2 -> halved by the projection
    _vec_close(two.forward_batch(x[None])[0], 2 * b2)

    # supervised mapping loss: perfect fit, one residual, sum of squares
    net = _tanh_net()
    S = np.array([[0.0], [0.7], [-1.2]])
    T = net.forward_batch(S)
    _close(reference.supervised_loss(net, S, T), 0.0)
    zero2 = _const_net(2, np.zeros(2))
    _close(reference.supervised_loss(zero2, np.array([[0.3, 0.4]]),
                                     np.array([[1.0, 0.0]])), 1.0)
    _close(reference.supervised_loss(
        zero2, np.zeros((2, 2)),
        np.array([[1.0, 0.0], [0.0, 2.0]])), 5.0)

    # unsupervised hinge: exact mapped distances via the tanh net
    u_t = np.array([[math.sqrt(0.1)]])
    pos = np.array([[0.0]])                       # maps to 0, d^2 = 0.1
    neg_val = math.sqrt(0.1) + math.sqrt(0.4)     # d^2 = 0.4
    neg = np.array([[math.atanh(neg_val)]])
    _close(reference.unsupervised_triplet_loss(net, pos, neg, u_t, 1.0),
           0.7, tol=1e-9)
    far = np.array([[math.atanh(-0.75)]])         # d^2 ~ 1.137 >= 0.1 + 1
    _close(reference.unsupervised_triplet_loss(net, pos, far, u_t, 1.0),
           0.0)
    anyv = np.array([[0.9]])
    _close(reference.unsupervised_triplet_loss(
        _const_net(1, np.zeros(1)), pos, anyv, u_t, 1.0), 1.0)

    # loss combination in the training kernel: sup = 2 (two unit
    # residuals), unsup = 4 (four hinges at the margin, every point mapped
    # to the origin) or 0 (the far negative above)
    def total(lam, P, N, A):
        return mapping.mapping_loss_and_grads(
            net, np.zeros((2, 1)), np.ones((2, 1)), lam=lam, pos_vecs=P,
            neg_vecs=N, anchor_vecs=A)[0]

    origin = np.zeros((4, 1))
    _close(total(0.5, origin, origin, origin), 4.0)
    _close(total(0.0, origin, origin, origin), 2.0)
    _close(total(3.7, pos, far, u_t), 2.0)

    # supervised-only vs semi-supervised with lambda=0, plus the mapped
    # ball invariant after training
    scen = _toy_scenario(0)
    s_src, s_tgt = _toy_spaces(scen)
    kwargs = dict(margin=1.0, lr=0.01, epochs=5, batch=8,
                  seed=4)
    sup = mapping.train_mapping(
        s_src, s_tgt, scen,
        mapping.MapTrainConfig(lam=0.0, mode=mapping.MODE_SUPERVISED,
                               **kwargs))
    semi = mapping.train_mapping(
        s_src, s_tgt, scen,
        mapping.MapTrainConfig(lam=0.0, mode=mapping.MODE_SEMI, **kwargs))
    for attr in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(sup, attr), getattr(semi, attr))
    for u in scen.overlap_users:
        if s_src.has_user(u):
            out = sup.forward_batch(s_src.U[[s_src.user_index(u)]])[0]
            assert np.linalg.norm(out) <= 1 + 1e-6

    # one aggregation hop, by hand
    inter = data.InteractionSet([("a", "i1"), ("a", "i2")], users=["a", "b"])
    U = np.array([[1.0, 0.0], [0.25, -0.5]])
    V = np.array([[0.0, 1.0], [0.0, -1.0]])
    space = embed.EmbeddingSpace(inter.user_ids, inter.item_ids, U, V,
                                 embed.KIND_METRIC)
    U1, _ = coldstart.aggregate_hops(space, inter, 1)
    _vec_close(U1[0], [1.0 / 3.0, 0.0])
    _vec_close(U1[1], U[1])  # no neighbors: unchanged
    inter = data.InteractionSet([("a", "j"), ("b", "j"), ("c", "j")])
    space = embed.EmbeddingSpace(
        inter.user_ids, inter.item_ids,
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        np.zeros((1, 2)), embed.KIND_METRIC)
    _, V1 = coldstart.aggregate_hops(space, inter, 1)
    _vec_close(V1[0], [0.0, 0.25])

    # multi-hop user inference: identity at H=0, closed form at H=1
    inter = data.InteractionSet([("a", "i1"), ("a", "i2"), ("a", "i3")])
    c = np.array([0.2, -0.1])
    u0 = np.array([0.5, 0.5])
    space = embed.EmbeddingSpace(inter.user_ids, inter.item_ids,
                                 u0[None, :], np.stack([c, c, c]),
                                 embed.KIND_METRIC)
    _vec_close(coldstart.aggregate_hops(space, inter, 0)[0][0], u0)
    _vec_close(coldstart.aggregate_hops(space, inter, 1)[0][0],
               (u0 + 3 * c) / 4.0)

    # cold-start inference composes aggregation and the translator
    _vec_close(coldstart.infer_cold_start(zero4,
                                          np.array([[1.0, 2, 3, 4]]))[0],
               np.zeros(4))
    raw = coldstart.aggregate_hops(space, inter, 0)[0][:1]
    const = _const_net(2, np.array([0.1, 0.2]))
    got = coldstart.infer_cold_start(const, raw)[0]
    _vec_close(got, const.forward_batch(space.U[[space.user_index("a")]])[0])
    rng = np.random.default_rng(0)
    wild = mapping.MappingNetwork(rng.uniform(-2, 2, (4, 2)),
                                  rng.uniform(-2, 2, 4),
                                  rng.uniform(-2, 2, (2, 4)),
                                  rng.uniform(-2, 2, 2))
    for _ in range(5):
        out = coldstart.infer_cold_start(wild, rng.uniform(-1, 1, (1, 2)))[0]
        assert np.linalg.norm(out) <= 1 + 1e-6

    # top-N ranking: metric, inner, and the id tie-break
    ids = ["A", "B", "C"]
    V = np.array([[math.sqrt(0.1)], [math.sqrt(0.3)], [math.sqrt(0.2)]])
    space = embed.EmbeddingSpace(("q",), ids, np.zeros((1, 1)), V,
                                 embed.KIND_METRIC)
    assert _ranked(space.scores([0, 1, 2], np.zeros(1)), ids) == \
        ["A", "C", "B"]
    space = embed.EmbeddingSpace(("q",), ["A", "B"], np.ones((1, 1)),
                                 np.array([[0.9], [0.1]]), embed.KIND_INNER)
    assert _ranked(space.scores([0, 1], np.ones(1)), ["A", "B"]) == \
        ["A", "B"]
    space = embed.EmbeddingSpace(("q",), ["7", "3"], np.zeros((1, 1)),
                                 np.array([[0.4], [0.4]]),
                                 embed.KIND_METRIC)
    assert _ranked(space.scores([0, 1], np.zeros(1)), ["7", "3"]) == \
        ["3", "7"]

    # popularity ranking: counts, tie-break, an item without pairs
    pairs = [(f"u{k}", "A") for k in range(5)]
    pairs += [(f"u{k}", "B") for k in range(2)]
    pairs += [(f"u{k}", "C") for k in range(7)]
    inter = data.InteractionSet(pairs, items=["A", "B", "C", "Z"])
    assert _popularity(inter, ["A", "B", "C"]) == ["C", "A", "B"]
    equal = data.InteractionSet([("u", "x"), ("u", "m"), ("u", "a")])
    assert _popularity(equal, ["x", "m", "a"]) == ["a", "m", "x"]
    assert _popularity(inter, ["A", "Z", "C"])[-1] == "Z"

    # leave-one-out rank of candidate 0; keys order the ids
    keys = np.arange(1000)  # i0000, i0001, ...
    assert evaluation.rank_of_test_item(-np.arange(1000.0), keys) == 1
    assert evaluation.rank_of_test_item(np.arange(1000.0), keys) == 1000
    # b (key 1) against a (key 0) and z (key 2)
    assert evaluation.rank_of_test_item(np.array([5.0, 5.0, 1.0]),
                                        np.array([1, 0, 2])) == 2

    # metric cutoffs
    assert evaluation.hit_at(1, 10) == 1.0
    assert evaluation.hit_at(10, 10) == 1.0
    assert evaluation.hit_at(11, 10) == 0.0
    _close(evaluation.ndcg_at(1, 10), 1.0)
    _close(evaluation.ndcg_at(3, 10), 0.5)
    assert evaluation.ndcg_at(15, 10) == 0.0
    _close(evaluation.mrr_at(1, 10), 1.0)
    _close(evaluation.mrr_at(4, 10), 0.25)
    assert evaluation.mrr_at(11, 10) == 0.0

    # end-to-end metrics: always-top scorer, then two users at p=1, p=3
    scen = _toy_scenario(1)

    def top_scorer(k, rows):
        pos = scen.heldout[scen.test_users[k]][0]
        return np.array([1.0 if scen.target.item_ids[r] == pos else 0.0
                         for r in rows])

    rep = evaluation.evaluate(
        top_scorer, scen,
        evaluation.EvalConfig(cutoffs=(10,), repeats=2, negatives=3,
                              seed=1))
    for rep_metrics in rep.per_repeat:
        _close(rep_metrics[("HR", 10)], 1.0)
        _close(rep_metrics[("NDCG", 10)], 1.0)
        _close(rep_metrics[("MRR", 10)], 1.0)
    pair = evaluation.metrics_from_ranks([1, 3], (10,))
    _close(pair[("MRR", 10)], (1.0 + 1.0 / 3.0) / 2.0)
    _close(pair[("NDCG", 10)], 0.75)

    # popularity-only pipeline: a report with no trained artifacts
    cfg = experiment.ExperimentConfig(
        method="ITEMPOP", out_dir=str(tmp_path / "pop"), seed=3, phi=1.0,
        synth_users=40, synth_source_items=30, synth_target_items=30,
        synth_k_true=3, synth_overlap=0.5, synth_density=0.1,
        min_overlap_interactions=2, min_other_interactions=2,
        eval_cutoffs=(5,), eval_repeats=1, eval_negatives=10)
    experiment.run_experiment(cfg)
    assert (tmp_path / "pop" / "report.tsv").exists()
    assert not (tmp_path / "pop" / "mapping.txt").exists()
    assert not (tmp_path / "pop" / "source_embeddings.txt").exists()

    # synthetic generator: full overlap, density arithmetic, determinism
    src, tgt = synth.generate_synthetic(30, 20, 25, 3, 1.0, 0.2, seed=2)
    assert set(src.user_ids) == set(tgt.user_ids)
    src, tgt = synth.generate_synthetic(1000, 2000, 2000, 8, 1.0, 0.002,
                                        seed=2)
    assert tgt.n_interactions == 4000
    a = synth.generate_synthetic(30, 20, 25, 3, 0.4, 0.2, seed=6)
    b = synth.generate_synthetic(30, 20, 25, 3, 0.4, 0.2, seed=6)
    assert sorted(reference.id_pairs(a[0])) == sorted(reference.id_pairs(b[0]))
    assert sorted(reference.id_pairs(a[1])) == sorted(reference.id_pairs(b[1]))

    dt = time.monotonic() - t0
    assert dt < 5.0, f"analytic suite took {dt:.2f}s (budget 5s)"
    print(f"criterion 1 PASS: analytic unit suite in {dt:.2f}s")


# toy fixtures shared by criteria 1 and 3

def _toy_scenario(seed):
    src, tgt = synth.generate_synthetic(40, 30, 30, 3, 0.5, 0.15,
                                        seed=seed + 100)
    return data.build_scenario(
        src, tgt, data.SplitSeedConfig(seed=seed, test_fraction=0.5,
                                       phi=1.0, min_overlap_interactions=2,
                                       min_other_interactions=2))


def _toy_spaces(scen):
    cfg = embed.EmbedTrainConfig(dim=6, epochs=8, lr=0.01,
                                 batch=256, seed=11)
    s = embed.train_embeddings(scen.source, cfg)
    cfg = embed.EmbedTrainConfig(dim=6, epochs=8, lr=0.01,
                                 batch=256, seed=12)
    t = embed.train_embeddings(scen.target, cfg)
    return s, t


# -- criterion 2: gradient fidelity --------------------------------------

def _fd_grad(loss, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        g[k] = (loss(x + step) - loss(x - step)) / (2 * h)
    return g


def _rel_err(analytic, fd):
    return np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)


def test_criterion_2_gradient_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    k = 8
    margin = 1.0

    # hinge triplet loss on squared distances
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 5000, "could not find non-boundary points"
        u, vp, vn = rng.uniform(-0.6, 0.6, (3, k))
        arg = margin + reference.distance(u, vp) - reference.distance(u, vn)
        if abs(arg) <= 1e-3:
            continue
        accepted += 1
        gu, gp, gn = reference.triplet(embed.KIND_METRIC, u, vp, vn,
                                       margin)[1]
        flat = np.concatenate([u, vp, vn])

        def loss(x):
            return reference.triplet(embed.KIND_METRIC, x[:k], x[k:2 * k],
                                     x[2 * k:], margin)[0]

        fd = _fd_grad(loss, flat)
        assert _rel_err(np.concatenate([gu, gp, gn]), fd) < 1e-4

    # smooth pairwise-ranking loss
    for _ in range(100):
        u, vp, vn = rng.normal(0, 0.7, (3, k))
        gu, gp, gn = reference.triplet(embed.KIND_INNER, u, vp, vn)[1]

        def loss(x):
            return reference.triplet(embed.KIND_INNER, x[:k], x[k:2 * k],
                                     x[2 * k:])[0]

        fd = _fd_grad(loss, np.concatenate([u, vp, vn]))
        assert _rel_err(np.concatenate([gu, gp, gn]), fd) < 1e-4

    # full mapping loss: tanh layers, output projection, hinge, both terms
    km = 4
    lam = 0.7
    sizes = [(2 * km, km), (2 * km,), (km, 2 * km), (km,)]

    def unflatten(theta):
        parts = []
        at = 0
        for shape in sizes:
            n = int(np.prod(shape))
            parts.append(theta[at:at + n].reshape(shape))
            at += n
        return mapping.MappingNetwork(*parts)

    accepted = 0
    attempts = 0
    saw_projection = False
    while accepted < 100:
        attempts += 1
        assert attempts < 5000, "could not find non-boundary points"
        net = mapping.MappingNetwork(
            rng.uniform(-0.9, 0.9, (2 * km, km)),
            rng.uniform(-0.3, 0.3, 2 * km),
            rng.uniform(-0.9, 0.9, (km, 2 * km)),
            rng.uniform(-0.5, 0.5, km))
        S, P, N = rng.uniform(-0.7, 0.7, (3, 3, km))
        T, A = rng.uniform(-0.5, 0.5, (2, 3, km))
        loss0, grads, info = mapping.mapping_loss_and_grads(
            net, S, T, margin=margin, lam=lam, pos_vecs=P, neg_vecs=N,
            anchor_vecs=A)
        if np.any(np.abs(info["raw_norms"] - 1.0) <= 1e-3):
            continue
        if np.any(np.abs(info["hinge_args"]) <= 1e-3):
            continue
        accepted += 1
        saw_projection = saw_projection or bool(
            np.any(info["raw_norms"] > 1.0))

        def loss(theta):
            net2 = unflatten(theta)
            return (reference.supervised_loss(net2, S, T)
                    + lam * reference.unsupervised_triplet_loss(
                        net2, P, N, A, margin))

        theta = np.concatenate([net.w1.ravel(), net.b1, net.w2.ravel(),
                                net.b2])
        _close(loss(theta), loss0, tol=1e-9)
        fd = _fd_grad(loss, theta)
        analytic = np.concatenate([grads[0].ravel(), grads[1],
                                   grads[2].ravel(), grads[3]])
        assert _rel_err(analytic, fd) < 1e-4
    assert saw_projection, "projection branch never active; check sampling"

    dt = time.monotonic() - t0
    assert dt < 30.0, f"gradient fidelity took {dt:.2f}s (budget 30s)"
    print(f"criterion 2 PASS: 300 finite-difference points in {dt:.2f}s")


# -- criterion 3: lambda=0 reduction -------------------------------------

def test_criterion_3_reduction_equivalence():
    t0 = time.monotonic()
    for seed in range(10):
        scen = _toy_scenario(seed)
        s_src, s_tgt = _toy_spaces(scen)
        kwargs = dict(margin=1.0, lr=0.01, epochs=10,
                      batch=8, seed=seed)
        sup = mapping.train_mapping(
            s_src, s_tgt, scen,
            mapping.MapTrainConfig(lam=0.0, mode=mapping.MODE_SUPERVISED,
                                   **kwargs))
        semi = mapping.train_mapping(
            s_src, s_tgt, scen,
            mapping.MapTrainConfig(lam=0.0, mode=mapping.MODE_SEMI,
                                   **kwargs))
        for attr in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(sup, attr), getattr(semi, attr)), \
                f"scenario {seed}: {attr} differs"
    dt = time.monotonic() - t0
    assert dt < 60.0, f"reduction check took {dt:.2f}s (budget 60s)"
    print(f"criterion 3 PASS: 10 bit-identical reductions in {dt:.2f}s")


# -- criterion 4: oracle equivalence -------------------------------------

def _brute_hop(U0, V0, items_of, users_of, kind, idx, h):
    if h == 0:
        return (U0 if kind == "u" else V0)[idx]
    if kind == "u":
        own = _brute_hop(U0, V0, items_of, users_of, "u", idx, h - 1)
        nbs = [_brute_hop(U0, V0, items_of, users_of, "v", j, h - 1)
               for j in items_of[idx]]
    else:
        own = _brute_hop(U0, V0, items_of, users_of, "v", idx, h - 1)
        nbs = [_brute_hop(U0, V0, items_of, users_of, "u", i, h - 1)
               for i in users_of[idx]]
    total = own.copy()
    for nb in nbs:
        total = total + nb
    return total / (len(nbs) + 1.0)


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    # neighbor aggregation vs direct recursion on graphs with <= 6 entities
    for _ in range(20):
        n_u = int(rng.integers(1, 4))
        n_v = int(rng.integers(1, 7 - n_u))
        users = [f"u{k}" for k in range(n_u)]
        items = [f"i{k}" for k in range(n_v)]
        pairs = [(u, i) for u in users for i in items if rng.random() < 0.5]
        inter = data.InteractionSet(pairs, users=users, items=items)
        U0 = rng.uniform(-0.5, 0.5, (n_u, 3))
        V0 = rng.uniform(-0.5, 0.5, (n_v, 3))
        space = embed.EmbeddingSpace(users, items, U0, V0,
                                     embed.KIND_METRIC)
        ui, ii = inter.pair_arrays()
        items_of = [sorted(ii[ui == k]) for k in range(n_u)]
        users_of = [sorted(ui[ii == k]) for k in range(n_v)]
        for h in range(5):
            Uh, Vh = coldstart.aggregate_hops(space, inter, h)
            for k in range(n_u):
                want = _brute_hop(U0, V0, items_of, users_of, "u", k, h)
                assert np.max(np.abs(Uh[k] - want)) < 1e-12
            for k in range(n_v):
                want = _brute_hop(U0, V0, items_of, users_of, "v", k, h)
                assert np.max(np.abs(Vh[k] - want)) < 1e-12

    # ranking vs exhaustive sort, every candidate in turn the positive
    for trial in range(500):
        m = int(rng.integers(2, 13))
        ids = [f"i{k:02d}" for k in range(m)]
        kind = embed.KIND_METRIC if trial % 2 else embed.KIND_INNER
        V = rng.uniform(-0.7, 0.7, (m, 2))
        if m >= 2 and rng.random() < 0.3:
            V[1] = V[0]  # force a tie
        space = embed.EmbeddingSpace(("q",), ids, np.zeros((1, 2)), V, kind)
        q = rng.uniform(-1, 1, 2)
        if kind == embed.KIND_METRIC:
            key = {i: float(np.sum((V[k] - q) ** 2))
                   for k, i in enumerate(ids)}
        else:
            key = {i: -float(V[k] @ q) for k, i in enumerate(ids)}
        want = sorted(ids, key=lambda i: (key[i], i))
        assert _ranked(space.scores(np.arange(m), q), ids) == want

        scores = {i: float(rng.integers(0, 5)) for i in ids}
        test_item = ids[int(rng.integers(0, m))]
        cand = [test_item] + [i for i in ids if i != test_item]
        s = np.array([scores[i] for i in cand])
        keys = np.array([ids.index(i) for i in cand])  # ids sort by index
        for higher in (True, False):
            srt = sorted(ids, key=lambda i:
                         (-scores[i] if higher else scores[i], i))
            assert evaluation.rank_of_test_item(
                s if higher else -s, keys) == srt.index(test_item) + 1

    # popularity vs direct counting, every candidate in turn the positive
    for _ in range(50):
        n_items = int(rng.integers(2, 8))
        ids = [f"i{k}" for k in range(n_items)]
        pairs = [(f"u{j}", ids[int(rng.integers(0, n_items))])
                 for j in range(20)]
        inter = data.InteractionSet(pairs, items=ids)
        counts = {i: sum(1 for _, it in set(pairs) if it == i)
                  for i in ids}
        want = sorted(ids, key=lambda i: (-counts[i], i))
        assert _popularity(inter, ids) == want

    dt = time.monotonic() - t0
    assert dt < 30.0, f"oracle equivalence took {dt:.2f}s (budget 30s)"
    print(f"criterion 4 PASS: aggregation/ranking/popularity oracles in "
          f"{dt:.2f}s")


# -- shared benchmark construction (criteria 5 and 6) ---------------------

# the criterion-6 setup as config keys, for the parser `run` uses: the
# README's one-shot example config without its seed and phi
BENCH_KEYS = {
    "hops": "2", "lambda": "4.0",
    "synth.users": "2000", "synth.source_items": "1500",
    "synth.target_items": "1500", "synth.k_true": "8",
    "synth.overlap": "0.3", "synth.density": "0.004",
    "min_overlap": "3", "min_other": "3",
    "embed.dim": "16", "embed.epochs": "600", "embed.lr": "0.01",
    "map.epochs": "1200", "map.lr": "0.002", "map.batch": "64",
    "eval.cutoffs": "10", "eval.repeats": "5", "eval.negatives": "999",
}


def bench_config(seed, phi, method=experiment.METHOD_SSCDR):
    cfg = experiment.config_from_mapping(
        {**BENCH_KEYS, "seed": str(seed), "phi": str(phi), "method": method})
    cfg.validate()
    return cfg


def test_criterion_5_random_scorer_sanity():
    cfg = bench_config(0, 1.0)
    scen = experiment.prepare_scenario(cfg)
    n_users = len(scen.test_users)
    assert n_users >= 200
    repeats = cfg.eval_repeats
    rng = np.random.default_rng(12345)

    def random_scorer(k, rows):
        return rng.standard_normal(len(rows))

    rep = evaluation.evaluate(random_scorer, scen,
                              experiment.stage_config(cfg, "eval"))
    hr = rep.averaged()[("HR", 10)]
    p = 10.0 / 1000.0
    sigma = math.sqrt(p * (1 - p) / (n_users * repeats))
    assert abs(hr - p) <= 3 * sigma, \
        f"H@10 {hr:.4f} outside {p}±{3 * sigma:.4f}"
    print(f"criterion 5 PASS: random scorer H@10 {hr:.4f} within "
          f"{p}±{3 * sigma:.4f} over {n_users * repeats} trials")


# -- criterion 6: directional replication --------------------------------

# the methods scored at each phi, in the order their results print
_BENCH_GRID = ((0.05, ("EMCDR-CML", "SSCDR-naive", "SSCDR")),
               (1.0, ("EMCDR-CML", "SSCDR-naive", "SSCDR", "ITEMPOP", "CML",
                      "BPR", "EMCDR-BPR")))


def _bench_seed_results(seed):
    """H@10 of every method at phi=5% and phi=100% for one seed, each
    configured, trained and scored as `run` does it.

    An artifact trains once per seed, keyed by what `train_artifact`
    reads: a space by its name and the method's objective, since neither
    domain depends on phi; a net also by the method's mapping mode and
    the scenario's phi.
    """
    trained, out = {}, {}
    for phi, methods in _BENCH_GRID:
        scenario = experiment.prepare_scenario(bench_config(seed, phi))
        for method in methods:
            cfg = bench_config(seed, phi, method)
            objective, mode = experiment._PLAN[method]
            art = {}
            for name in experiment.required_artifacts(method):
                key = (name, objective) + ((mode, phi) if name == "net"
                                           else ())
                if key not in trained:
                    trained[key] = experiment.train_artifact(
                        name, scenario, cfg, art)
                art[name] = trained[key]
            report, _ = experiment.evaluate_method(scenario, cfg, art)
            out[f"{method}@{round(phi * 100)}"] = report.averaged()[("HR", 10)]
    return out


def _each_seed_results(seeds):
    """:func:`_bench_seed_results` of each of ``seeds``, in order: over two
    worker processes where this process may run on two CPUs or more, else
    here.  The workers are spawned, so none inherits BLAS thread state."""
    if len(os.sched_getaffinity(0)) < 2:
        return [_bench_seed_results(seed) for seed in seeds]
    with ProcessPoolExecutor(
            2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_bench_seed_results, seeds))


@pytest.mark.slow
def test_criterion_6_directional_replication():
    t0 = time.monotonic()
    seeds = (0, 1, 2, 3, 4)
    rows = _each_seed_results(seeds)

    def mean(key):
        return float(np.mean([r[key] for r in rows]))

    summary = {k: mean(k) for k in rows[0]}
    print("criterion 6 benchmark H@10 means:",
          {k: round(v, 4) for k, v in summary.items()})

    # (a) the semi-supervised multi-hop method beats the supervised-only
    #     mapping at 5% supervision: majority of seeds and higher mean
    wins = sum(r["SSCDR@5"] > r["EMCDR-CML@5"] for r in rows)
    assert wins > len(rows) / 2, f"SSCDR won only {wins}/{len(rows)} seeds"
    assert summary["SSCDR@5"] > summary["EMCDR-CML@5"], summary

    # (b) multi-hop aggregation does not hurt: higher mean than the naive
    #     zero-hop variant
    assert summary["SSCDR@5"] >= summary["SSCDR-naive@5"], summary

    # (c) every personalized method beats raw popularity at phi=100%
    pop = summary["ITEMPOP@100"]
    for key in ("BPR@100", "CML@100", "EMCDR-BPR@100", "EMCDR-CML@100",
                "SSCDR-naive@100", "SSCDR@100"):
        assert summary[key] > pop, f"{key} {summary[key]:.4f} <= " \
            f"ITEMPOP {pop:.4f}"

    dt = time.monotonic() - t0
    assert dt < 1200.0, f"benchmark took {dt:.0f}s (budget 20 min)"
    print(f"criterion 6 PASS: (a) {wins}/{len(rows)} wins, "
          f"SSCDR@5 {summary['SSCDR@5']:.4f} > "
          f"EMCDR-CML@5 {summary['EMCDR-CML@5']:.4f}; "
          f"(b) >= naive {summary['SSCDR-naive@5']:.4f}; "
          f"(c) all personalized > ITEMPOP {pop:.4f}; {dt:.0f}s")


# -- criterion 7: byte-identical reruns -----------------------------------

def test_criterion_7_determinism(tmp_path):
    def cfg(out):
        return experiment.ExperimentConfig(
            method="SSCDR", out_dir=str(out), seed=17, phi=0.5, hops=2,
            synth_users=60, synth_source_items=50, synth_target_items=50,
            synth_k_true=4, synth_overlap=0.6, synth_density=0.08,
            min_overlap_interactions=2, min_other_interactions=2,
            embed_dim=8, embed_epochs=12, embed_lr=0.01, embed_batch=256,
            map_epochs=8, map_lr=0.01, map_batch=16,
            eval_cutoffs=(5, 10), eval_repeats=2, eval_negatives=30)

    experiment.run_experiment(cfg(tmp_path / "a"))
    experiment.run_experiment(cfg(tmp_path / "b"))
    first = (tmp_path / "a" / "report.tsv").read_bytes()
    second = (tmp_path / "b" / "report.tsv").read_bytes()
    assert first == second
    for name in ("source_embeddings.txt", "target_embeddings.txt",
                 "mapping.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    print("criterion 7 PASS: rerun reports byte-identical")
