import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrec.coldstart import (
    AggregatedVectors,
    aggregate_hops,
    aggregate_step,
    infer_cold_start,
    itempop_rank,
    multi_hop_user,
    recommend_topn,
)
from crossrec.data import InteractionSet
from crossrec.embed import EmbeddingSpace
from crossrec.errors import EmptyCandidates, IndexMismatch, UnknownUser
from crossrec.mapping import MappingNetwork


def _space(interactions, U, V, kind="metric"):
    return EmbeddingSpace(interactions.user_ids, interactions.item_ids,
                          np.asarray(U, float), np.asarray(V, float), kind)


# -- single aggregation step ----------------------------------------------

def test_aggregate_step_hand_example():
    # two users sharing one item
    data = InteractionSet([("u0", "i0"), ("u1", "i0")])
    U = np.array([[1.0, 0.0], [0.0, 1.0]])
    V = np.array([[0.0, 0.0]])
    out = aggregate_step(AggregatedVectors(0, U, V), data)
    assert out.hop == 1
    # item: (v + u0 + u1) / 3
    np.testing.assert_allclose(out.item_vectors, [[1 / 3, 1 / 3]],
                               atol=1e-15)
    # users: (u + v) / 2 with the old item vector
    np.testing.assert_allclose(out.user_vectors,
                               [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)


def test_aggregate_step_is_synchronous():
    # the user update must read hop-0 item vectors, not hop-1
    data = InteractionSet([("u0", "i0")])
    U = np.array([[0.0]])
    V = np.array([[1.0]])
    out = aggregate_step(AggregatedVectors(0, U, V), data)
    # synchronous: u = (0 + 1)/2; an in-place bug would give (0 + 0.5)/2
    np.testing.assert_allclose(out.user_vectors, [[0.5]])
    np.testing.assert_allclose(out.item_vectors, [[0.5]])


def test_aggregate_step_keeps_isolated_entities():
    data = InteractionSet([("u0", "i0")], users=["u0", "lone"],
                          items=["i0", "dead"])
    U = np.array([[0.2, 0.0], [0.7, 0.1]])
    V = np.array([[0.0, 0.2], [0.1, 0.9]])
    out = aggregate_step(AggregatedVectors(0, U, V), data)
    np.testing.assert_array_equal(out.user_vectors[1], U[1])
    np.testing.assert_array_equal(out.item_vectors[1], V[1])


def test_aggregate_step_shape_check():
    data = InteractionSet([("u0", "i0")])
    with pytest.raises(IndexMismatch):
        aggregate_step(AggregatedVectors(0, np.zeros((2, 3)),
                                         np.zeros((1, 3))), data)


# -- multi-hop vs a brute-force recursion ----------------------------------

def _brute(U0, V0, data):
    def user(i, h):
        if h == 0:
            return U0[i]
        items = data.item_neighbors(i)
        total = user(i, h - 1) + sum(item(j, h - 1) for j in items)
        return total / (len(items) + 1)

    def item(j, h):
        if h == 0:
            return V0[j]
        users = data.user_neighbors(j)
        total = item(j, h - 1) + sum(user(i, h - 1) for i in users)
        return total / (len(users) + 1)

    return user, item


def _random_graph(rng, n_users, n_items, p):
    pairs = [(f"u{a}", f"i{b}") for a in range(n_users)
             for b in range(n_items) if rng.random() < p]
    return InteractionSet(pairs, users=[f"u{a}" for a in range(n_users)],
                          items=[f"i{b}" for b in range(n_items)])


def test_multi_hop_matches_brute_force_recursion():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n_users = int(rng.integers(1, 4))
        n_items = int(rng.integers(1, 4))
        data = _random_graph(rng, n_users, n_items, 0.6)
        U0 = rng.normal(size=(n_users, 3))
        V0 = rng.normal(size=(n_items, 3))
        user_fn, item_fn = _brute(U0, V0, data)
        agg = AggregatedVectors(0, U0.copy(), V0.copy())
        for h in range(1, 5):
            agg = aggregate_step(agg, data)
            for i in range(n_users):
                np.testing.assert_allclose(agg.user_vectors[i],
                                           user_fn(i, h), atol=1e-12)
            for j in range(n_items):
                np.testing.assert_allclose(agg.item_vectors[j],
                                           item_fn(j, h), atol=1e-12)


def test_multi_hop_user_and_hop_zero_identity():
    data = InteractionSet([("u0", "i0"), ("u1", "i0"), ("u1", "i1")])
    U = np.array([[0.6, 0.0], [0.0, 0.6]])
    V = np.array([[0.1, 0.1], [0.4, 0.0]])
    space = _space(data, U, V)
    np.testing.assert_array_equal(multi_hop_user(space, data, "u0", 0),
                                  U[0])
    expect = (U[0] + V[0]) / 2
    np.testing.assert_allclose(multi_hop_user(space, data, "u0", 1), expect)
    with pytest.raises(UnknownUser):
        multi_hop_user(space, data, "ghost", 1)


def test_multi_hop_user_reads_a_permuted_space_by_id():
    data = InteractionSet([("u0", "i0"), ("u1", "i0"), ("u1", "i1"),
                           ("u2", "i2")])
    rng = np.random.default_rng(3)
    U = rng.uniform(-0.5, 0.5, (3, 2))
    V = rng.uniform(-0.5, 0.5, (3, 2))
    space = _space(data, U, V)
    # rows in another order, plus one user the interactions lack
    pu, pi = [2, 0, 1], [1, 2, 0]
    permuted = EmbeddingSpace(
        [data.user_ids[k] for k in pu] + ["extra"],
        [data.item_ids[k] for k in pi],
        np.vstack([U[pu], [[0.9, 0.0]]]), V[pi], "metric")
    for user in data.user_ids:
        for hops in range(3):
            np.testing.assert_array_equal(
                multi_hop_user(permuted, data, user, hops),
                multi_hop_user(space, data, user, hops))


def test_aggregate_hops_names_a_missing_row():
    data = InteractionSet([("u0", "i0"), ("u1", "i1")])
    space = EmbeddingSpace(["u0", "u1"], ["i0"], np.zeros((2, 2)),
                           np.zeros((1, 2)), "metric")
    with pytest.raises(IndexMismatch, match="'i1'"):
        aggregate_hops(space, data, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
def test_aggregation_stays_in_unit_ball(seed, hops):
    rng = np.random.default_rng(seed)
    data = _random_graph(rng, int(rng.integers(1, 6)),
                         int(rng.integers(1, 6)), 0.5)
    U0 = rng.normal(size=(data.n_users, 4))
    U0 /= np.maximum(np.linalg.norm(U0, axis=1, keepdims=True), 1.0)
    V0 = rng.normal(size=(data.n_items, 4))
    V0 /= np.maximum(np.linalg.norm(V0, axis=1, keepdims=True), 1.0)
    agg = AggregatedVectors(0, U0, V0)
    for _ in range(hops):
        agg = aggregate_step(agg, data)
    assert np.linalg.norm(agg.user_vectors, axis=1).max() <= 1.0 + 1e-12
    assert np.linalg.norm(agg.item_vectors, axis=1).max() <= 1.0 + 1e-12


# -- inference --------------------------------------------------------------

def test_infer_cold_start_is_the_mapping_forward():
    k = 3
    net = MappingNetwork(np.zeros((2 * k, k)), np.zeros(2 * k),
                         np.zeros((k, 2 * k)), np.array([0.0, 0.3, 0.0]))
    np.testing.assert_allclose(infer_cold_start(net, [1.0, 1.0, 1.0]),
                               [0.0, 0.3, 0.0])


# -- retrieval ---------------------------------------------------------------

def test_recommend_topn_metric_orders_by_distance():
    data = InteractionSet([("u", "a"), ("u", "b"), ("u", "c")])
    V = np.array([[0.9, 0.0], [0.1, 0.0], [0.5, 0.0]])
    space = _space(data, np.zeros((1, 2)), V)
    out = recommend_topn(space, np.array([0.0, 0.0]), ["a", "b", "c"], 3)
    assert out == ["b", "c", "a"]
    assert recommend_topn(space, np.array([0.0, 0.0]),
                          ["a", "b", "c"], 1) == ["b"]


def test_recommend_topn_inner_orders_by_dot():
    data = InteractionSet([("u", "a"), ("u", "b"), ("u", "c")])
    V = np.array([[0.9, 0.0], [0.1, 0.0], [0.5, 0.0]])
    space = _space(data, np.zeros((1, 2)), V, kind="inner")
    out = recommend_topn(space, np.array([1.0, 0.0]), ["a", "b", "c"], 3)
    assert out == ["a", "c", "b"]


def test_recommend_topn_breaks_ties_by_item_id():
    data = InteractionSet([("u", "z"), ("u", "m"), ("u", "a")])
    V = np.zeros((3, 2))  # all candidates equidistant
    space = _space(data, np.zeros((1, 2)), V)
    out = recommend_topn(space, np.array([0.3, 0.3]), ["z", "m", "a"], 3)
    assert out == ["a", "m", "z"]


def test_recommend_topn_errors():
    data = InteractionSet([("u", "a")])
    space = _space(data, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(EmptyCandidates):
        recommend_topn(space, np.zeros(1), [], 1)
    with pytest.raises(ValueError):
        recommend_topn(space, np.zeros(1), ["a"], 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12),
       st.booleans())
def test_recommend_topn_matches_exhaustive_sort(seed, n_cand, inner):
    rng = np.random.default_rng(seed)
    items = [f"i{k:02d}" for k in range(n_cand)]
    data = InteractionSet([("u", i) for i in items], items=items)
    V = rng.normal(size=(n_cand, 3))
    # quantized coordinates produce frequent ties
    V = np.round(V, 1) / max(1.0, float(np.abs(np.round(V, 1)).max()) * 2)
    space = _space(data, np.zeros((1, 3)), V,
                   kind="inner" if inner else "metric")
    q = rng.normal(size=3) / 4
    n = int(rng.integers(1, n_cand + 1))
    got = recommend_topn(space, q, items, n)

    def key(item):
        v = space.item_vec(item)
        if inner:
            return (-float(v @ q), item)
        return (float(np.sum((v - q) ** 2)), item)

    assert got == sorted(items, key=key)[:n]


def test_itempop_rank_counts_and_ties():
    data = InteractionSet([("u1", "a"), ("u2", "a"), ("u3", "a"),
                           ("u1", "b"), ("u2", "b"),
                           ("u1", "c"),
                           ("u1", "d"), ("u2", "d")])
    # counts: a=3, b=2, d=2, c=1; tie between b and d -> id order
    assert itempop_rank(data, ["a", "b", "c", "d"], 4) == \
        ["a", "b", "d", "c"]
    assert itempop_rank(data, ["c", "d", "b"], 2) == ["b", "d"]
    with pytest.raises(EmptyCandidates):
        itempop_rank(data, [], 1)
