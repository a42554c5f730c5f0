import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import user_neighbors

from crossrec.coldstart import (aggregate_hops, aggregate_step,
                                cold_start_queries, infer_cold_start)
from crossrec.data import InteractionSet, id_rows
from crossrec.embed import EmbeddingSpace
from crossrec.errors import IndexMismatch
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
    U1, V1 = aggregate_step(U, V, data)
    # item: (v + u0 + u1) / 3
    np.testing.assert_allclose(V1, [[1 / 3, 1 / 3]], atol=1e-15)
    # users: (u + v) / 2 with the old item vector
    np.testing.assert_allclose(U1,
                               [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)


def test_aggregate_step_is_synchronous():
    # the user update must read hop-0 item vectors, not hop-1
    data = InteractionSet([("u0", "i0")])
    U = np.array([[0.0]])
    V = np.array([[1.0]])
    U1, V1 = aggregate_step(U, V, data)
    # synchronous: u = (0 + 1)/2; an in-place bug would give (0 + 0.5)/2
    np.testing.assert_allclose(U1, [[0.5]])
    np.testing.assert_allclose(V1, [[0.5]])


def test_aggregate_step_keeps_isolated_entities():
    data = InteractionSet([("u0", "i0")], users=["u0", "lone"],
                          items=["i0", "dead"])
    U = np.array([[0.2, 0.0], [0.7, 0.1]])
    V = np.array([[0.0, 0.2], [0.1, 0.9]])
    U1, V1 = aggregate_step(U, V, data)
    np.testing.assert_array_equal(U1[1], U[1])
    np.testing.assert_array_equal(V1[1], V[1])


def test_aggregate_step_shape_check():
    data = InteractionSet([("u0", "i0")])
    with pytest.raises(IndexMismatch):
        aggregate_step(np.zeros((2, 3)), np.zeros((1, 3)), data)


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
        users = user_neighbors(data, j)
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
        U, V = U0, V0
        for h in range(1, 5):
            U, V = aggregate_step(U, V, data)
            for i in range(n_users):
                np.testing.assert_allclose(U[i], user_fn(i, h), atol=1e-12)
            for j in range(n_items):
                np.testing.assert_allclose(V[j], item_fn(j, h), atol=1e-12)


def test_multi_hop_user_and_hop_zero_identity():
    data = InteractionSet([("u0", "i0"), ("u1", "i0"), ("u1", "i1")])
    U = np.array([[0.6, 0.0], [0.0, 0.6]])
    V = np.array([[0.1, 0.1], [0.4, 0.0]])
    space = _space(data, U, V)
    np.testing.assert_array_equal(aggregate_hops(space, data, 0)[0][0], U[0])
    expect = (U[0] + V[0]) / 2
    np.testing.assert_allclose(aggregate_hops(space, data, 1)[0][0], expect)


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
    for hops in range(3):
        for got, want in zip(aggregate_hops(permuted, data, hops),
                             aggregate_hops(space, data, hops)):
            np.testing.assert_array_equal(got, want)


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
    U, V = U0, V0
    for _ in range(hops):
        U, V = aggregate_step(U, V, data)
    assert np.linalg.norm(U, axis=1).max() <= 1.0 + 1e-12
    assert np.linalg.norm(V, axis=1).max() <= 1.0 + 1e-12


# -- inference --------------------------------------------------------------

def test_infer_cold_start_is_the_mapping_forward():
    k = 3
    net = MappingNetwork(np.zeros((2 * k, k)), np.zeros(2 * k),
                         np.zeros((k, 2 * k)), np.array([0.0, 0.3, 0.0]))
    np.testing.assert_allclose(infer_cold_start(net, [[1.0, 1.0, 1.0]])[0],
                               [0.0, 0.3, 0.0])


def test_cold_start_queries_translate_the_aligned_rows_in_one_pass():
    rng = np.random.default_rng(7)
    data = _random_graph(rng, 30, 20, 0.2)
    U = rng.uniform(-0.5, 0.5, (data.n_users, 4))
    V = rng.uniform(-0.5, 0.5, (data.n_items, 4))
    order = rng.permutation(data.n_users)  # the space's rows, reordered
    space = EmbeddingSpace([data.user_ids[k] for k in order], data.item_ids,
                           U[order], V, "metric")
    # weights large enough that some outputs are projected
    net = MappingNetwork(*(rng.uniform(-2, 2, shape)
                           for shape in ((8, 4), (8,), (4, 8), (4,))))
    users = [data.user_ids[k]
             for k in rng.choice(data.n_users, 12, replace=False)]
    for hops in (0, 2):
        rows = aggregate_hops(space, data, hops)[0][
            id_rows(data.user_index, users)]
        got = cold_start_queries(space, data, net, hops, users)
        np.testing.assert_array_equal(got, net.forward_batch(rows))
        one_by_one = np.stack([net.forward_batch(r[None])[0] for r in rows])
        np.testing.assert_allclose(got, one_by_one, rtol=0, atol=1e-15)
        assert (np.linalg.norm(got, axis=1) > 0.999).any(), hops

