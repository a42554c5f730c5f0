"""The Adam updates both training loops run."""

import numpy as np
import pytest

from crossrec.optim import Adam, put_rows


def _steps(rng, n_rows, n_steps):
    """Random (indices with repeats, one gradient row per index) batches."""
    out = []
    for _ in range(n_steps):
        idx = rng.integers(0, n_rows, size=12)
        out.append((idx, rng.normal(size=(idx.shape[0], 3))))
    return out


def test_step_rows_sums_the_gradients_of_repeated_rows():
    rng = np.random.default_rng(0)
    start = rng.normal(size=(6, 3))
    raw, summed = start.copy(), start.copy()
    opt_raw, opt_sum = Adam(start.shape, 0.01), Adam(start.shape, 0.01)
    for idx, grads in _steps(rng, 6, 5):
        assert np.unique(idx).shape[0] < idx.shape[0]
        rows = np.unique(idx)
        acc = np.zeros((rows.shape[0], 3))
        for i, g in zip(idx, grads):
            acc[np.searchsorted(rows, i)] += g
        got = opt_raw.step_rows(raw, idx, idx, grads)
        opt_sum.step_rows(summed, rows, rows, acc)
        np.testing.assert_array_equal(got, rows)
    np.testing.assert_array_equal(raw, summed)
    np.testing.assert_array_equal(opt_raw.m, opt_sum.m)
    np.testing.assert_array_equal(opt_raw.v, opt_sum.v)
    assert opt_raw.t == opt_sum.t == 5


def test_rows_never_touched_keep_their_values_and_zero_moments():
    rng = np.random.default_rng(1)
    start = rng.normal(size=(10, 3))
    param = start.copy()
    opt = Adam(param.shape, 0.01)
    for idx, grads in _steps(rng, 7, 4):  # rows 7, 8 and 9 never appear
        opt.step_rows(param, idx, idx, grads)
    np.testing.assert_array_equal(param[7:], start[7:])
    assert not opt.m[7:].any() and not opt.v[7:].any()
    assert opt.m[:7].any() and not np.array_equal(param[:7], start[:7])


def test_step_and_step_rows_over_every_row_agree_bitwise():
    rng = np.random.default_rng(2)
    start = rng.normal(size=(5, 4))
    dense, sparse = start.copy(), start.copy()
    opt_dense, opt_sparse = Adam(start.shape, 0.05), Adam(start.shape, 0.05)
    every = np.arange(5)
    for _ in range(6):
        grad = rng.normal(size=start.shape)
        opt_dense.step(dense, grad)
        opt_sparse.step_rows(sparse, every, every[::-1], grad[::-1])
    np.testing.assert_array_equal(dense, sparse)
    np.testing.assert_array_equal(opt_dense.m, opt_sparse.m)
    np.testing.assert_array_equal(opt_dense.v, opt_sparse.v)
    assert not np.array_equal(dense, start)


def test_step_rows_sums_repeated_rows_in_input_order_like_add_at():
    """The scatter must give ``np.add.at``'s sums bit for bit: a row seen
    twelve times in one batch sums its gradients in input order (another
    order, such as a pairwise sum, changes the bits of this data), also
    when the parameter has far more rows than the batch touches."""
    rng = np.random.default_rng(3)
    n, k = 5000, 4
    start = rng.normal(size=(n, k))
    param, ref = start.copy(), start.copy()
    opt, opt_ref = Adam(start.shape, 0.01), Adam(start.shape, 0.01)
    for _ in range(3):
        idx = rng.permutation(np.concatenate(
            [np.full(12, 7), rng.integers(0, n, size=20)]))
        grads = rng.normal(size=(idx.shape[0], k)) * 10.0 ** rng.integers(
            -6, 7, size=(idx.shape[0], 1))
        acc = np.zeros((n, k))
        np.add.at(acc, idx, grads)
        assert not np.array_equal(acc[7], grads[idx == 7][::-1].sum(0))
        rows = np.unique(idx)
        np.testing.assert_array_equal(opt.step_rows(param, idx, idx, grads),
                                      rows)
        opt_ref.step_rows(ref, rows, rows, acc[rows])
    np.testing.assert_array_equal(param, ref)
    np.testing.assert_array_equal(opt.m, opt_ref.m)
    np.testing.assert_array_equal(opt.v, opt_ref.v)


def test_touched_rows_without_a_gradient_step_as_with_zero_gradients():
    """Leaving out ±0.0 gradient rows changes no bit: the touched rows
    they name still step, with the same param, moments and step count."""
    rng = np.random.default_rng(4)
    start = rng.normal(size=(10, 3))
    sparse, dense = start.copy(), start.copy()
    opt_sparse, opt_dense = Adam(start.shape, 0.01), Adam(start.shape, 0.01)
    for idx, grads in _steps(rng, 8, 6):  # rows 8 and 9 never appear
        live = rng.random(idx.shape[0]) < 0.4
        zeros = np.copysign(0.0, rng.normal(size=grads.shape))
        got = opt_sparse.step_rows(sparse, idx, idx[live], grads[live])
        want = opt_dense.step_rows(dense, idx, idx,
                                   np.where(live[:, None], grads, zeros))
        np.testing.assert_array_equal(got, want)
    for a, b in ((sparse, dense), (opt_sparse.m, opt_dense.m),
                 (opt_sparse.v, opt_dense.v)):
        assert a.tobytes() == b.tobytes()
    assert opt_sparse.t == opt_dense.t == 6
    np.testing.assert_array_equal(sparse[8:], start[8:])
    assert not opt_sparse.m[8:].any() and not opt_sparse.v[8:].any()


def test_a_step_with_no_gradient_rows_still_steps_every_touched_row():
    rng = np.random.default_rng(5)
    start = rng.normal(size=(6, 3))
    param = start.copy()
    opt = Adam(start.shape, 0.01)
    opt.step_rows(param, np.arange(4), np.arange(4), rng.normal(size=(4, 3)))
    before, m_before = param.copy(), opt.m.copy()
    touched = np.array([3, 1, 3, 5])
    rows = opt.step_rows(param, touched, touched[:0], np.empty((0, 3)))
    np.testing.assert_array_equal(rows, [1, 3, 5])
    assert opt.t == 2
    for r in (1, 3):  # carried momentum moves them
        assert not np.array_equal(param[r], before[r])
        np.testing.assert_array_equal(opt.m[r], m_before[r] * 0.9)
    # a first step with a zero gradient leaves row 5 where it was
    np.testing.assert_array_equal(param[5], start[5])
    np.testing.assert_array_equal(param[[0, 2, 4]], before[[0, 2, 4]])
    assert not opt.m[[4, 5]].any() and not opt.v[[4, 5]].any()


def test_put_rows_writes_what_fancy_index_assignment_writes():
    rng = np.random.default_rng(6)
    for shape in ((9,), (9, 1), (9, 4), (40, 16)):
        for n_rows in (0, 1, 5, shape[0]):
            a = rng.normal(size=shape)
            rows = rng.permutation(shape[0])[:n_rows]
            values = rng.normal(size=(n_rows,) + shape[1:])
            want = a.copy()
            want[rows] = values
            put_rows(a, rows, values)
            assert a.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["fortran", "column slice",
                                    "row slice"])
def test_put_rows_refuses_an_array_that_is_not_c_contiguous(layout):
    base = np.random.default_rng(7).normal(size=(6, 4))
    a = {"fortran": np.asfortranarray(base), "column slice": base[:, :3],
         "row slice": base[::2]}[layout]
    before = a.copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        put_rows(a, np.array([0, 2]), np.zeros((2, a.shape[1])))
    assert a.tobytes() == before.tobytes()
    opt = Adam(a.shape, 0.1)
    with pytest.raises(ValueError, match="C-contiguous"):
        opt.step_rows(a, np.array([0, 1]), np.array([0, 1]),
                      np.ones((2, a.shape[1])))
