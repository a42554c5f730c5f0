"""Minimal Adam optimizer used by both training loops.

Embedding training touches only a few rows per step, so a lazy variant is
provided: first and second moments are updated for the touched rows only,
while the bias-correction exponent uses the global step count.  Dense
parameters (the mapping network) use the ordinary update.

The lazy variant sums a repeated row's gradients with one weighted
``np.bincount`` over the touched rows' compact positions.  Each bin adds
its gradients in input order starting from 0.0, as ``np.add.at`` does, so
the sums are bit for bit the same; the cost is O(rows + gradient rows *
columns).  The rows a step touches are given apart from the rows that
carry a gradient, so a caller can leave out gradient rows that are all
zero, such as those of inactive hinges; a touched row left with no
gradient still takes its lazy step with a zero gradient.  Leaving them
out changes no bit: a bin starts at +0.0, a sum that starts there is
never -0.0, and adding ±0.0 to any other value leaves it as it was.  Rows
move by ``take`` and :func:`put_rows`, not by fancy indexing: for 1,000
rows of 16 float64 (numpy 2.4) they take about 1.8 and 3.5 us where
``V[rows]`` and ``V[rows] = X`` take 6.9 us each.
"""

import numpy as np


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def put_rows(a, rows, values):
    """``a[rows] = values`` for distinct ``rows``, as ``np.put`` of rows."""
    if not a.flags.c_contiguous:  # the view needs rows back to back
        raise ValueError("put_rows writes rows of a C-contiguous array only")
    row = np.dtype((np.void, a.itemsize * (a.size // max(len(a), 1))))
    np.put(a.view(row), rows, np.ascontiguousarray(values, a.dtype).view(row))


class Adam:
    def __init__(self, shape, learning_rate):
        self.lr = float(learning_rate)
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def _advance(self, m, v, grad):
        """One more step: update the moments ``m`` and ``v`` in place and
        return the amount to subtract."""
        self.t += 1
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        sq = (1.0 - BETA2) * grad
        sq *= grad
        v += sq
        delta = m / (1.0 - BETA1 ** self.t)
        delta *= self.lr
        denom = np.divide(v, 1.0 - BETA2 ** self.t, out=sq)
        np.sqrt(denom, out=denom)
        denom += EPS
        delta /= denom
        return delta

    def step(self, param, grad):
        """In-place dense update of ``param``."""
        param -= self._advance(self.m, self.v, grad)

    def step_rows(self, param, touched, idx, grads):
        """In-place update of the rows ``touched`` of ``param`` only, with
        ``grads[j]`` a gradient of row ``idx[j]``, each of ``idx`` also in
        ``touched``: a repeated row's gradients are summed, and a touched
        row without one steps with a zero gradient.  Rows never touched
        keep their values and zero moments.  Returns the touched rows in
        ascending order."""
        n = param.shape[0]
        rows = np.flatnonzero(np.bincount(touched, minlength=n) > 0)
        pos = np.empty(n, dtype=np.intp)
        pos[rows] = np.arange(rows.shape[0])
        width = param[0].size
        cells = (pos[idx] * width)[:, None] + np.arange(width)
        g = np.bincount(cells.ravel(), weights=grads.ravel(),
                        minlength=rows.shape[0] * width)
        g = g.reshape((rows.shape[0],) + param.shape[1:])
        m, v = self.m.take(rows, axis=0), self.v.take(rows, axis=0)
        delta = self._advance(m, v, g)
        put_rows(param, rows, param.take(rows, axis=0) - delta)
        put_rows(self.m, rows, m)
        put_rows(self.v, rows, v)
        return rows
