"""Minimal Adam optimizer used by both training loops.

Embedding training touches only a few rows per step, so a lazy variant is
provided: first and second moments are updated for the touched rows only,
while the bias-correction exponent uses the global step count.  Dense
parameters (the mapping network) use the ordinary update.
"""

import numpy as np


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, shape, learning_rate):
        self.lr = float(learning_rate)
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def _advance(self, m, v, grad):
        """One more step: new moments and the amount to subtract."""
        self.t += 1
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        delta = self.lr * (m / (1.0 - BETA1 ** self.t))
        denom = np.sqrt(v / (1.0 - BETA2 ** self.t))
        denom += EPS
        return m, v, np.divide(delta, denom, out=delta)

    def step(self, param, grad):
        """In-place dense update of ``param``."""
        self.m, self.v, delta = self._advance(self.m, self.v, grad)
        param -= delta

    def step_rows(self, param, idx, grads):
        """In-place update of the rows ``idx`` of ``param`` only, with
        ``grads[j]`` the gradient of row ``idx[j]``: a repeated row's
        gradients are summed.  Rows never touched keep their values and
        zero moments.  Returns the touched rows in ascending order."""
        rows, inv = np.unique(idx, return_inverse=True)
        g = np.zeros((rows.shape[0],) + param.shape[1:])
        np.add.at(g, inv, grads)
        self.m[rows], self.v[rows], delta = self._advance(
            self.m[rows], self.v[rows], g)
        param[rows] -= delta
        return rows
