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

    def step(self, param, grad):
        """In-place dense update of ``param``."""
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        mhat = self.m / (1.0 - BETA1 ** self.t)
        vhat = self.v / (1.0 - BETA2 ** self.t)
        param -= self.lr * mhat / (np.sqrt(vhat) + EPS)

    def step_rows(self, param, rows, grad_rows):
        """In-place update of ``param[rows]`` only.

        ``rows`` must not contain duplicates; callers accumulate gradients
        per row first.  Rows never touched keep zero moments.
        """
        self.t += 1
        m = BETA1 * self.m[rows] + (1.0 - BETA1) * grad_rows
        v = BETA2 * self.v[rows] + (1.0 - BETA2) * grad_rows * grad_rows
        self.m[rows] = m
        self.v[rows] = v
        mhat = m / (1.0 - BETA1 ** self.t)
        vhat = v / (1.0 - BETA2 ** self.t)
        param[rows] -= self.lr * mhat / (np.sqrt(vhat) + EPS)
