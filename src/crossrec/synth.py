"""Synthetic two-domain interaction generator.

Every user gets one latent taste vector on the unit sphere; every item in
each domain gets its own latent vector on the same sphere.  A user
interacts with the ``round(density * n_items)`` items nearest to their
taste vector, per domain.  Overlapping users keep the same taste vector in
both domains, which is what gives a cross-domain mapping something real to
learn; the remaining users are split between the two domains.
"""

from __future__ import annotations

import numpy as np

from .data import InteractionSet
from .errors import ConfigError, InfeasibleDensity


def _unit_rows(rng, n, k):
    x = rng.standard_normal((n, k))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def check_synthetic(n_users, n_source_items, n_target_items, k_true,
                    overlap_fraction, density):
    """Check generator arguments; return the per-user interaction counts."""
    if min(n_users, n_source_items, n_target_items, k_true) < 1:
        raise ConfigError("all counts must be positive")
    if not 0.0 < overlap_fraction <= 1.0:
        raise ConfigError(
            f"overlap_fraction must be in (0, 1], got {overlap_fraction}")
    if not 0.0 < density < 1.0:
        raise ConfigError(f"density must be in (0, 1), got {density}")
    c_source = int(np.floor(density * n_source_items + 0.5))
    c_target = int(np.floor(density * n_target_items + 0.5))
    if c_source < 1 or c_target < 1:
        raise InfeasibleDensity(
            f"density {density} yields zero interactions per user")
    return c_source, c_target


def generate_synthetic(n_users, n_source_items, n_target_items, k_true,
                       overlap_fraction, density, seed):
    """Build (source, target) interaction sets from a shared geometry."""
    c_source, c_target = check_synthetic(
        n_users, n_source_items, n_target_items, k_true, overlap_fraction,
        density)
    rng = np.random.default_rng(seed)
    taste = _unit_rows(rng, n_users, k_true)
    source_items = _unit_rows(rng, n_source_items, k_true)
    target_items = _unit_rows(rng, n_target_items, k_true)

    n_overlap = int(np.floor(overlap_fraction * n_users + 0.5))
    perm = rng.permutation(n_users)
    overlap = perm[:n_overlap]
    rest = perm[n_overlap:]
    half = rest.shape[0] // 2
    source_only = rest[:half]
    target_only = rest[half:]

    user_ids = [f"u{k:05d}" for k in range(n_users)]
    source_ids = [f"s{k:05d}" for k in range(n_source_items)]
    target_ids = [f"t{k:05d}" for k in range(n_target_items)]

    def build(users, item_vecs, item_ids, c):
        users = np.sort(users)
        top = [np.sort(np.argpartition(-(item_vecs @ taste[u]), c - 1)[:c])
               for u in users]
        return InteractionSet._from_indices(
            [user_ids[u] for u in users], item_ids,
            np.repeat(np.arange(users.shape[0]), c),
            np.array(top, dtype=np.int64).reshape(-1))

    source = build(np.concatenate([overlap, source_only]), source_items,
                   source_ids, c_source)
    target = build(np.concatenate([overlap, target_only]), target_items,
                   target_ids, c_target)
    return source, target
