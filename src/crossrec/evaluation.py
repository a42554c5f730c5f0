"""Leave-one-out ranking evaluation.

Each held-out user's test item is ranked against freshly sampled negative
items; its validation item is held out too, and never ranked or drawn.  A
repeat draws new negatives for every user; metrics are reported per
repeat and averaged over repeats.

Metrics at a cutoff ``N`` for a positive ranked at position ``p``:

* hit rate: 1 if ``p <= N`` else 0
* ndcg: ``log 2 / log(p + 1)`` if ``p <= N`` else 0
* reciprocal rank: ``1 / p`` if ``p <= N`` else 0

Randomness is fully reproducible: repeat ``r`` derives every user's
negative stream from ``(seed + r, user position)``, so streams never
collide across users or repeats and a report depends only on the
scenario, the scorer, and the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import id_keys, id_rows
from .errors import ConfigError, InsufficientCandidates, ScorerFailure

_DEFAULT_CUTOFFS = (10, 20)


def rank_of_test_item(scores, keys):
    """Position of candidate 0 by higher score, ties to the smaller key:
    one plus the number of strictly better candidates plus the number of
    equal-scored candidates with a smaller key."""
    scores, keys = np.asarray(scores, dtype=float), np.asarray(keys)
    return 1 + int(np.count_nonzero(scores > scores[0])) + int(
        np.count_nonzero((scores == scores[0]) & (keys < keys[0])))


def hit_at(rank, n):
    return 1.0 if rank <= n else 0.0


def ndcg_at(rank, n):
    return math.log(2.0) / math.log(rank + 1.0) if rank <= n else 0.0


def mrr_at(rank, n):
    return 1.0 / rank if rank <= n else 0.0


@dataclass(frozen=True)
class EvalConfig:
    cutoffs: tuple = _DEFAULT_CUTOFFS
    repeats: int = 5
    negatives: int = 999
    seed: int = 0

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if not self.cutoffs or any(n < 1 for n in self.cutoffs):
            raise ConfigError("cutoffs must be positive")
        if len(set(self.cutoffs)) < len(self.cutoffs):
            raise ConfigError("cutoffs must be distinct")


_METRICS = {"HR": hit_at, "NDCG": ndcg_at, "MRR": mrr_at}


def metrics_from_ranks(ranks, cutoffs):
    """Mean hit rate, ndcg, and reciprocal rank at each cutoff."""
    return {(name, n): float(np.mean([metric(r, n) for r in ranks]))
            for n in cutoffs for name, metric in _METRICS.items()}


@dataclass
class EvalReport:
    """Per-repeat metric tables, their average, and the raw ranks, for a
    scenario whose train-overlap fraction is ``phi``."""

    cutoffs: tuple
    phi: float
    per_repeat: list = field(default_factory=list)
    ranks: list = field(default_factory=list)  # one array per repeat

    def averaged(self):
        return {key: float(np.mean([rep[key] for rep in self.per_repeat]))
                for key in self.per_repeat[0]}

    def to_tsv(self, method):
        """Machine-readable block: method, phi, repeat, metric, N, value."""
        lines = ["method\tphi\trepeat\tmetric\tN\tvalue\n"]
        phi_s = format(self.phi, "g")
        tables = list(enumerate(self.per_repeat, start=1))
        for r, rep in tables + [("avg", self.averaged())]:
            for metric in _METRICS:
                for n in self.cutoffs:
                    lines.append(f"{method}\t{phi_s}\t{r}\t{metric}\t{n}\t"
                                 f"{rep[(metric, n)]:.9f}\n")
        return "".join(lines)

    def format_table(self, title=""):
        """Aligned human-readable summary of the averaged metrics."""
        avg = self.averaged()
        header = ["metric"] + [f"@{n}" for n in self.cutoffs]
        rows = [[m] + [f"{avg[(m, n)]:.4f}" for n in self.cutoffs]
                for m in _METRICS]
        widths = [max(len(r[c]) for r in [header] + rows)
                  for c in range(len(header))]
        out = []
        if title:
            out.append(title)
        out.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            out.append("  ".join(x.ljust(w) for x, w in zip(r, widths)))
        return "\n".join(out)


def heldout_rows(scenario, negatives):
    """Per test user: the target rows of its (test, valid) items and of
    everything its negatives must avoid, its training items included.
    Raises :class:`InsufficientCandidates` for the first user whose pool
    is smaller than ``negatives``."""
    target, users = scenario.target, scenario.test_users
    held = id_rows(target.item_index, [i for u in users for i in
                                       scenario.heldout[u]]).reshape(-1, 2)
    out = []
    for user, pair, end in zip(users, held, np.sort(held, axis=1)):
        blocked = (np.union1d(target.item_neighbors(target.user_index(user)),
                              pair) if target.has_user(user)
                   else end[:1 + (end[0] != end[1])])  # sorted, deduped
        pool = target.n_items - blocked.shape[0]
        if pool < negatives:
            raise InsufficientCandidates(pool, negatives)
        out.append((pair, blocked))
    return out


def sample_negatives(pool, n, rng):
    """``n`` distinct rows drawn from the row array ``pool``."""
    return pool[rng.choice(pool.shape[0], size=n, replace=False)]


def evaluate(scorer, scenario, cfg):
    """Rank every held-out user's test item against negatives that each
    repeat draws from the user's pool, built once: the target rows that
    :func:`heldout_rows` does not block.  ``scorer(k, rows) -> scores``
    (higher is better) is called once per user and repeat, all of a user's
    repeats before the next user, with ``k`` the position in
    ``scenario.test_users`` and ``rows`` target item rows, test item first.
    """
    held = heldout_rows(scenario, cfg.negatives)
    keys = id_keys(scenario.target.item_ids)
    ranks = np.empty((cfg.repeats, len(held)), dtype=np.int64)
    for k, (pair, blocked) in enumerate(held):
        user = scenario.test_users[k]
        pool = np.ones(scenario.target.n_items, bool)
        pool[blocked] = False
        pool = np.flatnonzero(pool)
        for r in range(cfg.repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed + r, k]))
            rows = np.concatenate(
                (pair[:1], sample_negatives(pool, cfg.negatives, rng)))
            try:
                scores = np.asarray(scorer(k, rows), dtype=float)
            except Exception as exc:
                raise ScorerFailure(f"scorer failed for user {user}: "
                                    f"{exc}") from exc
            if scores.shape != rows.shape:
                raise ScorerFailure(
                    f"scorer returned shape {scores.shape} for user "
                    f"{user}, expected {rows.shape}")
            if not np.all(np.isfinite(scores)):
                raise ScorerFailure(f"non-finite score for user {user}")
            ranks[r, k] = rank_of_test_item(scores, keys[rows])
    return EvalReport(
        cutoffs=tuple(cfg.cutoffs), phi=scenario.split.phi, ranks=list(ranks),
        per_repeat=[metrics_from_ranks(r, cfg.cutoffs) for r in ranks])
