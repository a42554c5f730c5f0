"""Leave-one-out ranking evaluation.

Each held-out user has one positive target item that must be ranked
against freshly sampled negative items.  A repeat draws new negatives for
every user; metrics are reported per repeat and averaged over repeats.

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

from .data import sample_negatives
from .errors import ConfigError, MissingTestItem, ScorerFailure

_DEFAULT_CUTOFFS = (10, 20)


def rank_of_test_item(scores, test_item, higher_is_better=True):
    """Position of ``test_item`` in the ranking induced by ``scores``.

    ``scores`` maps item id to a scalar.  The rank is one plus the number
    of strictly better candidates plus the number of equal-scored
    candidates with a smaller item id, matching the tie rule of
    :func:`crossrec.coldstart.recommend_topn`.
    """
    if test_item not in scores:
        raise MissingTestItem(test_item)
    target = scores[test_item]
    values = np.fromiter(scores.values(), dtype=float, count=len(scores))
    if higher_is_better:
        rank = 1 + int(np.count_nonzero(values > target))
    else:
        rank = 1 + int(np.count_nonzero(values < target))
    # ties are broken toward the smaller item id
    if np.count_nonzero(values == target) > 1:
        rank += sum(1 for item, value in scores.items()
                    if value == target and item < test_item)
    return rank


def hit_at(rank, n):
    return 1.0 if rank <= n else 0.0


def ndcg_at(rank, n, cutoff=True):
    if cutoff and rank > n:
        return 0.0
    return math.log(2.0) / math.log(rank + 1.0)


def mrr_at(rank, n, cutoff=True):
    if cutoff and rank > n:
        return 0.0
    return 1.0 / rank


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


_METRICS = ("HR", "NDCG", "MRR")


def metrics_from_ranks(ranks, cutoffs):
    """Mean hit rate, ndcg, and reciprocal rank at each cutoff."""
    out = {}
    ranks = list(ranks)
    for n in cutoffs:
        out[("HR", n)] = float(np.mean([hit_at(r, n) for r in ranks]))
        out[("NDCG", n)] = float(np.mean([ndcg_at(r, n) for r in ranks]))
        out[("MRR", n)] = float(np.mean([mrr_at(r, n) for r in ranks]))
    return out


@dataclass
class EvalReport:
    """Per-repeat metric tables, their average, and the raw ranks, for a
    scenario whose train-overlap fraction is ``phi``."""

    cutoffs: tuple
    phi: float
    per_repeat: list = field(default_factory=list)
    ranks: list = field(default_factory=list)  # one array per repeat

    @property
    def repeats(self):
        return len(self.per_repeat)

    def averaged(self):
        out = {}
        for key in self.per_repeat[0]:
            out[key] = float(np.mean([rep[key] for rep in self.per_repeat]))
        return out

    def to_tsv(self, method, phi):
        """Machine-readable block: method, phi, repeat, metric, N, value."""
        lines = ["method\tphi\trepeat\tmetric\tN\tvalue\n"]
        phi_s = format(phi, "g")
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


def evaluate(scorer, scenario, cfg, positive="test"):
    """Rank every held-out user's positive against sampled negatives.

    ``scorer(user_id, candidate_items) -> array of scores`` is called once
    per user and repeat.  ``positive`` selects the test item (default) or
    the validation item; both held-out items are always excluded from the
    negative pool so the two modes share one code path.
    """
    if positive not in ("test", "valid"):
        raise ConfigError(f"positive must be 'test' or 'valid'")
    users = list(scenario.test_users)
    report = EvalReport(cutoffs=tuple(cfg.cutoffs), phi=scenario.phi)
    for r in range(cfg.repeats):
        ranks = np.empty(len(users), dtype=np.int64)
        for k, user in enumerate(users):
            test_item, valid_item = scenario.heldout[user]
            pos = test_item if positive == "test" else valid_item
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed + r, k]))
            negs = sample_negatives(scenario.target, user,
                                    {test_item, valid_item},
                                    cfg.negatives, rng)
            candidates = [pos] + negs
            try:
                scores = np.asarray(scorer(user, candidates), dtype=float)
            except Exception as exc:
                raise ScorerFailure(f"scorer failed for user {user}: "
                                    f"{exc}") from exc
            if scores.shape != (len(candidates),):
                raise ScorerFailure(
                    f"scorer returned shape {scores.shape} for user "
                    f"{user}, expected ({len(candidates)},)")
            if not np.all(np.isfinite(scores)):
                raise ScorerFailure(f"non-finite score for user {user}")
            ranks[k] = rank_of_test_item(dict(zip(candidates, scores)), pos)
        report.ranks.append(ranks)
        report.per_repeat.append(metrics_from_ranks(ranks, cfg.cutoffs))
    return report
