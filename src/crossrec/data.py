"""Interaction data, cross-domain scenario construction, and splits.

An :class:`InteractionSet` is an immutable user-item bipartite graph with
string ids and implicit (binary) feedback.  A :class:`CrossDomainScenario`
holds a filtered source domain, a target domain reduced to its training
interactions, and the user splits needed for cold-start experiments: the
overlapping users, the half of them held out for testing, and the fraction
phi of the remainder whose correspondence may be used as supervision.

File formats are plain text so that scenarios can be inspected and diffed:
interactions are ``user<TAB>item`` lines (``#`` starts a comment), held-out
triples are ``user<TAB>test_item<TAB>valid_item``, and scenario metadata is
``key=value`` lines.  All writers emit sorted lines so that serialization is
byte-for-byte reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateScenario,
    EmptyDataset,
    InsufficientCandidates,
    MalformedLine,
    NoOverlap,
)

DEFAULT_MIN_OVERLAP_INTERACTIONS = 10
DEFAULT_MIN_OTHER_INTERACTIONS = 20
DEFAULT_TEST_FRACTION = 0.5


def _check_id(token):
    # ids are embedded in whitespace-delimited text formats downstream
    return token and not any(c.isspace() for c in token)


def _round_half_up(x):
    # round() would use banker's rounding; half-up keeps split sizes intuitive
    return int(np.floor(x + 0.5))


class InteractionSet:
    """Immutable set of (user, item) pairs with index-level views.

    Users and items keep their first-appearance order, which makes every
    derived array deterministic for a given input sequence.  Duplicate pairs
    collapse.  Items with zero interactions are representable: pass an
    explicit ``items`` universe.
    """

    __slots__ = ("user_ids", "item_ids", "_uindex", "_iindex",
                 "_pair_u", "_pair_i", "_codes", "_user_adj", "_item_adj")

    def __init__(self, pairs, users=None, items=None):
        pair_list = []
        seen_u = {}
        seen_i = {}
        if users is not None:
            for u in users:
                if not _check_id(u):
                    raise ValueError(f"bad user id {u!r}")
                if u not in seen_u:
                    seen_u[u] = len(seen_u)
        if items is not None:
            for i in items:
                if not _check_id(i):
                    raise ValueError(f"bad item id {i!r}")
                if i not in seen_i:
                    seen_i[i] = len(seen_i)
        for u, i in pairs:
            if users is None and u not in seen_u:
                if not _check_id(u):
                    raise ValueError(f"bad user id {u!r}")
                seen_u[u] = len(seen_u)
            if items is None and i not in seen_i:
                if not _check_id(i):
                    raise ValueError(f"bad item id {i!r}")
                seen_i[i] = len(seen_i)
            pair_list.append((seen_u[u], seen_i[i]))

        self.user_ids = tuple(seen_u)
        self.item_ids = tuple(seen_i)
        self._uindex = seen_u
        self._iindex = seen_i

        n_items = max(len(self.item_ids), 1)
        if pair_list:
            raw = np.asarray(pair_list, dtype=np.int64)
            codes = np.unique(raw[:, 0] * n_items + raw[:, 1])
        else:
            codes = np.empty(0, dtype=np.int64)
        self._codes = codes
        self._pair_u = codes // n_items
        self._pair_i = codes % n_items
        for a in (self._codes, self._pair_u, self._pair_i):
            a.setflags(write=False)

        self._user_adj = self._split_by(self._pair_u, self._pair_i,
                                        len(self.user_ids))
        order = np.lexsort((self._pair_u, self._pair_i))
        self._item_adj = self._split_by(self._pair_i[order],
                                        self._pair_u[order],
                                        len(self.item_ids))

    @staticmethod
    def _split_by(keys, values, n):
        out = []
        bounds = np.searchsorted(keys, np.arange(n + 1))
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = values[a:b].copy()
            seg.setflags(write=False)
            out.append(seg)
        return out

    # -- sizes ---------------------------------------------------------

    @property
    def n_users(self):
        return len(self.user_ids)

    @property
    def n_items(self):
        return len(self.item_ids)

    @property
    def n_interactions(self):
        return int(self._codes.shape[0])

    # -- id-level access -----------------------------------------------

    def has_user(self, user):
        return user in self._uindex

    def has_item(self, item):
        return item in self._iindex

    def user_index(self, user):
        return self._uindex[user]

    def item_index(self, item):
        return self._iindex[item]

    def has_pair(self, user, item):
        u = self._uindex.get(user)
        i = self._iindex.get(item)
        if u is None or i is None:
            return False
        code = u * max(self.n_items, 1) + i
        k = np.searchsorted(self._codes, code)
        return k < self._codes.shape[0] and self._codes[k] == code

    def items_of(self, user):
        """Item ids interacted with by ``user`` (empty for unknown users)."""
        u = self._uindex.get(user)
        if u is None:
            return ()
        return tuple(self.item_ids[i] for i in self._user_adj[u])

    def users_of(self, item):
        i = self._iindex.get(item)
        if i is None:
            return ()
        return tuple(self.user_ids[u] for u in self._item_adj[i])

    # -- index-level access (for the numeric code) ----------------------

    def pair_arrays(self):
        """(user_idx, item_idx) arrays sorted by (user, item)."""
        return self._pair_u, self._pair_i

    def item_neighbors(self, u_idx):
        return self._user_adj[u_idx]

    def user_neighbors(self, i_idx):
        return self._item_adj[i_idx]

    def user_degrees(self):
        return np.array([a.shape[0] for a in self._user_adj], dtype=np.int64)

    def item_degrees(self):
        return np.array([a.shape[0] for a in self._item_adj], dtype=np.int64)

    def pairs(self):
        """All (user_id, item_id) pairs sorted by (user, item) index."""
        return [(self.user_ids[u], self.item_ids[i])
                for u, i in zip(self._pair_u, self._pair_i)]


@dataclass(frozen=True)
class SplitSeedConfig:
    """Controls the randomized parts of scenario construction."""

    seed: int
    test_fraction: float = DEFAULT_TEST_FRACTION
    phi: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0.0 < self.phi <= 1.0:
            raise ConfigError(f"phi must be in (0, 1], got {self.phi}")


@dataclass(frozen=True)
class CrossDomainScenario:
    """A filtered source domain plus a target domain split for evaluation.

    ``target`` contains only training interactions: test users and all of
    their pairs are removed from it, but the full filtered item universe is
    kept so every candidate item stays addressable.  ``heldout`` maps each
    test user to its (test_item, valid_item) pair in the target domain.
    """

    source: InteractionSet
    target: InteractionSet
    overlap_users: tuple
    test_users: tuple
    train_overlap_users: tuple
    heldout: dict
    phi: float
    seed: int
    test_fraction: float = DEFAULT_TEST_FRACTION
    min_overlap_interactions: int = DEFAULT_MIN_OVERLAP_INTERACTIONS
    min_other_interactions: int = DEFAULT_MIN_OTHER_INTERACTIONS


def load_interactions(path):
    """Parse a ``user<TAB>item`` file into an :class:`InteractionSet`.

    Lines starting with ``#`` and blank lines are skipped.  Extra fields
    after the second are ignored.  Raises :class:`MalformedLine` on rows
    that do not carry two usable ids, :class:`EmptyDataset` if nothing is
    left.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise MalformedLine(path, lineno,
                                    "expected user<TAB>item")
            user, item = fields[0], fields[1]
            if not _check_id(user) or not _check_id(item):
                raise MalformedLine(path, lineno,
                                    f"bad id in {fields[:2]!r}")
            pairs.append((user, item))
    if not pairs:
        raise EmptyDataset(f"no interactions in {path}")
    return InteractionSet(pairs)


def _filter_domains(source, target, min_overlap, min_other):
    """Iteratively drop thin users and items until nothing changes.

    Overlapping users need at least ``min_overlap`` interactions in each
    domain; failing that they are dropped from both.  Everyone else (users
    appearing in one domain, and all items) needs ``min_other``.  Removals
    are monotone, so the fixed point is unique.
    """
    src = {u: set(source.items_of(u)) for u in source.user_ids}
    tgt = {u: set(target.items_of(u)) for u in target.user_ids}

    def item_counts(adj):
        counts = {}
        for items in adj.values():
            for i in items:
                counts[i] = counts.get(i, 0) + 1
        return counts

    changed = True
    while changed:
        changed = False
        overlap = set(src) & set(tgt)
        for u in list(src):
            if u in overlap:
                if len(src[u]) < min_overlap or len(tgt[u]) < min_overlap:
                    del src[u]
                    del tgt[u]
                    changed = True
            elif len(src[u]) < min_other:
                del src[u]
                changed = True
        for u in list(tgt):
            if u not in src and len(tgt[u]) < min_other:
                del tgt[u]
                changed = True
        for adj in (src, tgt):
            counts = item_counts(adj)
            bad = {i for i, c in counts.items() if c < min_other}
            if bad:
                for u in adj:
                    if adj[u] & bad:
                        adj[u] -= bad
                        changed = True
    return src, tgt


def _rebuild(original, adj):
    users = [u for u in original.user_ids if u in adj]
    kept_items = set()
    for items in adj.values():
        kept_items |= items
    items = [i for i in original.item_ids if i in kept_items]
    pairs = [(u, i) for u in users for i in sorted(adj[u])]
    return InteractionSet(pairs, users=users, items=items)


def build_scenario(source, target,
                   cfg,
                   min_overlap_interactions=DEFAULT_MIN_OVERLAP_INTERACTIONS,
                   min_other_interactions=DEFAULT_MIN_OTHER_INTERACTIONS):
    """Filter two domains and carve out the cold-start evaluation split.

    Test users are half (``cfg.test_fraction``) of the filtered overlapping
    users; each must have at least two target interactions so that one can
    be held out for testing and one for validation.  Users failing that are
    skipped and stay available as training overlap.  ``cfg.phi`` of the
    non-test overlap becomes ``train_overlap_users``.  For a fixed seed the
    test split and held-out items do not depend on phi, so scenarios that
    differ only in phi are directly comparable.
    """
    if min_overlap_interactions < 1 or min_other_interactions < 1:
        raise ConfigError("filter thresholds must be >= 1")

    src_adj, tgt_adj = _filter_domains(
        source, target, min_overlap_interactions, min_other_interactions)
    overlap = sorted(set(src_adj) & set(tgt_adj))
    if not overlap:
        raise NoOverlap("no shared users survive filtering")
    if not src_adj or not tgt_adj:
        raise EmptyDataset("a domain is empty after filtering")

    rng = np.random.default_rng(cfg.seed)
    n_test = _round_half_up(cfg.test_fraction * len(overlap))
    perm = rng.permutation(len(overlap))
    candidates = [overlap[k] for k in perm[:n_test]]

    test_users = []
    heldout = {}
    for u in candidates:
        items = sorted(tgt_adj[u])
        if len(items) < 2:
            continue  # not enough target history to hold two items out
        pick = rng.choice(len(items), size=2, replace=False)
        heldout[u] = (items[pick[0]], items[pick[1]])
        test_users.append(u)
    if not test_users:
        raise DegenerateScenario(
            "no candidate test user has two target interactions")
    test_set = set(test_users)

    non_test = [u for u in overlap if u not in test_set]
    n_train = _round_half_up(cfg.phi * len(non_test))
    perm2 = rng.permutation(len(non_test))
    train_overlap = [non_test[k] for k in perm2[:n_train]]

    filtered_source = _rebuild(source, src_adj)
    full_target = _rebuild(target, tgt_adj)
    train_users = [u for u in full_target.user_ids if u not in test_set]
    train_pairs = [(u, i) for u in train_users for i in sorted(tgt_adj[u])]
    target_train = InteractionSet(train_pairs, users=train_users,
                                  items=full_target.item_ids)

    return CrossDomainScenario(
        source=filtered_source,
        target=target_train,
        overlap_users=tuple(sorted(overlap)),
        test_users=tuple(sorted(test_users)),
        train_overlap_users=tuple(sorted(train_overlap)),
        heldout=heldout,
        phi=cfg.phi,
        seed=cfg.seed,
        test_fraction=cfg.test_fraction,
        min_overlap_interactions=min_overlap_interactions,
        min_other_interactions=min_other_interactions,
    )


SOURCE_PREFIX = "s:"
TARGET_PREFIX = "t:"


def build_unified(scenario):
    """Merge both domains into one matrix for single-domain baselines.

    Users are the union; item ids get a domain prefix so the two item sets
    stay disjoint.  Held-out target interactions are absent by construction
    because ``scenario.target`` is already the training view.
    """
    users = list(scenario.source.user_ids)
    seen = set(users)
    for u in scenario.target.user_ids:
        if u not in seen:
            users.append(u)
            seen.add(u)
    items = [SOURCE_PREFIX + i for i in scenario.source.item_ids]
    items += [TARGET_PREFIX + i for i in scenario.target.item_ids]
    pairs = [(u, SOURCE_PREFIX + i) for u, i in scenario.source.pairs()]
    pairs += [(u, TARGET_PREFIX + i) for u, i in scenario.target.pairs()]
    return InteractionSet(pairs, users=users, items=items)


def sample_negatives(interactions, user, exclude, n, rng):
    """Draw ``n`` distinct items the user has not interacted with.

    The pool is the full item universe minus the user's training items and
    the ``exclude`` set.  Users absent from ``interactions`` (e.g. held-out
    test users) simply have no training items.  Raises
    :class:`InsufficientCandidates` when the pool is too small.
    """
    blocked = set(exclude)
    blocked.update(interactions.items_of(user))
    pool = [i for i in interactions.item_ids if i not in blocked]
    if len(pool) < n:
        raise InsufficientCandidates(len(pool), n)
    pick = rng.choice(len(pool), size=n, replace=False)
    return [pool[k] for k in pick]


# -- scenario serialization ---------------------------------------------

_SOURCE_FILE = "source.tsv"
_TARGET_FILE = "target_train.tsv"
_OVERLAP_FILE = "overlap.txt"
_TEST_FILE = "test.tsv"
_META_FILE = "meta.txt"


def write_interactions(path, interactions):
    """Write ``user<TAB>item`` lines, sorted, one per pair."""
    lines = sorted(f"{u}\t{i}\n" for u, i in interactions.pairs())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def save_scenario(scenario, out_dir):
    """Write a scenario as five text files under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    write_interactions(os.path.join(out_dir, _SOURCE_FILE), scenario.source)
    write_interactions(os.path.join(out_dir, _TARGET_FILE), scenario.target)
    with open(os.path.join(out_dir, _OVERLAP_FILE), "w",
              encoding="utf-8") as fh:
        fh.writelines(f"{u}\n" for u in sorted(scenario.overlap_users))
    with open(os.path.join(out_dir, _TEST_FILE), "w",
              encoding="utf-8") as fh:
        for u in sorted(scenario.heldout):
            t, v = scenario.heldout[u]
            fh.write(f"{u}\t{t}\t{v}\n")
    with open(os.path.join(out_dir, _META_FILE), "w",
              encoding="utf-8") as fh:
        fh.write(f"phi={scenario.phi!r}\n")
        fh.write(f"seed={scenario.seed}\n")
        fh.write(f"test_fraction={scenario.test_fraction!r}\n")
        fh.write(f"min_overlap_interactions="
                 f"{scenario.min_overlap_interactions}\n")
        fh.write(f"min_other_interactions="
                 f"{scenario.min_other_interactions}\n")
        fh.write(f"train_overlap_users="
                 f"{','.join(sorted(scenario.train_overlap_users))}\n")


def load_scenario(in_dir):
    """Inverse of :func:`save_scenario`."""
    meta = {}
    with open(os.path.join(in_dir, _META_FILE), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            meta[key] = value
    source = load_interactions(os.path.join(in_dir, _SOURCE_FILE))
    with open(os.path.join(in_dir, _OVERLAP_FILE), encoding="utf-8") as fh:
        overlap = tuple(line.strip() for line in fh if line.strip())
    heldout = {}
    with open(os.path.join(in_dir, _TEST_FILE), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(os.path.join(in_dir, _TEST_FILE),
                                    lineno, "expected user, test, valid")
            heldout[fields[0]] = (fields[1], fields[2])

    train = load_interactions(os.path.join(in_dir, _TARGET_FILE))
    extra = [i for pair in heldout.values() for i in pair]
    items = list(train.item_ids)
    seen = set(items)
    for i in sorted(set(extra)):
        if i not in seen:
            items.append(i)
            seen.add(i)
    target = InteractionSet(train.pairs(), users=train.user_ids, items=items)

    tou = meta.get("train_overlap_users", "")
    return CrossDomainScenario(
        source=source,
        target=target,
        overlap_users=overlap,
        test_users=tuple(sorted(heldout)),
        train_overlap_users=tuple(tou.split(",")) if tou else (),
        heldout=heldout,
        phi=float(meta["phi"]),
        seed=int(meta["seed"]),
        test_fraction=float(meta.get("test_fraction",
                                     DEFAULT_TEST_FRACTION)),
        min_overlap_interactions=int(
            meta.get("min_overlap_interactions",
                     DEFAULT_MIN_OVERLAP_INTERACTIONS)),
        min_other_interactions=int(
            meta.get("min_other_interactions",
                     DEFAULT_MIN_OTHER_INTERACTIONS)),
    )
