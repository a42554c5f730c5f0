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
    return [token] == token.split()


def _round_half_up(x):
    # round() would use banker's rounding; half-up keeps split sizes intuitive
    return int(np.floor(x + 0.5))


def _id_index(ids, kind):
    """First-appearance index of ``ids``, each checked once."""
    index = {}
    for x in ids:
        if x not in index:
            if not _check_id(x):
                raise ValueError(f"bad {kind} id {x!r}")
            index[x] = len(index)
    return index


class InteractionSet:
    """Immutable set of (user, item) pairs with index-level views.

    Users and items keep their first-appearance order, which makes every
    derived array deterministic for a given input sequence.  Duplicate pairs
    collapse.  Items with zero interactions are representable: pass an
    explicit ``items`` universe.  The pairs are stored sorted by (user,
    item) index, with per-user offsets into them (compressed sparse rows).
    """

    __slots__ = ("user_ids", "item_ids", "_uindex", "_iindex",
                 "_pair_u", "_pair_i", "_indptr")

    def __init__(self, pairs, users=None, items=None):
        pairs = list(pairs)
        pair_users, pair_items = zip(*pairs) if pairs else ((), ())
        uindex = _id_index(pair_users if users is None else users, "user")
        iindex = _id_index(pair_items if items is None else items, "item")
        self._init(tuple(uindex), tuple(iindex),
                   [uindex[u] for u in pair_users],
                   [iindex[i] for i in pair_items])

    @classmethod
    def _from_indices(cls, user_ids, item_ids, pair_u, pair_i):
        """The set over ``user_ids`` x ``item_ids`` holding the index pairs
        ``(pair_u[k], pair_i[k])``; ids must be distinct and valid."""
        obj = cls.__new__(cls)
        obj._init(tuple(user_ids), tuple(item_ids), pair_u, pair_i)
        return obj

    def _init(self, user_ids, item_ids, pair_u, pair_i):
        self.user_ids = user_ids
        self.item_ids = item_ids
        self._uindex = {u: k for k, u in enumerate(user_ids)}
        self._iindex = {i: k for k, i in enumerate(item_ids)}
        n_items = max(len(item_ids), 1)
        codes = np.unique(np.asarray(pair_u, dtype=np.int64) * n_items
                          + np.asarray(pair_i, dtype=np.int64))
        self._pair_u, self._pair_i = np.divmod(codes, n_items)
        self._indptr = np.searchsorted(self._pair_u,
                                       np.arange(len(user_ids) + 1))
        for a in (self._pair_u, self._pair_i, self._indptr):
            a.setflags(write=False)

    # -- sizes ---------------------------------------------------------

    @property
    def n_users(self):
        return len(self.user_ids)

    @property
    def n_items(self):
        return len(self.item_ids)

    @property
    def n_interactions(self):
        return int(self._pair_i.shape[0])

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
        items = self.item_neighbors(u)
        k = np.searchsorted(items, i)
        return k < items.shape[0] and items[k] == i

    def items_of(self, user):
        """Item ids interacted with by ``user`` (empty for unknown users)."""
        u = self._uindex.get(user)
        if u is None:
            return ()
        return tuple(self.item_ids[i] for i in self.item_neighbors(u))

    def users_of(self, item):
        i = self._iindex.get(item)
        if i is None:
            return ()
        return tuple(self.user_ids[u] for u in self.user_neighbors(i))

    # -- index-level access (for the numeric code) ----------------------

    def pair_arrays(self):
        """(user_idx, item_idx) arrays sorted by (user, item)."""
        return self._pair_u, self._pair_i

    def item_neighbors(self, u_idx):
        return self._pair_i[self._indptr[u_idx]:self._indptr[u_idx + 1]]

    def user_neighbors(self, i_idx):
        return self._pair_u[self._pair_i == i_idx]

    def user_degrees(self):
        return np.diff(self._indptr)

    def item_degrees(self):
        return np.bincount(self._pair_i, minlength=self.n_items)

    def pairs(self):
        """All (user_id, item_id) pairs sorted by (user, item) index."""
        return [(self.user_ids[u], self.item_ids[i])
                for u, i in zip(self._pair_u, self._pair_i)]

    def _subset(self, user_mask, pair_mask, item_mask):
        """The users, items and pairs the boolean masks keep, in their
        original order; kept pairs must join kept users and items."""
        def pick(ids, mask):
            return [ids[k] for k in np.flatnonzero(mask)]
        return InteractionSet._from_indices(
            pick(self.user_ids, user_mask), pick(self.item_ids, item_mask),
            (np.cumsum(user_mask) - 1)[self._pair_u[pair_mask]],
            (np.cumsum(item_mask) - 1)[self._pair_i[pair_mask]])


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
    are monotone, so the fixed point is unique.  Returns the source and
    target masks of surviving users and of surviving pairs, and the target
    indices of the users that survive in both domains.
    """
    # the users in both domains, as aligned target and source indices
    sh_t = np.array([k for k, u in enumerate(target.user_ids)
                     if source.has_user(u)], dtype=np.int64)
    sh_s = np.array([source.user_index(target.user_ids[k]) for k in sh_t],
                    dtype=np.int64)
    src_alive = np.ones(source.n_users, bool)
    tgt_alive = np.ones(target.n_users, bool)
    domains = ((source, src_alive, np.ones(source.n_interactions, bool)),
               (target, tgt_alive, np.ones(target.n_interactions, bool)))

    changed = True
    while changed:
        src_deg, tgt_deg = (np.bincount(d._pair_u[keep], minlength=d.n_users)
                            for d, _, keep in domains)
        both = tgt_alive[sh_t] & src_alive[sh_s]
        thin = ((tgt_deg[sh_t] < min_overlap)
                | (src_deg[sh_s] < min_overlap))[both]
        drop_s = src_alive & (src_deg < min_other)
        drop_s[sh_s[both]] = thin
        drop_t = tgt_alive & (tgt_deg < min_other)
        drop_t[sh_t[both]] = thin
        changed = bool(drop_s.any() or drop_t.any())
        src_alive &= ~drop_s
        tgt_alive &= ~drop_t
        for d, alive, keep in domains:
            keep &= alive[d._pair_u]
            counts = np.bincount(d._pair_i[keep], minlength=d.n_items)
            bad = (counts > 0) & (counts < min_other)
            if bad.any():
                keep &= ~bad[d._pair_i]
                changed = True
    (_, _, src_keep), (_, _, tgt_keep) = domains
    return src_alive, src_keep, tgt_alive, tgt_keep, sh_t[both]


def _used_items(interactions, pair_mask):
    return np.bincount(interactions._pair_i[pair_mask],
                       minlength=interactions.n_items) > 0


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

    src_alive, src_keep, tgt_alive, tgt_keep, shared = _filter_domains(
        source, target, min_overlap_interactions, min_other_interactions)
    overlap = sorted(target.user_ids[k] for k in shared)
    if not overlap:
        raise NoOverlap("no shared users survive filtering")
    if not src_alive.any() or not tgt_alive.any():
        raise EmptyDataset("a domain is empty after filtering")

    rng = np.random.default_rng(cfg.seed)
    n_test = _round_half_up(cfg.test_fraction * len(overlap))
    perm = rng.permutation(len(overlap))
    candidates = [overlap[k] for k in perm[:n_test]]

    test_mask = np.zeros(target.n_users, bool)
    heldout = {}
    for u in candidates:
        t = target.user_index(u)
        lo, hi = target._indptr[t:t + 2]
        items = sorted(target.item_ids[i] for i in
                       target._pair_i[lo:hi][tgt_keep[lo:hi]])
        if len(items) < 2:
            continue  # not enough target history to hold two items out
        pick = rng.choice(len(items), size=2, replace=False)
        heldout[u] = (items[pick[0]], items[pick[1]])
        test_mask[t] = True
    if not heldout:
        raise DegenerateScenario(
            "no candidate test user has two target interactions")

    non_test = [u for u in overlap if u not in heldout]
    n_train = _round_half_up(cfg.phi * len(non_test))
    perm2 = rng.permutation(len(non_test))
    train_overlap = [non_test[k] for k in perm2[:n_train]]

    filtered_source = source._subset(src_alive, src_keep,
                                     _used_items(source, src_keep))
    # the training view drops the test users but keeps every filtered item
    target_train = target._subset(
        tgt_alive & ~test_mask, tgt_keep & ~test_mask[target._pair_u],
        _used_items(target, tgt_keep))

    return CrossDomainScenario(
        source=filtered_source,
        target=target_train,
        overlap_users=tuple(overlap),
        test_users=tuple(sorted(heldout)),
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
    source, target = scenario.source, scenario.target
    users = source.user_ids + tuple(u for u in target.user_ids
                                    if not source.has_user(u))
    unified = {u: k for k, u in enumerate(users)}
    t2unified = np.array([unified[u] for u in target.user_ids],
                         dtype=np.int64)
    items = [SOURCE_PREFIX + i for i in source.item_ids]
    items += [TARGET_PREFIX + i for i in target.item_ids]
    return InteractionSet._from_indices(
        users, items,
        np.concatenate([source._pair_u, t2unified[target._pair_u]]),
        np.concatenate([source._pair_i, source.n_items + target._pair_i]))


def sample_negatives(interactions, user, exclude, n, rng):
    """Draw ``n`` distinct items the user has not interacted with.

    The pool is the full item universe minus the user's training items and
    the ``exclude`` set.  Users absent from ``interactions`` (e.g. held-out
    test users) simply have no training items.  Raises
    :class:`InsufficientCandidates` when the pool is too small.
    """
    pool = np.ones(interactions.n_items, bool)
    if interactions.has_user(user):
        pool[interactions.item_neighbors(interactions.user_index(user))] = \
            False
    pool[[interactions.item_index(i) for i in exclude
          if interactions.has_item(i)]] = False
    pool = np.flatnonzero(pool)
    if pool.shape[0] < n:
        raise InsufficientCandidates(pool.shape[0], n)
    pick = rng.choice(pool.shape[0], size=n, replace=False)
    return [interactions.item_ids[k] for k in pool[pick]]


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
    # held-out items the training pairs never touch join the universe
    extra = {i for pair in heldout.values() for i in pair
             if not train.has_item(i)}
    target = InteractionSet._from_indices(
        train.user_ids, train.item_ids + tuple(sorted(extra)),
        *train.pair_arrays())

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
