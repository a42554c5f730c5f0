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
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateScenario,
    EmptyDataset,
    IndexMismatch,
    MalformedLine,
    NoOverlap,
)


def _check_id(token):
    # ids go into whitespace-delimited text, where "#" starts a comment
    return [token] == token.split() and token[0] != "#"


def _round_half_up(x):
    # round() would use banker's rounding; half-up keeps split sizes intuitive
    return int(np.floor(x + 0.5))


def _id_index(ids, kind):
    """First-appearance index of ``ids``, each distinct id checked once."""
    index = dict.fromkeys(ids)
    for x in index:
        if not _check_id(x):
            raise DataError(f"bad {kind} id {x!r}")
    return dict(zip(index, range(len(index))))


def id_keys(ids):
    """Each id's position in Python's sorted order of ``ids``: integer tie
    keys that order like the id strings themselves."""
    return np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


def id_rows(index, ids, prefix=""):
    """``index(prefix + id)`` of every id as an int64 array: how a saved
    space lines up with scenario ids, whatever its row order.  The first
    id ``index`` lacks raises :class:`IndexMismatch`."""
    try:
        return np.array([index(prefix + x) for x in ids], dtype=np.int64)
    except KeyError as exc:
        raise IndexMismatch(f"no row for id {exc.args[0]!r}") from None


class IdLookup:
    """Users and items by id: ``user_ids`` and ``item_ids`` in row order,
    and their id -> row dicts, each built on first use unless set.  A
    repeated id fails the build with a :class:`DataError` naming it."""

    __slots__ = ("user_ids", "item_ids", "_uindex", "_iindex")

    def __getattr__(self, name):
        if name not in ("_uindex", "_iindex"):
            raise AttributeError(f"no attribute {name!r}")
        kind = "user" if name == "_uindex" else "item"
        ids = getattr(self, f"{kind}_ids")
        index = dict(zip(ids, range(len(ids))))
        if len(index) < len(ids):
            dup = next(x for k, x in enumerate(ids) if index[x] != k)
            raise DataError(f"repeated {kind} id {dup!r}")
        setattr(self, name, index)
        return index

    def has_user(self, user):
        return user in self._uindex

    def user_index(self, user):
        return self._uindex[user]

    def item_index(self, item):
        return self._iindex[item]


class InteractionSet(IdLookup):
    """Immutable set of (user, item) pairs with index-level views.

    Users and items keep their first-appearance order, which makes every
    derived array deterministic for a given input sequence.  Duplicate pairs
    collapse.  Items with zero interactions are representable: pass an
    explicit ``items`` universe.  The pairs are stored sorted by (user,
    item) index, with per-user offsets into them (compressed sparse rows).
    """

    __slots__ = ("_pair_u", "_pair_i", "_indptr")

    def __init__(self, pairs, users=None, items=None):
        pair_users, pair_items = list(zip(*pairs)) or ((), ())
        uindex = _id_index(pair_users if users is None else users, "user")
        iindex = _id_index(pair_items if items is None else items, "item")
        self._init(uindex, iindex, list(map(uindex.__getitem__, pair_users)),
                   list(map(iindex.__getitem__, pair_items)))
        self._uindex, self._iindex = uindex, iindex

    @classmethod
    def _from_indices(cls, user_ids, item_ids, pair_u, pair_i):
        """The set over ``user_ids`` x ``item_ids`` holding the index pairs
        ``(pair_u[k], pair_i[k])``; ids must be distinct and valid."""
        obj = cls.__new__(cls)
        obj._init(user_ids, item_ids, pair_u, pair_i)
        return obj

    def _init(self, user_ids, item_ids, pair_u, pair_i):
        self.user_ids, self.item_ids = tuple(user_ids), tuple(item_ids)
        n_items = max(len(self.item_ids), 1)
        codes = np.sort(np.asarray(pair_u, dtype=np.int64) * n_items
                        + np.asarray(pair_i, dtype=np.int64))
        # np.unique hashes before it sorts; deduping sorted codes is faster
        codes = codes[np.diff(codes, prepend=-1) > 0]
        self._pair_u, self._pair_i = np.divmod(codes, n_items)
        self._indptr = np.searchsorted(self._pair_u,
                                       np.arange(len(self.user_ids) + 1))
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

    # -- index-level access (for the numeric code) ----------------------

    def pair_arrays(self):
        """(user_idx, item_idx) arrays sorted by (user, item)."""
        return self._pair_u, self._pair_i

    def item_neighbors(self, u_idx):
        return self._pair_i[self._indptr[u_idx]:self._indptr[u_idx + 1]]

    def user_degrees(self):
        return np.diff(self._indptr)

    def item_degrees(self):
        return np.bincount(self._pair_i, minlength=self.n_items)

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
    """How a scenario is built: ``meta.txt``'s settings, in file order."""

    phi: float = 1.0
    seed: int = 0
    test_fraction: float = 0.5
    min_overlap_interactions: int = 10
    min_other_interactions: int = 20

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0.0 < self.phi <= 1.0:
            raise ConfigError(f"phi must be in (0, 1], got {self.phi}")
        if min(self.min_overlap_interactions, self.min_other_interactions) < 1:
            raise ConfigError("filter thresholds must be >= 1")


@dataclass(frozen=True)
class CrossDomainScenario:
    """A filtered source domain plus a target domain split for evaluation.

    ``target`` contains only training interactions: test users and all of
    their pairs are removed from it, but the full filtered item universe is
    kept so every candidate item stays addressable.  ``heldout`` maps each
    test user to its (test_item, valid_item) pair in the target domain,
    and ``split`` holds the settings the scenario was built with.  Derived
    from these, each sorted: ``test_users``, the ``heldout`` users, and
    ``overlap_users``, the test users and the users in both domains.
    """

    source: InteractionSet
    target: InteractionSet
    train_overlap_users: tuple
    heldout: dict
    split: SplitSeedConfig

    @cached_property
    def test_users(self):
        return tuple(sorted(self.heldout))

    @cached_property
    def overlap_users(self):
        both = set(self.source.user_ids).intersection(self.target.user_ids)
        return tuple(sorted(both.union(self.heldout)))


def _field_codes(code, starts, stops):
    """Codes of the fields ``code[starts[k] + 1:stops[k]]`` by first
    appearance, and the distinct fields decoded in that order.  Fields sort
    a width at a time (as an integer up to 8 bytes): memory follows bytes."""
    width = stops - starts - 1
    counts = np.bincount(width)
    by_width = np.argsort(width, kind="stable").astype(starts.dtype)
    group, firsts, ids = np.empty_like(by_width), [], []
    del width
    for w, hi in zip(np.flatnonzero(counts), np.cumsum(counts[counts > 0])):
        rows = by_width[hi - counts[w]:hi]
        keys = np.lib.stride_tricks.sliding_window_view(code[1:], w)[
            starts[rows]]
        keys = (keys.view(f"S{w}") if w > 8 else
                np.pad(keys, ((0, 0), (0, 8 - w))).view(np.uint64)).ravel()
        order = np.argsort(keys)
        keys.sort()  # keys[order], without a third array
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        keys = keys[new]  # the sorted copy goes before rows[order] comes
        rows = rows[order]
        del order
        group[rows] = np.cumsum(new, dtype=group.dtype) + (len(ids) - 1)
        firsts.append(np.minimum.reduceat(rows, np.flatnonzero(new)))
        del rows
        # the distinct fields, each ending in a TAB, decoded at once
        keys = keys.view(np.uint8).reshape(keys.shape[0], -1)[:, :w]
        ids += np.pad(keys, ((0, 0), (0, 1)), constant_values=9).tobytes(
            ).decode("utf-8").split("\t")[:-1]
    del by_width
    order = np.argsort(np.concatenate(firsts))
    return (np.argsort(order).astype(np.min_scalar_type(len(ids)))[group],
            [ids[k] for k in order])


def read_lines(path, error):
    """``(lineno, line)`` of ``path``; non-UTF-8 raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None


def _load_lines(path):
    """``path`` parsed one line at a time, as :func:`load_interactions`."""
    pairs = []
    for lineno, line in read_lines(path, DataError):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise MalformedLine(path, lineno, "expected user<TAB>item")
        if not _check_id(fields[0]) or not _check_id(fields[1]):
            raise MalformedLine(path, lineno, f"bad id in {fields[:2]!r}")
        pairs.append(fields[:2])
    if not pairs:
        raise EmptyDataset(f"no interactions in {path}")
    return InteractionSet(pairs)


def load_interactions(path):
    """Parse a ``user<TAB>item`` file into an :class:`InteractionSet`.

    Lines starting with ``#`` and blank lines are skipped.  Extra fields
    after the second are ignored.  Raises :class:`MalformedLine` on rows
    that do not carry two usable ids, :class:`EmptyDataset` if nothing is
    left.  Plain files (``user<TAB>item<LF>`` lines, no ``#``, NUL or CR)
    are parsed as bytes, decoding each distinct id once; others as text.
    """
    with open(path, "rb") as fh:
        raw = b"\n" + fh.read()  # so that every line follows an LF
    code = np.frombuffer(raw, np.uint8)
    # the added LF, then a TAB and an LF per line; int32 below 2 GiB
    seps = np.flatnonzero((code == 9) | (code == 10)).astype(
        np.int64 if code.shape[0] >> 31 else np.int32)
    if (any(c in raw for c in (b"#", b"\0", b"\r")) or not raw.endswith(b"\n")
            or seps.shape[0] < 3 or (code[seps[::2]] != 10).any()
            or (code[seps[1::2]] != 9).any() or np.diff(seps).min() < 2):
        return _load_lines(path)  # not one user<TAB>item<LF> per line
    try:
        pair_u, users = _field_codes(code, seps[:-1:2], seps[1::2])
        pair_i, items = _field_codes(code, seps[1::2], seps[2::2])
    except UnicodeDecodeError:
        return _load_lines(path)
    del raw, code, seps  # parsed: free the text before the set is built
    if any("\t".join(ids).split() != ids for ids in (users, items)):
        return _load_lines(path)  # a bad id: the line rules tell which line
    return InteractionSet._from_indices(users, items, pair_u, pair_i)


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


def build_scenario(source, target, cfg):
    """Filter two domains and carve out the cold-start evaluation split.

    Test users are half (``cfg.test_fraction``) of the filtered overlapping
    users; each must have at least two target interactions so that one can
    be held out for testing and one for validation.  Users failing that are
    skipped and stay available as training overlap.  ``cfg.phi`` of the
    non-test overlap becomes ``train_overlap_users``.  For a fixed seed the
    test split and held-out items do not depend on phi, so scenarios that
    differ only in phi are directly comparable.
    """
    src_alive, src_keep, tgt_alive, tgt_keep, shared = _filter_domains(
        source, target, cfg.min_overlap_interactions,
        cfg.min_other_interactions)
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
        source=filtered_source, target=target_train,
        train_overlap_users=tuple(sorted(train_overlap)), heldout=heldout,
        split=cfg)


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


# -- scenario serialization ---------------------------------------------

_SOURCE_FILE = "source.tsv"
_TARGET_FILE = "target_train.tsv"
_TEST_FILE = "test.tsv"
_META_FILE = "meta.txt"


def _ids(text):
    return tuple(text.split(",")) if text else ()


# every meta.txt key in file order, with its parser
_META = {**{f.name: type(f.default) for f in fields(SplitSeedConfig)},
         "train_overlap_users": _ids}


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_interactions(path, interactions):
    """Write ``user<TAB>item`` lines, sorted, one per pair.  Ids hold no
    TAB or LF, so ordering pairs by ``user + TAB``, then ``item + LF``,
    sorts whole lines; they are joined from the ids in blocks."""
    pair_u, pair_i = interactions.pair_arrays()
    users = np.array([u + "\t" for u in interactions.user_ids], object)
    items = np.array([i + "\n" for i in interactions.item_ids], object)
    order = np.argsort(id_keys(users)[pair_u] * len(items)
                       + id_keys(items)[pair_i])
    blocks = np.split(order, range(4096, len(order), 4096))
    _write_lines(path, ("".join(np.stack((users[pair_u[r]], items[pair_i[r]]),
                                         1).ravel().tolist()) for r in blocks))


def save_scenario(scenario, out_dir):
    """Write a scenario as four text files under ``out_dir``: the two
    domains, the held-out triples and ``meta.txt``."""
    os.makedirs(out_dir, exist_ok=True)
    write_interactions(os.path.join(out_dir, _SOURCE_FILE), scenario.source)
    write_interactions(os.path.join(out_dir, _TARGET_FILE), scenario.target)
    _write_lines(os.path.join(out_dir, _TEST_FILE),
                 (f"{u}\t{t}\t{v}\n"
                  for u, (t, v) in sorted(scenario.heldout.items())))
    users = ",".join(sorted(scenario.train_overlap_users))
    meta = {**asdict(scenario.split), "train_overlap_users": users}
    _write_lines(os.path.join(out_dir, _META_FILE),
                 (f"{key}={v}\n" for key, v in meta.items()))


def read_key_values(path, error):
    """Flat UTF-8 ``key=value`` file, ``#`` comments allowed, each key once;
    breaking a rule raises ``error`` naming ``path`` (and the line)."""
    out = {}
    for lineno, line in read_lines(path, error):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise error(f"{path}:{lineno}: expected key=value")
        if key in out:
            raise error(f"{path}:{lineno}: key {key!r} is set twice")
        out[key] = value.strip()
    return out


def load_meta(in_dir):
    """The checked :class:`SplitSeedConfig` and the train-overlap users in
    ``in_dir``'s ``meta.txt``; any fault is a :class:`DataError`."""
    meta_path = os.path.join(in_dir, _META_FILE)
    meta = read_key_values(meta_path, DataError)
    for key in meta:
        if key not in _META:
            raise DataError(f"{meta_path}: unknown key {key!r}")
    parsed = {}
    for key, parse in _META.items():
        if key not in meta:
            raise DataError(f"{meta_path}: missing key {key}")
        try:
            parsed[key] = parse(meta[key])
        except ValueError as exc:
            raise DataError(f"{meta_path}: bad value {meta[key]!r} for key "
                            f"{key}") from exc
    train_overlap = parsed.pop("train_overlap_users")
    try:
        return SplitSeedConfig(**parsed), train_overlap
    except ConfigError as exc:
        raise DataError(f"{meta_path}: {exc}") from exc


def load_scenario(in_dir):
    """Inverse of :func:`save_scenario`; any other file in ``in_dir`` is
    ignored.  Test users must be source users with no target training
    pairs, and train-overlap users distinct non-test users with pairs in
    both domains (else ``DataError``)."""
    split, train_overlap = load_meta(in_dir)
    source_path = os.path.join(in_dir, _SOURCE_FILE)
    source = load_interactions(source_path)
    heldout = {}
    test_path = os.path.join(in_dir, _TEST_FILE)
    for lineno, line in read_lines(test_path, DataError):
        fields = line.rstrip("\n").split("\t")
        if fields == [""]:
            continue
        if (len(fields) != 3 or not all(map(_check_id, fields))
                or fields[0] in heldout or fields[1] == fields[2]):
            raise MalformedLine(test_path, lineno, "expected a new user "
                                f"and two distinct items, got {fields!r}")
        heldout[fields[0]] = (fields[1], fields[2])
    if not heldout:
        raise DegenerateScenario(f"{test_path}: no test users")
    sourceless = set(heldout).difference(source.user_ids)
    if sourceless:
        raise DataError(f"{source_path}: lacks test user {min(sourceless)!r}")

    target_path = os.path.join(in_dir, _TARGET_FILE)
    train = load_interactions(target_path)
    leaked = set(heldout).intersection(train.user_ids)
    if leaked:
        raise DataError(f"{target_path}: test user {min(leaked)!r} has "
                        "training pairs")
    linked, ordered = set(train_overlap), sorted(train_overlap)
    for bad, why in (
            ({a for a, b in zip(ordered, ordered[1:]) if a == b},
             "is repeated"),
            (linked.intersection(heldout), "is a test user"),
            (linked.difference(source.user_ids),
             f"has no pairs in {_SOURCE_FILE}"),
            (linked.difference(train.user_ids),
             f"has no pairs in {_TARGET_FILE}")):
        if bad:
            raise DataError(f"{os.path.join(in_dir, _META_FILE)}: "
                            f"train-overlap user {min(bad)!r} {why}")
    # held-out items the training pairs never touch join the universe
    extra = {i for p in heldout.values() for i in p}.difference(train.item_ids)
    target = InteractionSet._from_indices(
        train.user_ids, train.item_ids + tuple(sorted(extra)),
        *train.pair_arrays())
    return CrossDomainScenario(source=source, target=target,
                               train_overlap_users=train_overlap,
                               heldout=heldout, split=split)
