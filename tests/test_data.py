import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrec import data
from crossrec.data import (
    CrossDomainScenario,
    InteractionSet,
    SplitSeedConfig,
    build_scenario,
    build_unified,
    load_interactions,
    load_scenario,
    sample_negatives,
    save_scenario,
)
from crossrec.errors import (
    ConfigError,
    DegenerateScenario,
    EmptyDataset,
    InsufficientCandidates,
    MalformedLine,
    NoOverlap,
)


# -- InteractionSet ------------------------------------------------------

def test_interaction_set_basics():
    s = InteractionSet([("a", "x"), ("a", "y"), ("b", "x"), ("a", "x")])
    assert s.n_users == 2
    assert s.n_items == 2
    assert s.n_interactions == 3  # duplicate collapsed
    assert s.items_of("a") == ("x", "y")
    assert s.items_of("b") == ("x",)
    assert s.users_of("x") == ("a", "b")
    assert s.has_pair("a", "y")
    assert not s.has_pair("b", "y")
    assert s.items_of("nobody") == ()


def test_interaction_set_explicit_universe_keeps_zero_degree_items():
    s = InteractionSet([("a", "x")], items=["x", "y", "z"])
    assert s.n_items == 3
    assert s.users_of("z") == ()
    assert list(s.item_degrees()) == [1, 0, 0]


def test_interaction_set_rejects_whitespace_ids():
    with pytest.raises(ValueError):
        InteractionSet([("a b", "x")])
    with pytest.raises(ValueError):
        InteractionSet([("a", "x\ty")])
    with pytest.raises(ValueError):
        InteractionSet([("a\u2003b", "x")])  # em space
    with pytest.raises(ValueError):
        InteractionSet([("a", "x\x1cy")])  # file separator


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                max_size=60))
def test_interaction_set_adjacency_is_exact_inverse(raw):
    pairs = [(f"u{a}", f"i{b}") for a, b in raw]
    s = InteractionSet(pairs)
    forward = {(u, i) for u in s.user_ids for i in s.items_of(u)}
    backward = {(u, i) for i in s.item_ids for u in s.users_of(i)}
    assert forward == backward == set(pairs)
    assert s.n_interactions == len(set(pairs))
    pu, pi = s.pair_arrays()
    assert int(s.user_degrees().sum()) == len(set(pairs))
    assert int(s.item_degrees().sum()) == len(set(pairs))
    assert pu.shape == pi.shape


# -- load_interactions ---------------------------------------------------

def test_load_interactions_parses_comments_blanks_and_extras(tmp_path):
    p = tmp_path / "inter.tsv"
    p.write_text("# header comment\n"
                 "u1\ti1\n"
                 "\n"
                 "u1\ti2\textra\tfields\n"
                 "u2\ti1\n")
    s = load_interactions(p)
    assert s.n_interactions == 3
    assert s.items_of("u1") == ("i1", "i2")


def test_load_interactions_malformed_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("u1\ti1\njusttoken\n")
    with pytest.raises(MalformedLine) as exc:
        load_interactions(p)
    assert exc.value.lineno == 2


def test_load_interactions_rejects_id_with_space(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("user one\ti1\n")
    with pytest.raises(MalformedLine):
        load_interactions(p)
    p.write_text("u1\ti\u00a01\n", encoding="utf-8")  # no-break space
    with pytest.raises(MalformedLine):
        load_interactions(p)


def test_load_interactions_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("# nothing but comments\n\n")
    with pytest.raises(EmptyDataset):
        load_interactions(p)


# -- build_scenario ------------------------------------------------------

def _dense_domain(users, items):
    return [(u, i) for u in users for i in items]


def _filter_toy():
    """24 healthy overlap users plus one thin overlap user and one thin
    source-only user, against 20 items per domain."""
    good = [f"gu{k:02d}" for k in range(24)]
    s_items = [f"si{k:02d}" for k in range(20)]
    t_items = [f"ti{k:02d}" for k in range(20)]
    src = _dense_domain(good, s_items)
    tgt = _dense_domain(good, t_items)
    # overlap user with only nine source interactions
    src += [("ubad", i) for i in s_items[:9]]
    tgt += [("ubad", i) for i in t_items[:12]]
    # source-only user with nineteen interactions
    src += [("u19", i) for i in s_items[:19]]
    # source-only and target-only users with twenty
    src += [("u20ok", i) for i in s_items]
    tgt += [("tuok", i) for i in t_items]
    return InteractionSet(src), InteractionSet(tgt)


def test_filtering_drops_thin_users():
    source, target = _filter_toy()
    scen = build_scenario(source, target, SplitSeedConfig(seed=7))
    # nine source interactions: below the overlap threshold of ten,
    # removed from both domains
    assert "ubad" not in scen.overlap_users
    assert "ubad" not in scen.source.user_ids
    assert "ubad" not in scen.target.user_ids
    # nineteen interactions: below the non-overlap threshold of twenty
    assert "u19" not in scen.source.user_ids
    assert "u20ok" in scen.source.user_ids
    assert "tuok" in scen.target.user_ids
    assert scen.overlap_users == tuple(sorted(f"gu{k:02d}"
                                              for k in range(24)))
    # filtering reached a fixed point
    assert min(scen.source.user_degrees()) >= 1
    assert min(scen.source.item_degrees()) >= 20


def _reference_filter(source, target, min_overlap, min_other):
    """The dict-of-sets fixed point the index-level filter must reach."""
    src = {u: set(source.items_of(u)) for u in source.user_ids}
    tgt = {u: set(target.items_of(u)) for u in target.user_ids}
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
            counts = {}
            for items in adj.values():
                for i in items:
                    counts[i] = counts.get(i, 0) + 1
            bad = {i for i, c in counts.items() if c < min_other}
            for u in adj:
                if adj[u] & bad:
                    adj[u] -= bad
                    changed = True
    return src, tgt


_pairs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7)),
                  max_size=70)


@settings(max_examples=80, deadline=None)
@given(_pairs, _pairs, st.integers(1, 4), st.integers(1, 4))
def test_filter_matches_set_reference(raw_s, raw_t, min_overlap, min_other):
    # users 0-11 in both id spaces, so some of them overlap
    source = InteractionSet([(f"u{a}", f"s{b}") for a, b in raw_s])
    target = InteractionSet([(f"u{a}", f"t{b}") for a, b in raw_t])
    src_alive, src_keep, tgt_alive, tgt_keep, overlap = \
        data._filter_domains(source, target, min_overlap, min_other)

    def as_sets(inter, alive, keep):
        pu, pi = inter.pair_arrays()
        return {inter.user_ids[u]: {inter.item_ids[i]
                                    for i in pi[keep & (pu == u)]}
                for u in np.flatnonzero(alive)}

    want_src, want_tgt = _reference_filter(source, target, min_overlap,
                                           min_other)
    assert as_sets(source, src_alive, src_keep) == want_src
    assert as_sets(target, tgt_alive, tgt_keep) == want_tgt
    assert {target.user_ids[k] for k in overlap} == \
        set(want_src) & set(want_tgt)


def test_split_sizes_with_two_hundred_overlap_users():
    users = [f"u{k:03d}" for k in range(200)]
    s_items = [f"si{k:02d}" for k in range(60)]
    t_items = [f"ti{k:02d}" for k in range(60)]
    src = [(u, s_items[(k + j) % 60]) for k, u in enumerate(users)
           for j in range(12)]
    tgt = [(u, t_items[(k + j) % 60]) for k, u in enumerate(users)
           for j in range(12)]
    scen = build_scenario(InteractionSet(src), InteractionSet(tgt),
                          SplitSeedConfig(seed=3, phi=0.10))
    assert len(scen.overlap_users) == 200
    assert len(scen.test_users) == 100
    assert len(scen.train_overlap_users) == 10
    # partition properties
    assert not set(scen.test_users) & set(scen.train_overlap_users)
    assert set(scen.test_users) <= set(scen.overlap_users)
    assert set(scen.train_overlap_users) <= set(scen.overlap_users)


def test_phi_only_truncates_the_train_overlap_selection():
    source, target = _filter_toy()
    lo = build_scenario(source, target, SplitSeedConfig(seed=5, phi=0.25))
    hi = build_scenario(source, target, SplitSeedConfig(seed=5, phi=1.0))
    assert lo.test_users == hi.test_users
    assert lo.heldout == hi.heldout
    assert set(lo.train_overlap_users) <= set(hi.train_overlap_users)
    non_test = len(lo.overlap_users) - len(lo.test_users)
    assert len(lo.train_overlap_users) == round(0.25 * non_test)
    assert len(hi.train_overlap_users) == non_test


def test_heldout_items_come_from_the_users_target_history():
    source, target = _filter_toy()
    scen = build_scenario(source, target, SplitSeedConfig(seed=11))
    for u in scen.test_users:
        t, v = scen.heldout[u]
        assert t != v
        assert target.has_pair(u, t)
        assert target.has_pair(u, v)
        # the training view never contains a test user
        assert not scen.target.has_user(u)


def test_no_overlap_raises():
    src = InteractionSet(_dense_domain([f"a{k}" for k in range(25)],
                                       [f"x{k}" for k in range(20)]))
    tgt = InteractionSet(_dense_domain([f"b{k}" for k in range(25)],
                                       [f"y{k}" for k in range(20)]))
    with pytest.raises(NoOverlap):
        build_scenario(src, tgt, SplitSeedConfig(seed=0))


def test_degenerate_when_no_test_user_has_two_target_items():
    users = [f"u{k:02d}" for k in range(30)]
    s_items = [f"si{k}" for k in range(10)]
    src = _dense_domain(users, s_items)
    # every user has exactly one target interaction
    t_items = [f"ti{k}" for k in range(3)]
    tgt = [(u, t_items[k % 3]) for k, u in enumerate(users)]
    with pytest.raises(DegenerateScenario):
        build_scenario(InteractionSet(src), InteractionSet(tgt),
                       SplitSeedConfig(seed=1),
                       min_overlap_interactions=1,
                       min_other_interactions=1)


def test_split_config_validation():
    with pytest.raises(ConfigError):
        SplitSeedConfig(seed=0, test_fraction=0.0)
    with pytest.raises(ConfigError):
        SplitSeedConfig(seed=0, phi=0.0)
    with pytest.raises(ConfigError):
        build_scenario(InteractionSet([("a", "b")]),
                       InteractionSet([("a", "c")]),
                       SplitSeedConfig(seed=0),
                       min_overlap_interactions=0)


# -- build_unified -------------------------------------------------------

def test_build_unified_counts_and_prefixes():
    source, target = _filter_toy()
    scen = build_scenario(source, target, SplitSeedConfig(seed=7))
    unified = build_unified(scen)
    expect_users = set(scen.source.user_ids) | set(scen.target.user_ids)
    assert set(unified.user_ids) == expect_users
    assert unified.n_items == scen.source.n_items + scen.target.n_items
    assert unified.n_interactions == (scen.source.n_interactions
                                      + scen.target.n_interactions)
    for u in scen.test_users:
        t, v = scen.heldout[u]
        assert not unified.has_pair(u, "t:" + t)
        assert not unified.has_pair(u, "t:" + v)
    sample_user = scen.overlap_users[0]
    for i in scen.source.items_of(sample_user):
        assert unified.has_pair(sample_user, "s:" + i)


# -- sample_negatives ----------------------------------------------------

def test_sample_negatives_avoids_history_and_exclusions():
    items = [f"i{k:02d}" for k in range(30)]
    s = InteractionSet([("u", i) for i in items[:5]], items=items)
    rng = np.random.default_rng(0)
    negs = sample_negatives(s, "u", {"i10", "i11"}, 20, rng)
    assert len(negs) == len(set(negs)) == 20
    assert not set(negs) & set(items[:5])
    assert not set(negs) & {"i10", "i11"}


def test_sample_negatives_unknown_user_uses_full_pool():
    items = [f"i{k}" for k in range(10)]
    s = InteractionSet([("u", items[0])], items=items)
    rng = np.random.default_rng(1)
    negs = sample_negatives(s, "ghost", {items[1]}, 9, rng)
    assert set(negs) == set(items) - {items[1]}


def test_sample_negatives_insufficient_pool():
    items = [f"i{k}" for k in range(10)]
    s = InteractionSet([("u", i) for i in items[:4]], items=items)
    rng = np.random.default_rng(2)
    with pytest.raises(InsufficientCandidates):
        sample_negatives(s, "u", {"i5"}, 6, rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 2 ** 32 - 1))
def test_sample_negatives_matches_the_list_pool(n_seen, seed):
    items = [f"i{k:02d}" for k in range(40)]
    s = InteractionSet([("u", i) for i in items[:n_seen:2]], items=items)
    exclude = {"i05", "i33", "absent"}
    blocked = exclude | set(s.items_of("u"))
    pool = [i for i in items if i not in blocked]
    pick = np.random.default_rng(seed).choice(len(pool), size=5,
                                              replace=False)
    assert sample_negatives(s, "u", exclude, 5,
                            np.random.default_rng(seed)) == \
        [pool[k] for k in pick]


def test_sample_negatives_deterministic_per_stream():
    items = [f"i{k:03d}" for k in range(50)]
    s = InteractionSet([("u", items[0])], items=items)
    a = sample_negatives(s, "u", set(), 30, np.random.default_rng(9))
    b = sample_negatives(s, "u", set(), 30, np.random.default_rng(9))
    assert a == b


# -- serialization -------------------------------------------------------

def test_scenario_round_trip_and_byte_identical_writes(tmp_path):
    source, target = _filter_toy()
    scen = build_scenario(source, target, SplitSeedConfig(seed=13, phi=0.5))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_scenario(scen, d1)
    save_scenario(scen, d2)
    for name in ("source.tsv", "target_train.tsv", "overlap.txt",
                 "test.tsv", "meta.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    back = load_scenario(d1)
    assert back.phi == scen.phi
    assert back.seed == scen.seed
    assert back.test_users == scen.test_users
    assert back.train_overlap_users == scen.train_overlap_users
    assert back.heldout == scen.heldout
    assert sorted(back.overlap_users) == sorted(scen.overlap_users)
    assert set(back.source.pairs()) == set(scen.source.pairs())
    assert set(back.target.pairs()) == set(scen.target.pairs())
    assert set(back.target.item_ids) == set(scen.target.item_ids)

    # saving the loaded scenario reproduces the original bytes
    d3 = tmp_path / "c"
    save_scenario(back, d3)
    for name in ("source.tsv", "target_train.tsv", "overlap.txt",
                 "test.tsv", "meta.txt"):
        assert (d1 / name).read_bytes() == (d3 / name).read_bytes()


def test_build_scenario_is_deterministic():
    source, target = _filter_toy()
    a = build_scenario(source, target, SplitSeedConfig(seed=21))
    b = build_scenario(source, target, SplitSeedConfig(seed=21))
    assert a.test_users == b.test_users
    assert a.heldout == b.heldout
    assert a.train_overlap_users == b.train_overlap_users
    c = build_scenario(source, target, SplitSeedConfig(seed=22))
    assert a.test_users != c.test_users or a.heldout != c.heldout
