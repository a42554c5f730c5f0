import bisect
import os
import tempfile
import tracemalloc

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
    write_interactions,
)
from crossrec.errors import (
    ConfigError,
    DataError,
    DegenerateScenario,
    EmptyDataset,
    InsufficientCandidates,
    MalformedLine,
    NoOverlap,
)
from crossrec.experiment import ExperimentConfig, run_experiment
from crossrec.synth import generate_synthetic


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


@pytest.mark.parametrize("pairs, items", [
    ([("#u", "a"), ("v", "a")], None), ([("u", "#a")], None),
    ([("u", "a")], ["a", "#b"])], ids=["user", "item", "universe"])
def test_interaction_set_rejects_ids_starting_with_hash(pairs, items):
    # written out, such a user's line would read back as a comment
    with pytest.raises(ValueError, match="bad (user|item) id '#"):
        InteractionSet(pairs, items=items)
    assert InteractionSet([("u#", "a#b")]).pairs() == [("u#", "a#b")]


def _built_indexes(s):
    """The id -> index dicts ``s`` holds, read without building one."""
    held = []
    for name in ("_uindex", "_iindex"):
        try:
            getattr(InteractionSet, name).__get__(s)
        except AttributeError:
            continue
        held.append(name)
    return held


_LOOKUPS = ("has_user", "user_index", "item_index", "has_pair", "items_of",
            "users_of")


def _made(how, pairs, seed, tmp_path_factory):
    """A fresh set made the way ``how`` names, before any id lookup."""
    if how in ("pairs", "indices", "file"):
        s = InteractionSet(pairs)
        if how == "indices":
            s = InteractionSet._from_indices(s.user_ids, s.item_ids,
                                             *s.pair_arrays())
        elif how == "file":
            p = tmp_path_factory.mktemp("lookups") / "inter.tsv"
            write_interactions(p, s)
            s = load_interactions(p)
        return s
    scen = build_scenario(*_filter_toy(), SplitSeedConfig(seed=seed))
    return build_unified(scen) if how == "unified" else getattr(scen, how)


def _outcome_of(call, *args):
    try:
        return call(*args)
    except KeyError:
        return KeyError


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("pairs", "indices", "file", "source", "target",
                        "unified")),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=30),
       st.integers(0, 40),
       st.lists(st.tuples(st.sampled_from(_LOOKUPS), st.integers(0, 99),
                          st.integers(0, 99)), min_size=1, max_size=12))
def test_id_lookups_match_eagerly_built_dicts(tmp_path_factory, how, raw,
                                              seed, calls):
    s = _made(how, [(f"u{a}", f"i{b}") for a, b in raw], seed,
              tmp_path_factory)
    # only a set built from id pairs keeps the dicts it mapped them with
    assert _built_indexes(s) == (["_uindex", "_iindex"] if how == "pairs"
                                 else [])
    uidx = {u: k for k, u in enumerate(s.user_ids)}
    iidx = {i: k for k, i in enumerate(s.item_ids)}
    held = set(zip(*(a.tolist() for a in s.pair_arrays())))
    expected = {
        "has_user": lambda u: u in uidx,
        "user_index": lambda u: uidx[u],
        "item_index": lambda i: iidx[i],
        "has_pair": lambda u, i: (uidx.get(u), iidx.get(i)) in held,
        "items_of": lambda u: tuple(s.item_ids[i] for v, i in sorted(held)
                                    if v == uidx.get(u)),
        "users_of": lambda i: tuple(s.user_ids[u] for u, j in sorted(held)
                                    if j == iidx.get(i)),
    }
    users = s.user_ids + ("nobody", "s:u0", "#u0")
    items = s.item_ids + ("nothing", "t:i0", "#i0")
    for name, a, b in calls:
        u, i = users[a % len(users)], items[b % len(items)]
        args = {"has_pair": (u, i), "has_user": (u,), "user_index": (u,),
                "items_of": (u,)}.get(name, (i,))
        assert _outcome_of(getattr(s, name), *args) \
            == _outcome_of(expected[name], *args), (name, args)


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


def test_load_interactions_reports_invalid_utf8_at_its_file_offset(
        tmp_path):
    # the line reader reports it, not the byte parser's decode of one id
    p = tmp_path / "bad.tsv"
    p.write_bytes(b"u1\ti1\nu2\ti\xff2\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        load_interactions(p)
    assert exc.value.start == 10


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


def _reference_load(path):
    """The line-by-line parser that preceded the bulk loader, with the
    index layout computed independently: the oracle for the loader."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise MalformedLine(path, lineno, "expected user<TAB>item")
            user, item = fields[0], fields[1]
            if not data._check_id(user) or not data._check_id(item):
                raise MalformedLine(path, lineno,
                                    f"bad id in {fields[:2]!r}")
            pairs.append((user, item))
    if not pairs:
        raise EmptyDataset(f"no interactions in {path}")
    uindex, iindex = {}, {}
    for u, i in pairs:
        uindex.setdefault(u, len(uindex))
        iindex.setdefault(i, len(iindex))
    codes = sorted({(uindex[u], iindex[i]) for u, i in pairs})
    pair_u = [a for a, _ in codes]
    return (tuple(uindex), tuple(iindex), pair_u, [b for _, b in codes],
            [bisect.bisect_left(pair_u, k) for k in range(len(uindex) + 1)])


def _outcome(load, path):
    """What ``load(path)`` gives, in a form two loaders can be compared
    by: the id tuples and index arrays, or the error's class and text."""
    try:
        got = load(path)
    except DataError as exc:
        return type(exc), getattr(exc, "lineno", None), str(exc)
    except UnicodeDecodeError as exc:
        return type(exc)  # where decoding stops depends on the reader
    if isinstance(got, InteractionSet):
        pair_u, pair_i = got.pair_arrays()
        return (got.user_ids, got.item_ids, pair_u.tolist(),
                pair_i.tolist(), got._indptr.tolist())
    return got


_LOADER_CASES = {
    "plain": "u1\ti1\nu2\ti2\nu1\ti2\n",
    "comments": "# head\nu1\ti1\n   # indented\n\t# tab first\nu2\ti1\n",
    "blank_lines": "\nu1\ti1\n\n   \n\t\n\t\t\n \t \nu2\ti2\n",
    "extra_fields": "u1\ti1\tx\ty\nu2\ti2\t\n",
    "crlf": "u1\ti1\r\nu2\ti2\r\n",
    "lone_cr": "u1\ti1\ru2\ti2\r",
    "mixed_endings": "u1\ti1\r\nu2\ti2\ru3\ti3\n",
    "no_final_newline": "u1\ti1\nu2\ti2",
    "hash_in_id": "u#1\ti1\nu2\ti#2\n",
    "hash_first_item": "u1\t#i1\n",
    "header_comment": "# user\titem\nu1\ti1\nu2\ti2\n",
    "comment_with_tab": "#c\tx\nu1\ti1\n",
    "comment_and_hash_in_id": "# c\nu#1\ti1\n\nu2\ti2\n",
    "duplicate_pairs": "u1\ti1\nu1\ti1\nu2\ti1\nu1\ti1\n",
    "no_tab": "u1\ti1\nu2\n",
    "empty_user": "u1\ti1\n\ti2\n",
    "empty_item": "u1\ti1\nu2\t\n",
    "space_in_id": "u1\ti1\nu 2\ti2\n",
    "nbsp_in_id": "u1\ti1\nu2\ti\u00a02\n",
    "file_separator_in_id": "u1\ti1\nu2\ti\x1c2\n",
    "file_separator_line": "\x1c\t\x1c\nu1\ti1\n",
    "line_separator_in_id": "u1\ti1\u2028u2\ti2\n",
    "bad_line_after_comment": "# c\nu1\ti1\n# c2\nbad\n",
    # as many tabs as lines, but not one per line: (a,b),(c,x) is wrong
    "tabs_equal_lines": "a\tb\tc\nx\n",
    "crlf_bad_line": "u1\ti1\r\nu2\r\n",
    "only_comments": "# a\n\n",
    "empty": "",
    "nul_in_id": "u1\ti1\nu\x002\ti\x00\n",
    "multibyte_utf8": "u\u00e9\ti\u4e2d\nu\U0001f600\ti\u00e9\nu\u00e9\ti1\n",
    "invalid_utf8": b"u1\ti1\nu\xff2\ti2\n",
    "truncated_utf8": b"u1\ti\xe4\xb8\nu2\ti2\n",
    # one 4,096-byte id among 50,000 short ones
    "long_id": "".join(f"u{k % 997}\ti{k % 89}\n" for k in range(25000))
    + "u" * 4096 + "\ti1\n"
    + "".join(f"u{k % 991}\ti{k % 83}\n" for k in range(25000)),
    # widths 1 to 40, on both sides of 8 bytes, many sharing prefixes
    "many_widths": "".join(f"{'u' * (k % 40 + 1)}{k % 3}\t"
                           f"{'i' * (k % 23)}{k % 7}\n" for k in range(600)),
}


@pytest.mark.parametrize("name", sorted(_LOADER_CASES))
def test_load_interactions_matches_the_line_parser(tmp_path, name):
    case = _LOADER_CASES[name]
    p = tmp_path / "inter.tsv"
    p.write_bytes(case if isinstance(case, bytes) else case.encode("utf-8"))
    assert _outcome(load_interactions, p) == _outcome(_reference_load, p)


_LINE_PIECES = tuple(x.encode("utf-8") for x in (
    "u1\ti1", "u2\ti2", "u1\ti2", "u3\ti1\textra", "# note", "  # note",
    "", " ", "\t", "bad", "u 4\ti4", "u5\t", "u#6\ti#6", "\x1c\ti7",
    "u8\ti\u00a08", "u\x009\ti9", "u\u00e9\ti\u4e2d", "u1\t\U0001f600",
    "a_user_id_longer_than_8\ti1", "u1\tan_item_longer_than_8"
)) + (b"u\xff\ti1", b"u1\ti\xe4\xb8")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=8),
       st.sampled_from((b"\n", b"\r\n", b"\r")), st.booleans())
def test_load_interactions_matches_the_line_parser_on_any_mix(
        tmp_path_factory, lines, newline, final_newline):
    p = tmp_path_factory.mktemp("mix") / "inter.tsv"
    p.write_bytes(newline.join(lines) + (newline if final_newline else b""))
    assert _outcome(load_interactions, p) == _outcome(_reference_load, p)


@pytest.fixture(scope="module")
def scale_file(tmp_path_factory):
    """A 78,000-pair source domain and the file it is written to, next to
    its target domain's ``target.tsv``."""
    source, target = generate_synthetic(2000, 15000, 15000, 8, 0.3, 0.004, 0)
    p = tmp_path_factory.mktemp("scale") / "source.tsv"
    write_interactions(p, source)
    write_interactions(p.with_name("target.tsv"), target)
    return source, p


def test_load_interactions_matches_the_line_parser_at_scale(scale_file):
    source, p = scale_file
    expected = _outcome(_reference_load, p)
    assert len(expected[2]) == source.n_interactions > 50000
    assert _outcome(load_interactions, p) == expected
    # the writer's bytes are those of sorted formatted pairs
    assert p.read_text(encoding="utf-8") == "".join(
        sorted(f"{u}\t{i}\n" for u, i in source.pairs()))


def _traced_peak(call):
    """Bytes ``call()`` holds at its peak, by tracemalloc, after a warm-up
    call has paid for one-off imports and caches."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_loading_peaks_within_four_file_sizes(scale_file):
    # the peak includes the loaded set, about two file sizes
    _, p = scale_file
    assert _traced_peak(lambda: load_interactions(p)) \
        <= 4 * p.stat().st_size


def test_a_set_loaded_and_saved_builds_no_id_index(scale_file, tmp_path):
    _, p = scale_file
    s = load_interactions(p)
    write_interactions(tmp_path / "out.tsv", s)
    assert _built_indexes(s) == []
    source, target = _filter_toy()
    save_scenario(build_scenario(source, target, SplitSeedConfig(seed=3)),
                  tmp_path / "scen")
    scen = load_scenario(tmp_path / "scen")
    save_scenario(scen, tmp_path / "again")
    assert _built_indexes(scen.source) == _built_indexes(scen.target) == []


def test_an_itempop_run_peaks_within_five_input_sizes(scale_file, tmp_path):
    # it holds one copy of the data at a time: the two loaded domains
    # while it builds the scenario, then the saved scenario reloaded
    _, p = scale_file
    cfg = ExperimentConfig(
        method="ITEMPOP", out_dir=str(tmp_path / "run"), phi=1.0,
        source_path=str(p), target_path=str(p.with_name("target.tsv")),
        min_overlap_interactions=3, min_other_interactions=3,
        eval_cutoffs=(10,), eval_repeats=1, eval_negatives=999)
    assert _traced_peak(lambda: run_experiment(cfg)) <= 5 * (
        p.stat().st_size + p.with_name("target.tsv").stat().st_size)


def test_writing_peaks_within_four_file_sizes(scale_file, tmp_path):
    source, p = scale_file
    out = tmp_path / "out.tsv"
    assert _traced_peak(lambda: write_interactions(out, source)) \
        <= 4 * p.stat().st_size


_IDS = st.text(alphabet=("a", "b", "\x00", "\x01", "\x08", "\u00e9",
                         "\u4e2d", "\U0001f600"), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_IDS, _IDS), min_size=1, max_size=30))
def test_write_interactions_sorts_formatted_pairs(tmp_path_factory, pairs):
    # ids below the TAB, ids that prefix others and non-ASCII ids
    s = InteractionSet(pairs)
    p = tmp_path_factory.mktemp("write") / "inter.tsv"
    write_interactions(p, s)
    assert p.read_text(encoding="utf-8") == "".join(
        sorted(f"{u}\t{i}\n" for u, i in s.pairs()))
    assert set(load_interactions(p).pairs()) == set(s.pairs())


def test_write_interactions_sorts_whole_lines_not_id_pairs(tmp_path):
    # "\x01" sorts before the tab, so "a\x01"'s line comes before "a"'s,
    # and "x\x01" before the newline, so item "x\x01" comes before "x"
    s = InteractionSet([("a", "x"), ("a\x01", "x"), ("b", "x"),
                        ("b", "x\x01")])
    p = tmp_path / "inter.tsv"
    write_interactions(p, s)
    assert p.read_bytes() == b"a\x01\tx\na\tx\nb\tx\x01\nb\tx\n"
    assert set(load_interactions(p).pairs()) == set(s.pairs())


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
                       SplitSeedConfig(seed=1, min_overlap_interactions=1,
                                       min_other_interactions=1))


def test_split_config_validation():
    with pytest.raises(ConfigError):
        SplitSeedConfig(seed=0, test_fraction=0.0)
    with pytest.raises(ConfigError):
        SplitSeedConfig(seed=0, phi=0.0)
    for key in ("min_overlap_interactions", "min_other_interactions"):
        for bad in (0, -1):
            with pytest.raises(ConfigError,
                               match="filter thresholds must be >= 1"):
                SplitSeedConfig(seed=0, **{key: bad})


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

def _blocked(s, user, exclude):
    """Rows of ``user``'s training items and of the ``exclude`` ids."""
    return [s.item_index(i) for i in set(s.items_of(user)) | exclude]


def test_sample_negatives_avoids_history_and_exclusions():
    items = [f"i{k:02d}" for k in range(30)]
    s = InteractionSet([("u", i) for i in items[:5]], items=items)
    rng = np.random.default_rng(0)
    negs = [items[r] for r in sample_negatives(
        s.n_items, _blocked(s, "u", {"i10", "i11"}), 20, rng)]
    assert len(negs) == len(set(negs)) == 20
    assert not set(negs) & set(items[:5])
    assert not set(negs) & {"i10", "i11"}


def test_sample_negatives_unknown_user_uses_full_pool():
    items = [f"i{k}" for k in range(10)]
    s = InteractionSet([("u", items[0])], items=items)
    rng = np.random.default_rng(1)
    negs = sample_negatives(s.n_items, _blocked(s, "ghost", {items[1]}), 9,
                            rng)
    assert {items[r] for r in negs} == set(items) - {items[1]}


def test_sample_negatives_insufficient_pool():
    items = [f"i{k}" for k in range(10)]
    s = InteractionSet([("u", i) for i in items[:4]], items=items)
    rng = np.random.default_rng(2)
    with pytest.raises(InsufficientCandidates):
        sample_negatives(s.n_items, _blocked(s, "u", {"i5"}), 6, rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 2 ** 32 - 1))
def test_sample_negatives_matches_the_list_pool(n_seen, seed):
    items = [f"i{k:02d}" for k in range(40)]
    s = InteractionSet([("u", i) for i in items[:n_seen:2]], items=items)
    blocked = {"i05", "i33"} | set(s.items_of("u"))
    pool = [i for i in items if i not in blocked]
    pick = np.random.default_rng(seed).choice(len(pool), size=5,
                                              replace=False)
    rows = sample_negatives(s.n_items, _blocked(s, "u", {"i05", "i33"}), 5,
                            np.random.default_rng(seed))
    assert [items[r] for r in rows] == [pool[k] for k in pick]


def test_sample_negatives_deterministic_per_stream():
    items = [f"i{k:03d}" for k in range(50)]
    s = InteractionSet([("u", items[0])], items=items)
    blocked = _blocked(s, "u", set())
    a = sample_negatives(s.n_items, blocked, 30, np.random.default_rng(9))
    b = sample_negatives(s.n_items, blocked, 30, np.random.default_rng(9))
    assert list(a) == list(b)


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
    assert back.split.phi == scen.split.phi
    assert back.split.seed == scen.split.seed
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


_META_KEYS = ["phi", "seed", "test_fraction", "min_overlap_interactions",
              "min_other_interactions", "train_overlap_users"]


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2**32 - 1),
       st.floats(0.1, 0.9), st.integers(2, 10), st.integers(1, 20))
def test_saved_split_settings_load_back_equal(phi, seed, test_fraction,
                                              min_overlap, min_other):
    # thresholds of at least 2 leave every overlap user two target items
    split = SplitSeedConfig(phi, seed, test_fraction, min_overlap, min_other)
    scen = build_scenario(*_filter_toy(), split)
    with tempfile.TemporaryDirectory() as out:
        save_scenario(scen, out)
        assert load_scenario(out).split == scen.split == split
        with open(os.path.join(out, "meta.txt"), encoding="utf-8") as fh:
            assert [line.split("=")[0] for line in fh] == _META_KEYS


def _saved_test_file(out_dir):
    source, target = _filter_toy()
    save_scenario(build_scenario(source, target, SplitSeedConfig(seed=13)),
                  out_dir)
    return out_dir / "test.tsv"


def test_load_scenario_rejects_a_repeated_test_user(tmp_path):
    test = _saved_test_file(tmp_path)
    lines = test.read_text(encoding="utf-8").splitlines(True)
    test.write_text(lines[0] + "".join(lines), encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_scenario(tmp_path)
    assert (exc.value.path, exc.value.lineno) == (str(test), 2)


def test_load_scenario_rejects_a_held_out_id_with_a_space(tmp_path):
    test = _saved_test_file(tmp_path)
    lines = test.read_text(encoding="utf-8").splitlines(True)
    user, _, valid = lines[1].split("\t")
    lines[1] = f"{user}\tz z\t{valid}"
    test.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_scenario(tmp_path)
    assert (exc.value.path, exc.value.lineno) == (str(test), 2)


def test_build_scenario_is_deterministic():
    source, target = _filter_toy()
    a = build_scenario(source, target, SplitSeedConfig(seed=21))
    b = build_scenario(source, target, SplitSeedConfig(seed=21))
    assert a.test_users == b.test_users
    assert a.heldout == b.heldout
    assert a.train_overlap_users == b.train_overlap_users
    c = build_scenario(source, target, SplitSeedConfig(seed=22))
    assert a.test_users != c.test_users or a.heldout != c.heldout
