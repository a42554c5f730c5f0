from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ranking

from crossrec.data import (
    CrossDomainScenario,
    InteractionSet,
    SplitSeedConfig,
    sample_negatives,
)
from crossrec.errors import ConfigError, ScorerFailure
from crossrec.evaluation import (
    POSITIVES,
    EvalConfig,
    EvalReport,
    evaluate,
    heldout_rows,
    hit_at,
    id_keys,
    metrics_from_ranks,
    mrr_at,
    ndcg_at,
    rank_of_test_item,
)

# frozen oracle values (mpmath, 30 digits): log(2)/log(3), log(2)/log(11)
NDCG_RANK_2 = 0.6309297535714574371
NDCG_RANK_10 = 0.28906482631788785927


# -- rank ------------------------------------------------------------------

def _rank(scores, item):
    """``rank_of_test_item`` over an ``{id: score}`` dict: ``item`` is
    candidate 0 and each id's key is its position in sorted id order."""
    cand = [item] + [i for i in scores if i != item]
    return rank_of_test_item(np.array([scores[i] for i in cand]),
                             np.array([sorted(cand).index(i) for i in cand]))


def test_rank_of_test_item_basic():
    scores = {"a": 0.9, "b": 0.5, "c": 0.1}
    assert _rank(scores, "a") == 1
    assert _rank(scores, "b") == 2
    assert _rank(scores, "c") == 3


def test_rank_of_test_item_lower_is_better():
    scores = {"a": 0.9, "b": 0.5, "c": 0.1}
    # lower is better: rank the negated scores
    negated = {i: -v for i, v in scores.items()}
    assert _rank(negated, "c") == 1
    assert _rank(negated, "a") == 3


def test_rank_of_test_item_ties_break_toward_smaller_id():
    scores = {"a": 1.0, "b": 1.0, "m": 1.0, "z": 0.0}
    assert _rank(scores, "a") == 1
    assert _rank(scores, "m") == 3
    assert _rank(scores, "z") == 4


@settings(max_examples=50)
@given(st.dictionaries(st.sampled_from([f"i{k}" for k in range(12)]),
                       st.integers(0, 5), min_size=2))
def test_rank_is_a_permutation_position(scores):
    scores = {k: float(v) for k, v in scores.items()}
    ranks = sorted(_rank(scores, item) for item in scores)
    assert ranks == list(range(1, len(scores) + 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0]),
                min_size=1, max_size=40),
       st.sampled_from(["smallest", "middle", "largest"]), st.randoms())
def test_counted_rank_is_the_position_in_ranking(scores, key0, rnd):
    # heavy ties, signed zeros, and the positive's key at either end or in
    # the middle of the keys, which are spread out and shuffled
    keys = [3 * j + 7 for j in range(len(scores))]
    rnd.shuffle(keys)
    want = sorted(keys)[{"smallest": 0, "middle": len(keys) // 2,
                         "largest": -1}[key0]]
    j = keys.index(want)
    keys[0], keys[j] = keys[j], keys[0]
    scores, keys = np.array(scores), np.array(keys)
    order = ranking(scores, keys)
    assert rank_of_test_item(scores, keys) == \
        1 + int(np.flatnonzero(order == 0)[0])


# -- pointwise metrics -------------------------------------------------------

def test_hit_at_values():
    assert hit_at(1, 10) == 1.0
    assert hit_at(10, 10) == 1.0
    assert hit_at(11, 10) == 0.0


def test_ndcg_at_values():
    assert ndcg_at(1, 10) == pytest.approx(1.0, abs=1e-12)
    assert ndcg_at(2, 10) == pytest.approx(NDCG_RANK_2, abs=1e-12)
    assert ndcg_at(10, 10) == pytest.approx(NDCG_RANK_10, abs=1e-12)
    assert ndcg_at(11, 10) == 0.0


def test_mrr_at_values():
    assert mrr_at(1, 10) == 1.0
    assert mrr_at(4, 10) == 0.25
    assert mrr_at(11, 10) == 0.0


def test_metrics_from_ranks_two_user_example():
    # ranks 1 and 3: MRR = (1 + 1/3)/2, NDCG = (1 + log2/log4)/2 = 0.75
    out = metrics_from_ranks([1, 3], (10,))
    assert out[("HR", 10)] == 1.0
    assert out[("MRR", 10)] == pytest.approx(2 / 3, abs=1e-12)
    assert out[("NDCG", 10)] == pytest.approx(0.75, abs=1e-12)


# -- evaluate ----------------------------------------------------------------

def _eval_scenario(n_test=8, n_items=60, phi=1.0):
    items = [f"i{k:03d}" for k in range(n_items)]
    test_users = tuple(f"tu{k:02d}" for k in range(n_test))
    heldout = {u: (items[2 * k], items[2 * k + 1])
               for k, u in enumerate(test_users)}
    target = InteractionSet([("trainuser", items[-1])], items=items)
    return CrossDomainScenario(
        source=target, target=target, overlap_users=test_users,
        test_users=test_users, train_overlap_users=(), heldout=heldout,
        split=SplitSeedConfig(phi=phi, seed=0))


def _ids(scenario, rows):
    """The target item ids of ``rows``."""
    return [scenario.target.item_ids[r] for r in rows]


def _oracle_scorer(scenario, positive="test"):
    def scorer(k, rows):
        user = scenario.test_users[k]
        want = scenario.heldout[user][0 if positive == "test" else 1]
        return np.array([1.0 if c == want else 0.0
                         for c in _ids(scenario, rows)])
    return scorer


def test_evaluate_perfect_scorer_hits_everything():
    scen = _eval_scenario()
    cfg = EvalConfig(cutoffs=(5, 10), repeats=3, negatives=20, seed=1)
    report = evaluate(_oracle_scorer(scen), scen, cfg)
    assert len(report.per_repeat) == 3
    for rep in report.per_repeat:
        for key, value in rep.items():
            assert value == pytest.approx(1.0)
    for ranks in report.ranks:
        assert list(ranks) == [1] * 8
    avg = report.averaged()
    assert avg[("HR", 5)] == 1.0


def test_evaluate_hopeless_scorer_scores_zero():
    scen = _eval_scenario()
    cfg = EvalConfig(cutoffs=(10,), repeats=2, negatives=30, seed=1)

    def scorer(k, rows):
        want = scen.heldout[scen.test_users[k]][0]
        return np.array([-1.0 if c == want else 1.0
                         for c in _ids(scen, rows)])

    report = evaluate(scorer, scen, cfg)
    avg = report.averaged()
    assert avg[("HR", 10)] == 0.0
    assert avg[("MRR", 10)] == 0.0
    for ranks in report.ranks:
        assert list(ranks) == [31] * 8


def test_evaluate_validation_mode_targets_the_validation_item():
    scen = _eval_scenario()
    cfg = EvalConfig(cutoffs=(10,), repeats=2, negatives=20, seed=3,
                     positive="valid")
    report = evaluate(_oracle_scorer(scen, "valid"), scen, cfg)
    assert report.averaged()[("HR", 10)] == 1.0

    # the candidate set carries the validation item and never the test item
    def probing(k, rows):
        t, v = scen.heldout[scen.test_users[k]]
        candidates = _ids(scen, rows)
        assert v in candidates and t not in candidates
        return np.arange(len(candidates), dtype=float)

    evaluate(probing, scen, cfg)

    def probing_test(k, rows):
        t, v = scen.heldout[scen.test_users[k]]
        candidates = _ids(scen, rows)
        assert t in candidates and v not in candidates
        return np.arange(len(candidates), dtype=float)

    evaluate(probing_test, scen, replace(cfg, positive="test"))


def test_evaluate_is_deterministic_and_repeats_differ():
    scen = _eval_scenario()
    cfg = EvalConfig(cutoffs=(10,), repeats=3, negatives=25, seed=9)
    seen = []

    def scorer(k, rows):
        candidates = _ids(scen, rows)
        seen.append((k, tuple(candidates)))
        return np.array([float(int(c[1:])) for c in candidates])

    a = evaluate(scorer, scen, cfg)
    b = evaluate(scorer, scen, cfg)
    for ra, rb in zip(a.ranks, b.ranks):
        np.testing.assert_array_equal(ra, rb)
    assert a.per_repeat == b.per_repeat
    # each repeat draws fresh negatives for the same user
    first_run = seen[:cfg.repeats * len(scen.test_users)]
    user_0 = [candidates for k, candidates in first_run if k == 0]
    assert len(user_0) == cfg.repeats
    assert user_0[0] != user_0[1]
    # and a different seed changes the candidate sets
    c = evaluate(scorer, scen, EvalConfig(cutoffs=(10,), repeats=3,
                                          negatives=25, seed=10))
    assert any(not np.array_equal(x, y) for x, y in zip(a.ranks, c.ranks))


def _repeat_major_evaluate(scorer, scenario, cfg):
    """The evaluation loop with repeats outside and users inside, ranking
    by a full sort: the oracle for :func:`evaluate`'s user-major loop."""
    held = heldout_rows(scenario, cfg.negatives)
    keys = id_keys(scenario.target.item_ids)
    col = POSITIVES.index(cfg.positive)
    report = EvalReport(cutoffs=tuple(cfg.cutoffs), phi=scenario.split.phi)
    for r in range(cfg.repeats):
        ranks = np.empty(len(held), dtype=np.int64)
        for k, (pair, blocked) in enumerate(held):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed + r, k]))
            rows = np.concatenate((pair[col:col + 1], sample_negatives(
                scenario.target.n_items, blocked, cfg.negatives, rng)))
            scores = np.asarray(scorer(k, rows), dtype=float)
            order = ranking(scores, keys[rows])
            ranks[k] = 1 + int(np.flatnonzero(order == 0)[0])
        report.ranks.append(ranks)
        report.per_repeat.append(metrics_from_ranks(ranks, cfg.cutoffs))
    return report


@pytest.mark.parametrize("positive", POSITIVES)
def test_evaluate_matches_the_repeat_major_loop(positive):
    scen = _eval_scenario(n_test=12, n_items=80)
    # a fixed score per (user, item), five levels and signed zeros: ties
    # everywhere, so the id tie-break decides many ranks
    levels = np.array([0.0, -0.0, 1.0, 2.0, 3.0, 4.0])
    table = levels[np.random.default_rng(4).integers(0, 6, size=(12, 80))]
    cfg = EvalConfig(cutoffs=(1, 5, 10), repeats=4, negatives=40, seed=3,
                     positive=positive)
    got = evaluate(lambda k, rows: table[k, rows], scen, cfg)
    want = _repeat_major_evaluate(lambda k, rows: table[k, rows], scen, cfg)
    assert [r.tolist() for r in got.ranks] == \
        [r.tolist() for r in want.ranks]
    assert got.to_tsv("M") == want.to_tsv("M")


def test_evaluate_excludes_both_heldout_items_from_negatives():
    scen = _eval_scenario()
    cfg = EvalConfig(cutoffs=(10,), repeats=2, negatives=50, seed=5)
    problems = []

    def scorer(k, rows):
        user = scen.test_users[k]
        t, v = scen.heldout[user]
        candidates = _ids(scen, rows)
        rest = candidates[1:] if candidates[0] in (t, v) else candidates
        if t in rest or v in rest:
            problems.append(user)
        return np.arange(len(candidates), dtype=float)

    evaluate(scorer, scen, cfg)
    assert not problems


def test_evaluate_wraps_scorer_errors():
    scen = _eval_scenario()
    cfg = EvalConfig(cutoffs=(10,), repeats=1, negatives=10, seed=0)
    with pytest.raises(ScorerFailure):
        evaluate(lambda k, rows: 1 / 0, scen, cfg)
    with pytest.raises(ScorerFailure):
        evaluate(lambda k, rows: np.zeros(3), scen, cfg)
    with pytest.raises(ScorerFailure):
        evaluate(lambda k, rows: np.full(len(rows), np.nan), scen,
                 cfg)


def test_evaluate_rejects_bad_positive_mode():
    with pytest.raises(ConfigError, match="positive"):
        EvalConfig(positive="x")


def test_eval_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(repeats=0)
    with pytest.raises(ConfigError):
        EvalConfig(negatives=0)
    with pytest.raises(ConfigError):
        EvalConfig(cutoffs=())


# -- report formatting --------------------------------------------------------

def test_report_tsv_layout_and_determinism():
    scen = _eval_scenario(phi=0.05)
    cfg = EvalConfig(cutoffs=(5, 10), repeats=2, negatives=20, seed=2)
    report = evaluate(_oracle_scorer(scen), scen, cfg)
    tsv = report.to_tsv("METHOD")
    lines = tsv.strip().split("\n")
    assert lines[0] == "method\tphi\trepeat\tmetric\tN\tvalue"
    # 2 repeats * 3 metrics * 2 cutoffs + averaged block of 6
    assert len(lines) == 1 + 12 + 6
    assert lines[1].split("\t") == ["METHOD", "0.05", "1", "HR", "5",
                                    "1.000000000"]
    assert lines[-1].startswith("METHOD\t0.05\tavg\tMRR\t10\t")
    assert report.to_tsv("METHOD") == tsv

    table = report.format_table(title="demo")
    assert "demo" in table
    assert "@5" in table and "@10" in table and "HR" in table


# -- the row path against the string path -------------------------------------

# ids whose string order differs from their row order: "t10" < "t9", and
# "t5" < "t5\x00" (a numpy str array would drop the NUL and tie them)
_PIN_ITEMS = ("t9", "t10", "t5\x00", "t5", "t1", "t11", "t0", "t2", "t3",
              "t12", "t4", "t6")


def _pin_scenario():
    """Three test users; ``tu1`` also has training pairs, so its own items
    must be blocked."""
    items = _PIN_ITEMS
    heldout = {"tu0": ("t5", "t10"), "tu1": ("t5\x00", "t9"),
               "tu2": ("t11", "t5")}
    target = InteractionSet(
        [("tu1", "t5"), ("tu1", "t0"), ("tu1", "t12"), ("other", "t10"),
         ("other", "t3")], items=items)
    users = tuple(sorted(heldout))
    return CrossDomainScenario(
        source=target, target=target, overlap_users=users, test_users=users,
        train_overlap_users=(), heldout=heldout,
        split=SplitSeedConfig(phi=1.0, seed=0))


def _string_ranks(scen, table, cfg, positive):
    """The ranks of the id-list pool and the per-candidate dict rank."""
    items = scen.target.item_ids
    out = []
    for r in range(cfg.repeats):
        ranks = []
        for k, user in enumerate(scen.test_users):
            test_item, valid_item = scen.heldout[user]
            pos = test_item if positive == "test" else valid_item
            blocked = {test_item, valid_item} | set(scen.target.items_of(user))
            pool = [i for i in items if i not in blocked]
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed + r, k]))
            pick = rng.choice(len(pool), size=cfg.negatives, replace=False)
            candidates = [pos] + [pool[j] for j in pick]
            scores = {c: table[k][items.index(c)] for c in candidates}
            target = scores[pos]
            ranks.append(1 + sum(v > target for v in scores.values())
                         + sum(v == target and c < pos
                               for c, v in scores.items()))
        out.append(ranks)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["test", "valid"]),
       st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         min_size=len(_PIN_ITEMS), max_size=len(_PIN_ITEMS)),
                min_size=3, max_size=3))
def test_row_ranks_match_the_string_path(seed, positive, table):
    scen = _pin_scenario()
    cfg = EvalConfig(cutoffs=(3,), repeats=2, negatives=6, seed=seed,
                     positive=positive)
    rows = np.array(table)
    report = evaluate(lambda k, r: rows[k, r], scen, cfg)
    assert [list(r) for r in report.ranks] == \
        _string_ranks(scen, table, cfg, positive)
