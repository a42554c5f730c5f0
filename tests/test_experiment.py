import dataclasses
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrec import data, experiment
from crossrec.data import (CrossDomainScenario, InteractionSet,
                           SplitSeedConfig)
from crossrec.embed import EmbeddingSpace, EmbedTrainConfig
from crossrec.errors import ConfigError
from crossrec.evaluation import EvalConfig, id_keys, rank_of_test_item
from crossrec.experiment import (
    METHODS,
    ExperimentConfig,
    config_from_mapping,
    derive_seed,
    make_scorer,
    run_experiment,
)
from crossrec.mapping import MapTrainConfig

TINY = dict(
    synth_users=60, synth_source_items=50, synth_target_items=50,
    synth_k_true=4, synth_overlap=0.6, synth_density=0.08,
    min_overlap_interactions=2, min_other_interactions=2,
    embed_dim=8, embed_epochs=12, embed_lr=0.01, embed_batch=256,
    map_epochs=8, map_lr=0.01, map_batch=16,
    eval_cutoffs=(5, 10), eval_repeats=2, eval_negatives=30,
)


def tiny_config(method, out, seed=5, **over):
    kw = dict(TINY)
    kw.update(over)
    return ExperimentConfig(method=method, out_dir=str(out), seed=seed,
                            **kw)


# -- config parsing ----------------------------------------------------------

def test_parse_config_file_and_mapping(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("# demo\n"
                 "method=SSCDR\n"
                 "phi=0.25\n"
                 "hops=3\n"
                 "lambda=0.75\n"
                 "embed.dim=16\n"
                 "eval.cutoffs=5,10,20\n")
    cfg = config_from_mapping(data.read_key_values(p, ConfigError))
    assert cfg.method == "SSCDR"
    assert cfg.phi == 0.25
    assert cfg.hops == 3
    assert cfg.map_lam == 0.75
    assert cfg.embed_dim == 16
    assert cfg.eval_cutoffs == (5, 10, 20)


def test_unknown_config_key_fails_fast():
    with pytest.raises(ConfigError):
        config_from_mapping({"not_a_key": "1"})


def test_bad_config_value_fails_fast():
    with pytest.raises(ConfigError):
        config_from_mapping({"hops": "two"})


# every config key: (attribute, value text, parsed value)
_DOCUMENTED_KEYS = {
    "method": ("method", "CML", "CML"),
    "out": ("out_dir", "o", "o"),
    "seed": ("seed", "7", 7),
    "phi": ("phi", "0.25", 0.25),
    "hops": ("hops", "3", 3),
    "lambda": ("map_lam", "0.75", 0.75),
    "scenario": ("scenario_dir", "s", "s"),
    "source": ("source_path", "a.tsv", "a.tsv"),
    "target": ("target_path", "b.tsv", "b.tsv"),
    "test_fraction": ("test_fraction", "0.4", 0.4),
    "min_overlap": ("min_overlap_interactions", "4", 4),
    "min_other": ("min_other_interactions", "5", 5),
    "synth.users": ("synth_users", "100", 100),
    "synth.source_items": ("synth_source_items", "60", 60),
    "synth.target_items": ("synth_target_items", "70", 70),
    "synth.k_true": ("synth_k_true", "6", 6),
    "synth.overlap": ("synth_overlap", "0.2", 0.2),
    "synth.density": ("synth_density", "0.01", 0.01),
    "embed.dim": ("embed_dim", "16", 16),
    "embed.margin": ("embed_margin", "0.5", 0.5),
    "embed.lr": ("embed_lr", "0.01", 0.01),
    "embed.l2": ("embed_l2", "0.1", 0.1),
    "embed.epochs": ("embed_epochs", "9", 9),
    "embed.batch": ("embed_batch", "128", 128),
    "map.margin": ("map_margin", "2.5", 2.5),
    "map.lr": ("map_lr", "0.02", 0.02),
    "map.epochs": ("map_epochs", "11", 11),
    "map.batch": ("map_batch", "32", 32),
    "eval.cutoffs": ("eval_cutoffs", "5,10,20", (5, 10, 20)),
    "eval.repeats": ("eval_repeats", "3", 3),
    "eval.negatives": ("eval_negatives", "99", 99),
    "eval.positive": ("eval_positive", "valid", "valid"),
}


def test_config_keys_are_the_documented_ones():
    # one key per field, each to its attribute, parsed to the field's type
    assert sorted(a for a, _, _ in _DOCUMENTED_KEYS.values()) == \
        sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    default = ExperimentConfig()
    for key, (attr, text, value) in _DOCUMENTED_KEYS.items():
        cfg = config_from_mapping({key: text})
        got = getattr(cfg, attr)
        assert got == value and type(got) is type(value), key
        assert cfg == dataclasses.replace(default, **{attr: value}), key
        if isinstance(value, int):
            with pytest.raises(ConfigError):
                config_from_mapping({key: "1.5"})
        if isinstance(value, float):  # a float key takes an int's text
            assert getattr(config_from_mapping({key: "1"}), attr) == 1.0


@pytest.mark.parametrize("key", ["map.lam", "out_dir", "map_lam",
                                 "embed_lr", "scenario_dir"])
def test_attribute_names_are_not_config_keys(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({key: "1"})


def test_validate_rejects_unknown_method(tmp_path):
    cfg = tiny_config("SVD++", tmp_path)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_rejects_sscdr_without_hops(tmp_path):
    cfg = tiny_config("SSCDR", tmp_path, hops=0)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_requires_exactly_one_data_source(tmp_path):
    cfg = tiny_config("ITEMPOP", tmp_path)
    cfg.scenario_dir = "somewhere"
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = tiny_config("ITEMPOP", tmp_path, synth_users=0)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_default_train_configs_are_the_dataclass_defaults():
    cfg = ExperimentConfig()
    for got, want in ((experiment.embed_config(cfg, "source"),
                       EmbedTrainConfig()),
                      (experiment.map_config(cfg), MapTrainConfig()),
                      (experiment.eval_config(cfg), EvalConfig())):
        assert dataclasses.replace(got, seed=want.seed) == want


# adversarial texts for every config key; synth.* is checked only when the
# generator is on, and here it is off
_FUZZ_KEYS = sorted(k for k in experiment.KEYS if not k.startswith("synth."))
_FUZZ_TEXTS = ("nan", "inf", "-inf", "0", "-1", "", "x", "1e999")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(METHODS),
       st.dictionaries(st.sampled_from(_FUZZ_KEYS),
                       st.sampled_from(_FUZZ_TEXTS), min_size=1, max_size=3))
def test_validate_accepts_no_non_finite_value_whatever_the_method(method,
                                                                  values):
    """Parsing and validating raise nothing but ConfigError, and a config
    they accept holds only finite floats."""
    try:
        cfg = config_from_mapping({"scenario": "s", "method": method,
                                   **values})
        cfg.validate()
    except ConfigError:
        return
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        assert not isinstance(value, float) or math.isfinite(value), f.name


def test_derive_seed_slots_are_stable_and_distinct():
    a = [derive_seed(123, k) for k in range(7)]
    b = [derive_seed(123, k) for k in range(7)]
    assert a == b
    assert len(set(a)) == 7
    assert derive_seed(124, 0) != a[0]


# -- full runs ----------------------------------------------------------------

def test_run_itempop_writes_all_artifacts(tmp_path):
    out = tmp_path / "pop"
    report = run_experiment(tiny_config("ITEMPOP", out))
    assert len(report.per_repeat) == 2
    avg = report.averaged()
    assert 0.0 <= avg[("HR", 10)] <= 1.0
    assert (out / "report.tsv").exists()
    assert (out / "scenario" / "meta.txt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith("status=complete\n")
    assert "config.method=ITEMPOP" in manifest
    assert "sha256.report.tsv=" in manifest


@pytest.mark.parametrize("method", [m for m in METHODS if m != "ITEMPOP"])
def test_every_trained_method_runs_end_to_end(tmp_path, method):
    out = tmp_path / method
    report = run_experiment(tiny_config(method, out))
    avg = report.averaged()
    assert 0.0 <= avg[("HR", 10)] <= 1.0
    if method in ("BPR", "CML"):
        assert (out / "unified_embeddings.txt").exists()
    else:
        assert (out / "source_embeddings.txt").exists()
        assert (out / "target_embeddings.txt").exists()
        assert (out / "mapping.txt").exists()


def test_run_lets_the_built_scenario_go_before_reloading_it(tmp_path,
                                                           monkeypatch):
    built, loads = [], []
    prepare, load = experiment.prepare_scenario, data.load_scenario

    def remembered(cfg):
        scenario = prepare(cfg)
        built.append(weakref.ref(scenario))
        return scenario

    def checked(path):
        # one copy of the data at a time: the saved one replaces it
        loads.append(built[-1]() is None)
        return load(path)

    monkeypatch.setattr(experiment, "prepare_scenario", remembered)
    monkeypatch.setattr(data, "load_scenario", checked)
    run_experiment(tiny_config("ITEMPOP", tmp_path / "pop"))
    assert loads == [True]


def test_sscdr_with_lambda_zero_reduces_to_emcdr_cml(tmp_path):
    a = tiny_config("SSCDR", tmp_path / "a", map_lam=0.0, hops=1)
    b = tiny_config("EMCDR-CML", tmp_path / "b")
    run_experiment(a)
    run_experiment(b)
    ma = (tmp_path / "a" / "mapping.txt").read_bytes()
    mb = (tmp_path / "b" / "mapping.txt").read_bytes()
    assert ma == mb
    for name in ("source_embeddings.txt", "target_embeddings.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_rerunning_reproduces_reports_byte_for_byte(tmp_path):
    out = tmp_path / "again"
    run_experiment(tiny_config("SSCDR", out, hops=2))
    first_report = (out / "report.tsv").read_bytes()
    first_manifest = (out / "manifest.txt").read_bytes()
    run_experiment(tiny_config("SSCDR", out, hops=2))
    assert (out / "report.tsv").read_bytes() == first_report
    assert (out / "manifest.txt").read_bytes() == first_manifest


def test_phi_controls_supervision_size(tmp_path):
    lo = tiny_config("EMCDR-CML", tmp_path / "lo", phi=0.25)
    from crossrec.experiment import prepare_scenario
    scen_lo = prepare_scenario(lo)
    hi = tiny_config("EMCDR-CML", tmp_path / "hi", phi=1.0)
    scen_hi = prepare_scenario(hi)
    assert scen_lo.test_users == scen_hi.test_users
    # counts use round-half-up, not banker's rounding
    pool = len(scen_lo.overlap_users) - len(scen_lo.test_users)
    assert len(scen_lo.train_overlap_users) == math.floor(0.25 * pool + 0.5)
    assert set(scen_lo.train_overlap_users) <= \
        set(scen_hi.train_overlap_users)


# -- scorer -------------------------------------------------------------------

def _unified_case(kind, n_users=4, n_items=70, dim=6):
    """A scenario whose test users and target items all have rows in one
    space of ``kind``, its item rows in reverse id order."""
    items = [f"i{k:03d}" for k in range(n_items)]
    users = tuple(f"u{k}" for k in range(n_users))
    target = InteractionSet([("other", items[0])], items=items)
    scen = CrossDomainScenario(
        source=target, target=target, overlap_users=users,
        test_users=users, train_overlap_users=(),
        heldout={u: (items[1], items[2]) for u in users},
        split=SplitSeedConfig(phi=1.0, seed=0))
    rng = np.random.default_rng(8)
    U, V = rng.normal(size=(n_users, dim)), rng.normal(size=(n_items, dim))
    if kind == "metric":  # inside the unit ball
        U, V = (m / (1.5 * np.linalg.norm(m, axis=1, keepdims=True))
                for m in (U, V))
    space = EmbeddingSpace(users, [data.TARGET_PREFIX + i
                                   for i in reversed(items)], U, V, kind)
    return scen, space


@pytest.mark.parametrize("method", ["CML", "BPR"])
def test_make_scorer_scores_each_row_once_per_user(monkeypatch, method):
    kind = "metric" if method == "CML" else "inner"
    scen, space = _unified_case(kind)
    real, scored = EmbeddingSpace.scores, []

    def counted(self, rows, q):
        scored.extend(rows.tolist())
        return real(self, rows, q)

    monkeypatch.setattr(EmbeddingSpace, "scores", counted)
    scorer = make_scorer(scen, ExperimentConfig(method=method),
                         {"unified_space": space})
    item_rows = data.id_rows(space.item_index, scen.target.item_ids,
                             data.TARGET_PREFIX)
    keys = id_keys(scen.target.item_ids)
    rng = np.random.default_rng(2)
    # runs of calls for one user, alternating users, overlapping row sets
    for k, calls in ((0, 3), (1, 2), (0, 2), (2, 4), (1, 1), (0, 1)):
        del scored[:]
        q = space.U[k]
        for _ in range(calls):
            rows = rng.choice(scen.target.n_items, size=40, replace=False)
            got = scorer(k, rows)
            want = real(space, item_rows[rows], q)
            if kind == "metric":
                assert got.tobytes() == want.tobytes()
            else:  # a gemv's last bit depends on the row's place in it
                scale = np.abs(space.V[item_rows[rows]]) @ np.abs(q)
                assert np.all(np.abs(got - want) <= 1e-15 * scale)
                assert rank_of_test_item(got, keys[rows]) == \
                    rank_of_test_item(want, keys[rows])
        assert len(scored) == len(set(scored))


@pytest.mark.parametrize("evals", [dict(eval_repeats=1),
                                   dict(eval_negatives=30)])
def test_make_scorer_scores_whole_blocks_where_draws_barely_overlap(
        monkeypatch, evals):
    # one repeat, or a draw of 31 rows over 70 items: no memo
    scen, space = _unified_case("inner")
    real, scored = EmbeddingSpace.scores, []

    def counted(self, rows, q):
        scored.extend(rows.tolist())
        return real(self, rows, q)

    monkeypatch.setattr(EmbeddingSpace, "scores", counted)
    scorer = make_scorer(scen, ExperimentConfig(method="BPR", **evals),
                         {"unified_space": space})
    item_rows = data.id_rows(space.item_index, scen.target.item_ids,
                             data.TARGET_PREFIX)
    rows = np.random.default_rng(3).choice(scen.target.n_items, size=40,
                                           replace=False)
    for k in (0, 0, 1):
        want = real(space, item_rows[rows], space.U[k])
        assert scorer(k, rows).tobytes() == want.tobytes()
    assert scored == 3 * item_rows[rows].tolist()
