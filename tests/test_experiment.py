import dataclasses
import math
import os
import pathlib
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
from crossrec.evaluation import EvalConfig
from crossrec.experiment import (
    METHODS,
    ExperimentConfig,
    config_from_mapping,
    derive_seed,
    make_scorer,
    run_experiment,
)
from crossrec.mapping import MapTrainConfig
from test_acceptance import BENCH_KEYS, bench_config

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


# (method, bad values of two stages, the message validate raises): the
# source space's settings come first, then its objective's embed.l2 rule,
# the mapping, the evaluation and last the split
_FIRST_ERRORS = [
    ("SSCDR", {"embed.l2": "0.1", "phi": "inf"},
     "embed.l2 = 0.1, but metric spaces are not regularized"),
    ("EMCDR-CML", {"embed.l2": "0.1", "lambda": "-1"},
     "embed.l2 = 0.1, but metric spaces are not regularized"),
    ("CML", {"embed.l2": "0.1", "eval.cutoffs": "5,5"},
     "embed.l2 = 0.1, but metric spaces are not regularized"),
    ("CML", {"embed.dim": "0", "embed.l2": "0.1"},
     "dim must be positive, got 0"),
    ("ITEMPOP", {"embed.l2": "0.1", "map.lr": "nan"},
     "margin and lr must be positive"),
    ("EMCDR-BPR", {"embed.lr": "nan", "test_fraction": "1"},
     "lr must be positive"),
    ("BPR", {"map.lr": "nan", "eval.repeats": "0"},
     "margin and lr must be positive"),
    ("SSCDR-naive", {"lambda": "-1", "phi": "inf"},
     "lam must be non-negative, got -1.0"),
    ("EMCDR-BPR", {"eval.cutoffs": "5,5", "test_fraction": "1"},
     "cutoffs must be distinct"),
    ("ITEMPOP", {"test_fraction": "1", "phi": "inf"},
     "test_fraction must be in (0, 1), got 1.0"),
    ("SSCDR", {"seed": "-1", "embed.dim": "0"},
     "seed must be non-negative, got -1"),
]


@pytest.mark.parametrize("method,values,message", _FIRST_ERRORS)
def test_validate_reports_the_first_bad_stage(method, values, message):
    cfg = config_from_mapping({"scenario": "s", "method": method, **values})
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert str(exc.value) == message


def test_default_train_configs_are_the_dataclass_defaults():
    cfg = ExperimentConfig()
    for name, want in (("source", EmbedTrainConfig()),
                       ("map", MapTrainConfig()), ("eval", EvalConfig())):
        got = experiment.stage_config(cfg, name)
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


# -- what criterion 6 relies on -----------------------------------------------

@pytest.mark.parametrize("seed", range(5))  # criterion 6's seeds
def test_scenarios_differing_in_phi_share_all_but_the_linked_users(seed):
    """Criterion 6 trains each space on one scenario of a seed and serves
    every phi with it: both domains, the overlap, the test users and their
    held-out items do not depend on phi, and the linked users nest."""
    scens = [experiment.prepare_scenario(bench_config(seed, phi))
             for phi in (0.05, 0.1, 0.5, 1.0)]
    first = scens[0]
    for scen in scens[1:]:
        for domain in ("source", "target"):
            a, b = getattr(first, domain), getattr(scen, domain)
            assert (a.user_ids, a.item_ids) == (b.user_ids, b.item_ids)
            for x, y in zip(a.pair_arrays(), b.pair_arrays()):
                assert np.array_equal(x, y)
        assert (scen.overlap_users, scen.test_users, scen.heldout) == \
            (first.overlap_users, first.test_users, first.heldout)
    linked = [set(scen.train_overlap_users) for scen in scens]
    assert all(a < b for a, b in zip(linked, linked[1:]))


def test_shared_artifacts_train_alike_under_each_method(tmp_path):
    """A metric space trains the same for EMCDR-CML, SSCDR-naive and SSCDR,
    one net for SSCDR-naive and SSCDR, and EMCDR-CML's supervised net does
    not read lambda."""
    cfgs = [tiny_config(m, tmp_path) for m in ("EMCDR-CML", "SSCDR-naive",
                                               "SSCDR")]
    scenario = experiment.prepare_scenario(cfgs[0])
    art = {}
    for name in ("source_space", "target_space"):
        spaces = [experiment.train_artifact(name, scenario, cfg, {})
                  for cfg in cfgs]
        for space in spaces[1:]:
            assert (space.user_ids, space.item_ids) == \
                (spaces[0].user_ids, spaces[0].item_ids)
            assert np.array_equal(space.U, spaces[0].U)
            assert np.array_equal(space.V, spaces[0].V)
        art[name] = spaces[0]
    for a, b in ((cfgs[1], cfgs[2]),
                 (dataclasses.replace(cfgs[0], map_lam=0.0),
                  dataclasses.replace(cfgs[0], map_lam=4.0))):
        nets = [experiment.train_artifact("net", scenario, cfg, art)
                for cfg in (a, b)]
        for attr in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(nets[0], attr),
                                  getattr(nets[1], attr)), attr


def test_readme_one_shot_config_is_the_criterion_6_setup(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "with a config file of `key = value` lines")[1].split("```")[1]
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(block, encoding="utf-8")
    keys = data.read_key_values(cfg, ConfigError)
    del keys["seed"], keys["phi"]
    assert keys == BENCH_KEYS


def test_readme_config_table_is_the_config():
    # each row: key, field, type (``ints`` for a comma-separated tuple)
    # and default (``(empty)`` for "", a note like `` (off)`` after it)
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Config keys\n")[1].split("\n## ")[0]
    rows = [[cell.strip(" `") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert sorted(row[0] for row in rows) == sorted(experiment.KEYS)
    default = ExperimentConfig()
    for key, attr, type_name, written in rows:
        value = getattr(default, attr)
        assert attr == experiment.KEYS[key][0], key
        assert type_name == ("ints" if isinstance(value, tuple)
                             else type(value).__name__), key
        assert written.split(" (")[0] == (
            ",".join(map(str, value)) if isinstance(value, tuple)
            else str(value) or "(empty)"), key


# -- scorer -------------------------------------------------------------------

def _unified_case(kind, n_users=4, n_items=70, dim=6):
    """A scenario whose test users and target items all have rows in one
    space of ``kind``, its item rows in reverse id order."""
    items = [f"i{k:03d}" for k in range(n_items)]
    users = tuple(f"u{k}" for k in range(n_users))
    target = InteractionSet([("other", items[0])], items=items)
    scen = CrossDomainScenario(
        source=target, target=target, train_overlap_users=(),
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


@pytest.mark.parametrize("repeats", [1, 5])
@pytest.mark.parametrize("method", ["CML", "BPR"])
def test_make_scorer_scores_each_users_catalogue_once(monkeypatch, method,
                                                     repeats):
    scen, space = _unified_case("metric" if method == "CML" else "inner")
    real, scored = EmbeddingSpace.scores, []

    def counted(self, rows, q):
        scored.append(len(rows))
        return real(self, rows, q)

    monkeypatch.setattr(EmbeddingSpace, "scores", counted)
    scorer = make_scorer(scen, ExperimentConfig(method=method,
                                                eval_repeats=repeats),
                         {"unified_space": space})
    item_rows = data.id_rows(space.item_index, scen.target.item_ids,
                             data.TARGET_PREFIX)
    rng = np.random.default_rng(2)
    # runs of calls for one user, alternating users, overlapping row sets
    for k, calls in ((0, 3), (1, 2), (0, 2), (2, 4), (1, 1), (0, 1)):
        del scored[:]
        full, bits = real(space, item_rows, space.U[k]), {}
        for _ in range(calls):
            rows = rng.choice(scen.target.n_items, size=40, replace=False)
            got = scorer(k, rows)
            assert got.tobytes() == full[rows].tobytes()
            # one item, one score: the same bytes in every draw
            for row, b in zip(rows.tolist(), got.view(np.int64).tolist()):
                assert bits.setdefault(row, b) == b
        assert scored == [scen.target.n_items]
