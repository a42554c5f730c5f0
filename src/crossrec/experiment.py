"""End-to-end experiment orchestration.

An experiment resolves a scenario (from a saved directory, raw interaction
files, or the synthetic generator), trains whatever the chosen method
needs, evaluates it with the leave-one-out harness, and persists every
artifact plus a manifest to the output directory.

Methods:

* ``ITEMPOP``        popularity ranking, no training
* ``BPR``            one inner-product space over both domains merged
* ``CML``            one metric space over both domains merged
* ``EMCDR-BPR``      per-domain inner spaces, supervised mapping
* ``EMCDR-CML``      per-domain metric spaces, supervised mapping
* ``SSCDR-naive``    per-domain metric spaces, semi-supervised mapping
* ``SSCDR``          same plus multi-hop aggregation before mapping

Every path ends in the same evaluator, so reports are comparable across
methods.  All randomness is derived from one experiment seed through fixed
stream slots, which keeps sub-seeds independent of the method name; this
is what makes reduction checks between methods meaningful.

The manifest lists the resolved configuration and a sha256 per artifact,
and contains no timestamps: rerunning an experiment reproduces every file
byte for byte.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import coldstart, data, embed, evaluation, mapping, synth
from .errors import ConfigError, DataError

METHOD_ITEMPOP = "ITEMPOP"
METHOD_BPR = "BPR"
METHOD_CML = "CML"
METHOD_EMCDR_BPR = "EMCDR-BPR"
METHOD_EMCDR_CML = "EMCDR-CML"
METHOD_SSCDR_NAIVE = "SSCDR-naive"
METHOD_SSCDR = "SSCDR"

METHODS = (METHOD_ITEMPOP, METHOD_BPR, METHOD_CML, METHOD_EMCDR_BPR,
           METHOD_EMCDR_CML, METHOD_SSCDR_NAIVE, METHOD_SSCDR)

# every artifact name, in the order the step flags load them
ARTIFACTS = ("unified_space", "source_space", "target_space", "net")

# fixed sub-seed slots, independent of the method
_SLOT_SYNTH = 0
_SLOT_SPLIT = 1
_SLOT_EMBED = {"source": 2, "target": 3, "unified": 4}
_SLOT_MAPPING = 5
_SLOT_EVAL = 6

# method -> (embedding objective, mapping mode); None where the method
# trains no embedding or no mapping.  Methods without a mapping train one
# unified space over both domains.  `run` and every step train through
# train_artifact, which reads this plan.
_PLAN = {
    METHOD_ITEMPOP: (None, None),
    METHOD_BPR: (embed.KIND_INNER, None),
    METHOD_CML: (embed.KIND_METRIC, None),
    METHOD_EMCDR_BPR: (embed.KIND_INNER, mapping.MODE_SUPERVISED),
    METHOD_EMCDR_CML: (embed.KIND_METRIC, mapping.MODE_SUPERVISED),
    METHOD_SSCDR_NAIVE: (embed.KIND_METRIC, mapping.MODE_SEMI),
    METHOD_SSCDR: (embed.KIND_METRIC, mapping.MODE_SEMI),
}


def derive_seed(seed, slot):
    """Stable per-purpose sub-seed from the experiment seed."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return int(np.random.SeedSequence(seed).generate_state(8)[slot])


@dataclass
class ExperimentConfig:
    method: str = METHOD_SSCDR
    out_dir: str = "run"
    seed: int = 0
    phi: float = data.SplitSeedConfig.phi
    hops: int = 2
    scenario_dir: str = ""
    source_path: str = ""
    target_path: str = ""
    synth_users: int = 0  # > 0 switches on the generator
    synth_source_items: int = 0
    synth_target_items: int = 0
    synth_k_true: int = 8
    synth_overlap: float = 0.3
    synth_density: float = 0.004
    test_fraction: float = data.SplitSeedConfig.test_fraction
    min_overlap_interactions: int = (
        data.SplitSeedConfig.min_overlap_interactions)
    min_other_interactions: int = data.SplitSeedConfig.min_other_interactions
    embed_dim: int = 50
    embed_margin: float = 1.0
    embed_lr: float = 0.001
    embed_l2: float = 0.0
    embed_epochs: int = 100
    embed_batch: int = 1024
    map_lam: float = 0.5
    map_margin: float = 1.0
    map_lr: float = 0.001
    map_epochs: int = 100
    map_batch: int = 64
    eval_cutoffs: tuple = (10, 20)
    eval_repeats: int = 5
    eval_negatives: int = 999
    eval_positive: str = "test"

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected "
                              f"one of {', '.join(METHODS)}")
        if self.method == METHOD_SSCDR and self.hops < 1:
            raise ConfigError("SSCDR needs hops >= 1")
        self.check_hops()
        sources = [bool(self.scenario_dir),
                   bool(self.source_path or self.target_path),
                   self.synth_users > 0]
        if sum(sources) != 1:
            raise ConfigError(
                "configure exactly one of: scenario, source+target files, "
                "synthetic generator")
        if self.source_path and not self.target_path \
                or self.target_path and not self.source_path:
            raise ConfigError("source and target files go together")
        if self.synth_users > 0:
            synth.check_synthetic(*_synth_args(self))
        # every config checks its values (the seed too) before work,
        # whatever the method; only embed.l2 has a rule per objective
        objective = _PLAN[self.method][0]
        embed_cfg = embed_config(self, "source")
        if objective is not None:
            embed.check_objective(objective, embed_cfg)
        map_config(self)
        eval_config(self)
        split_config(self)

    def check_hops(self):
        """Reject a negative ``hops``; every command that reads it
        applies this rule."""
        if self.hops < 0:
            raise ConfigError("hops must be >= 0")


# fields whose config key is not derived from their name by _key
_ALIASES = {"out_dir": "out", "map_lam": "lambda", "scenario_dir": "scenario",
            "source_path": "source", "target_path": "target",
            "min_overlap_interactions": "min_overlap",
            "min_other_interactions": "min_other"}


def _key(name):
    """A field's alias, else its name with the first ``_`` of a
    ``synth_``, ``embed_``, ``map_`` or ``eval_`` name read as ``.``."""
    grouped = name.startswith(("synth_", "embed_", "map_", "eval_"))
    return _ALIASES.get(name, name.replace("_", ".", 1) if grouped else name)


def _csv_ints(text):
    return tuple(int(x) for x in text.split(",") if x)


# config key (and CLI flag dest) -> (attribute, parser); the parser is the
# type of the attribute's default, and a tuple is comma-separated ints
KEYS = {_key(f.name): (f.name, _csv_ints if isinstance(f.default, tuple)
                       else type(f.default))
        for f in fields(ExperimentConfig)}


def config_from_mapping(kv):
    cfg = ExperimentConfig()
    for key, value in kv.items():
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, parse = KEYS[key]
        try:
            setattr(cfg, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return cfg


def _synth_args(cfg):  # the generator's arguments but its seed
    return (cfg.synth_users, cfg.synth_source_items, cfg.synth_target_items,
            cfg.synth_k_true, cfg.synth_overlap, cfg.synth_density)


def generate_domains(cfg):
    """The synthetic (source, target) pair the ``synth.*`` keys describe."""
    return synth.generate_synthetic(*_synth_args(cfg),
                                    derive_seed(cfg.seed, _SLOT_SYNTH))


def prepare_scenario(cfg):
    """Resolve the scenario the way the config asks for."""
    if cfg.scenario_dir:
        return data.load_scenario(cfg.scenario_dir)
    if cfg.synth_users > 0:
        source, target = generate_domains(cfg)
    else:
        source = data.load_interactions(cfg.source_path)
        target = data.load_interactions(cfg.target_path)
    return data.build_scenario(source, target, split_config(cfg))


def split_config(cfg):
    return data.SplitSeedConfig(
        cfg.phi, derive_seed(cfg.seed, _SLOT_SPLIT), cfg.test_fraction,
        cfg.min_overlap_interactions, cfg.min_other_interactions)


def embed_config(cfg, domain):
    """Training config of the ``source``, ``target`` or ``unified`` space."""
    return embed.EmbedTrainConfig(
        dim=cfg.embed_dim, margin=cfg.embed_margin,
        learning_rate=cfg.embed_lr, l2_reg=cfg.embed_l2,
        epochs=cfg.embed_epochs, batch_size=cfg.embed_batch,
        seed=derive_seed(cfg.seed, _SLOT_EMBED[domain]))


def map_config(cfg):
    """Training config of the mapping, in ``cfg.method``'s mode (the
    semi-supervised one for a method without a mapping)."""
    return mapping.MapTrainConfig(
        lam=cfg.map_lam, margin=cfg.map_margin, learning_rate=cfg.map_lr,
        epochs=cfg.map_epochs, batch_size=cfg.map_batch,
        mode=_PLAN[cfg.method][1] or mapping.MODE_SEMI,
        seed=derive_seed(cfg.seed, _SLOT_MAPPING))


def eval_config(cfg):
    return evaluation.EvalConfig(
        cutoffs=cfg.eval_cutoffs, repeats=cfg.eval_repeats,
        negatives=cfg.eval_negatives, positive=cfg.eval_positive,
        seed=derive_seed(cfg.seed, _SLOT_EVAL))


def required_artifacts(method):
    """The names of the artifacts ``method`` scores with."""
    objective, mode = _PLAN[method]
    if objective is None:
        return ()
    if mode is None:
        return ("unified_space",)
    return ("source_space", "target_space", "net")


def _check_space_kinds(cfg, art):
    """Every space ``cfg.method`` uses must be of its objective's kind; a
    space of another kind is a data error naming both."""
    objective = _PLAN[cfg.method][0]
    for name in required_artifacts(cfg.method):
        space = art.get(name)
        if name != "net" and space.kind != objective:
            raise DataError(f"{name} is a {space.kind} space, but "
                            f"{cfg.method} uses {objective} spaces")


def artifact_io(name):
    """``(file, flag, save(artifact, path), load(path))`` of the artifact
    ``name``: its file in a ``run`` directory and the step flag that loads
    it.  The functions are read off their modules on each call, so one
    rebound after import (as ``bench/tracer.py`` does) is the one used."""
    if name == "net":
        return ("mapping.txt", "--mapping", mapping.save_mapping,
                mapping.load_mapping)
    domain = name[:-len("_space")]
    return (f"{domain}_embeddings.txt", f"--{domain}-emb",
            embed.save_embeddings, embed.load_embeddings)


def train_artifact(name, scenario, cfg, art, loss_history=None):
    """Train the artifact ``name`` the way ``cfg.method`` does; the
    mapping (``net``) links the spaces of ``art``, a dict by name.  An
    artifact the method does not train is a config error."""
    needed = required_artifacts(cfg.method)
    if name not in needed:
        raise ConfigError(f"{cfg.method} does not train {name} (it trains "
                          f"{', '.join(needed) or 'nothing'})")
    if name == "net":
        _check_space_kinds(cfg, art)
        return mapping.train_mapping(art["source_space"], art["target_space"],
                                     scenario, map_config(cfg),
                                     loss_history=loss_history)
    domain = name[:-len("_space")]
    interactions = (data.build_unified(scenario) if domain == "unified"
                    else getattr(scenario, domain))
    return embed.train_embeddings(interactions, embed_config(cfg, domain),
                                  objective=_PLAN[cfg.method][0],
                                  loss_history=loss_history)


def make_scorer(scenario, cfg, art):
    """Build ``scorer(k, rows) -> scores`` (higher is better) for test user
    ``scenario.test_users[k]`` and the target item rows ``rows``, from
    ``art``, the method's artifacts by name.

    Only SSCDR aggregates: it runs ``cfg.hops`` steps before the mapping,
    every other method none.  Every target item (``t:``-prefixed in a
    unified space), test user and, with hops, source user and item needs
    a row, found by id; a missing one raises :class:`IndexMismatch`, a
    missing artifact :class:`ConfigError` naming its flag, and a space of
    the wrong kind :class:`DataError`, before anything is scored.
    With ``cfg``'s repeats over 1 and its draw covering half the catalogue
    or more, consecutive calls for one user score each target row at most
    once.  An inner-space score is then equal to scoring ``rows`` in one
    block only up to rounding (the matrix-vector product's last bit
    depends on a row's place in the block), so a positive and a negative
    within one ulp can rank apart.
    """
    missing = [artifact_io(name)[1] for name in required_artifacts(cfg.method)
               if art.get(name) is None]
    if missing:
        raise ConfigError(f"{cfg.method} needs {', '.join(missing)}")
    _check_space_kinds(cfg, art)
    objective, mode = _PLAN[cfg.method]
    target = scenario.target
    if objective is None:  # popularity
        degrees = target.item_degrees().astype(float)
        return lambda k, rows: degrees[rows]

    users = scenario.test_users
    if mode is None:  # one space over both domains
        space, prefix = art["unified_space"], data.TARGET_PREFIX
        queries = space.U[data.id_rows(space.user_index, users)]
    else:  # translate the (aggregated) source user vectors
        space, prefix = art["target_space"], ""
        queries = coldstart.cold_start_queries(
            art["source_space"], scenario.source, art["net"],
            cfg.hops if cfg.method == METHOD_SSCDR else 0, users)
    item_rows = data.id_rows(space.item_index, target.item_ids, prefix)
    if cfg.eval_repeats < 2 or 2 * (cfg.eval_negatives + 1) < target.n_items:
        # a user's draws overlap too little for a memo to pay
        return lambda k, rows: space.scores(item_rows[rows], queries[k])
    # each row's last score and the user it was scored for
    scores, owner = np.empty(target.n_items), np.full(target.n_items, -1)

    def scorer(k, rows):
        new = rows[owner[rows] != k]
        scores[new] = space.scores(item_rows[new], queries[k])
        owner[new] = k
        return scores[rows]
    return scorer


def evaluate_method(scenario, cfg, art):
    """The report of ``cfg.method`` scored with ``art`` on ``scenario``,
    and its ``report.tsv`` text, labelled with the scenario's phi."""
    report = evaluation.evaluate(make_scorer(scenario, cfg, art), scenario,
                                 eval_config(cfg))
    return report, report.to_tsv(cfg.method)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg, out_dir, status, artifacts, error=None):
    lines = [f"status={status}\n"]
    if error is not None:
        lines.append(f"error={error}\n")
    for name in sorted(f.name for f in fields(cfg)):
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        lines.append(f"config.{name}={value}\n")
    for name in sorted(artifacts):
        lines.append(f"sha256.{name}={_sha256(artifacts[name])}\n")
    with open(os.path.join(out_dir, "manifest.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(lines)


def run_experiment(cfg):
    """Train, evaluate, and persist one method; returns the report.

    A failure after the first manifest write leaves ``status=failed`` and
    the error class in the manifest, then propagates.
    """
    cfg.validate()
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    _write_manifest(cfg, out, "running", {})
    artifacts = {}  # each file, once it is complete
    try:
        scen_dir = os.path.join(out, "scenario")
        # the disk copy is canonical: continue from exactly what a
        # separate process would load, holding one copy at a time
        data.save_scenario(prepare_scenario(cfg), scen_dir)
        scenario = data.load_scenario(scen_dir)
        # fail on a too-small negative pool before any training
        evaluation.heldout_rows(scenario, cfg.eval_negatives)
        # a saved scenario brings its own split settings: every field of
        # SplitSeedConfig but the seed, whose config value derives it
        cfg = replace(cfg, **{k: v for k, v in asdict(scenario.split).items()
                              if k != "seed"})
        for name in os.listdir(scen_dir):
            artifacts[f"scenario/{name}"] = os.path.join(scen_dir, name)

        art = {}
        for name in required_artifacts(cfg.method):
            fname, _, save, load = artifact_io(name)
            path = os.path.join(out, fname)
            save(train_artifact(name, scenario, cfg, art), path)
            # later stages consume exactly what a separate step loads
            art[name] = load(path)
            artifacts[fname] = path
        report, text = evaluate_method(scenario, cfg, art)
        report_path = os.path.join(out, "report.tsv")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        artifacts["report.tsv"] = report_path
    except BaseException as exc:
        _write_manifest(cfg, out, "failed", artifacts,
                        error=type(exc).__name__)
        raise
    _write_manifest(cfg, out, "complete", artifacts)
    return report
