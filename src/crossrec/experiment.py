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
from dataclasses import dataclass, fields

import numpy as np

from . import coldstart, data, embed, evaluation, mapping, synth
from .errors import ConfigError, IndexMismatch

METHOD_ITEMPOP = "ITEMPOP"
METHOD_BPR = "BPR"
METHOD_CML = "CML"
METHOD_EMCDR_BPR = "EMCDR-BPR"
METHOD_EMCDR_CML = "EMCDR-CML"
METHOD_SSCDR_NAIVE = "SSCDR-naive"
METHOD_SSCDR = "SSCDR"

METHODS = (METHOD_ITEMPOP, METHOD_BPR, METHOD_CML, METHOD_EMCDR_BPR,
           METHOD_EMCDR_CML, METHOD_SSCDR_NAIVE, METHOD_SSCDR)

# fixed sub-seed slots, independent of the method
_SLOT_SYNTH = 0
_SLOT_SPLIT = 1
_SLOT_EMBED = {"source": 2, "target": 3, "unified": 4}
_SLOT_MAPPING = 5
_SLOT_EVAL = 6

# method -> (embedding objective, mapping mode); None where the method
# trains no embedding or no mapping.  Methods without a mapping train one
# unified space over both domains.
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
    phi: float = 1.0
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
    test_fraction: float = data.DEFAULT_TEST_FRACTION
    min_overlap_interactions: int = data.DEFAULT_MIN_OVERLAP_INTERACTIONS
    min_other_interactions: int = data.DEFAULT_MIN_OTHER_INTERACTIONS
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
        if self.hops < 0:
            raise ConfigError("hops must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
        # the method's train configs check their values before any work
        objective, mode = _PLAN[self.method]
        if objective is not None:
            embed.check_objective(objective, embed_config(self, "source"))
        if mode is not None:
            map_config(self, mode)


# config-file key -> (attribute, parser)
def _csv_ints(text):
    return tuple(int(x) for x in text.split(",") if x)


_KEYS = {
    "method": ("method", str),
    "out": ("out_dir", str),
    "seed": ("seed", int),
    "phi": ("phi", float),
    "hops": ("hops", int),
    "lambda": ("map_lam", float),
    "scenario": ("scenario_dir", str),
    "source": ("source_path", str),
    "target": ("target_path", str),
    "test_fraction": ("test_fraction", float),
    "min_overlap": ("min_overlap_interactions", int),
    "min_other": ("min_other_interactions", int),
    "synth.users": ("synth_users", int),
    "synth.source_items": ("synth_source_items", int),
    "synth.target_items": ("synth_target_items", int),
    "synth.k_true": ("synth_k_true", int),
    "synth.overlap": ("synth_overlap", float),
    "synth.density": ("synth_density", float),
    "embed.dim": ("embed_dim", int),
    "embed.margin": ("embed_margin", float),
    "embed.lr": ("embed_lr", float),
    "embed.l2": ("embed_l2", float),
    "embed.epochs": ("embed_epochs", int),
    "embed.batch": ("embed_batch", int),
    "map.margin": ("map_margin", float),
    "map.lr": ("map_lr", float),
    "map.epochs": ("map_epochs", int),
    "map.batch": ("map_batch", int),
    "eval.cutoffs": ("eval_cutoffs", _csv_ints),
    "eval.repeats": ("eval_repeats", int),
    "eval.negatives": ("eval_negatives", int),
    "eval.positive": ("eval_positive", str),
}


def parse_config_file(path):
    """Flat ``key=value`` file, ``#`` comments allowed."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            out[key.strip()] = value.strip()
    return out

def config_from_mapping(kv):
    cfg = ExperimentConfig()
    for key, value in kv.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, parse = _KEYS[key]
        try:
            setattr(cfg, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return cfg


def generate_domains(cfg):
    """The synthetic (source, target) pair the ``synth.*`` keys describe."""
    return synth.generate_synthetic(
        cfg.synth_users, cfg.synth_source_items, cfg.synth_target_items,
        cfg.synth_k_true, cfg.synth_overlap, cfg.synth_density,
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
    split = data.SplitSeedConfig(seed=derive_seed(cfg.seed, _SLOT_SPLIT),
                                 test_fraction=cfg.test_fraction,
                                 phi=cfg.phi)
    return data.build_scenario(
        source, target, split,
        min_overlap_interactions=cfg.min_overlap_interactions,
        min_other_interactions=cfg.min_other_interactions)


def embed_config(cfg, domain):
    """Training config of the ``source``, ``target`` or ``unified`` space."""
    return embed.EmbedTrainConfig(
        dim=cfg.embed_dim, margin=cfg.embed_margin,
        learning_rate=cfg.embed_lr, l2_reg=cfg.embed_l2,
        epochs=cfg.embed_epochs, batch_size=cfg.embed_batch,
        seed=derive_seed(cfg.seed, _SLOT_EMBED[domain]))


def map_config(cfg, mode):
    return mapping.MapTrainConfig(
        lam=cfg.map_lam, margin=cfg.map_margin, learning_rate=cfg.map_lr,
        epochs=cfg.map_epochs, batch_size=cfg.map_batch, mode=mode,
        seed=derive_seed(cfg.seed, _SLOT_MAPPING))


def eval_config(cfg):
    return evaluation.EvalConfig(
        cutoffs=cfg.eval_cutoffs, repeats=cfg.eval_repeats,
        negatives=cfg.eval_negatives,
        seed=derive_seed(cfg.seed, _SLOT_EVAL))


def required_artifacts(method):
    """The :class:`MethodArtifacts` fields ``method`` scores with."""
    objective, mode = _PLAN[method]
    if objective is None:
        return ()
    if mode is None:
        return ("unified_space",)
    return ("source_space", "target_space", "net")


def train_space(scenario, cfg, domain, objective, loss_history=None):
    """Train the ``source``, ``target`` or ``unified`` embedding space."""
    if domain == "unified":
        interactions = data.build_unified(scenario)
    else:
        interactions = getattr(scenario, domain)
    return embed.train_embeddings(interactions, embed_config(cfg, domain),
                                  objective=objective,
                                  loss_history=loss_history)


@dataclass
class MethodArtifacts:
    """Everything a scorer needs, plus what should be persisted."""

    source_space: object = None
    target_space: object = None
    unified_space: object = None
    net: object = None
    hops: int = 0

    @classmethod
    def for_method(cls, cfg):
        """Empty artifacts carrying ``cfg.hops`` where the method
        aggregates (SSCDR only)."""
        return cls(hops=cfg.hops if cfg.method == METHOD_SSCDR else 0)


def train_method(scenario, cfg, stage=None):
    """Train whatever ``cfg.method`` requires on top of the scenario.

    ``stage(name, artifact) -> artifact`` is invoked right after each
    artifact finishes training; it may persist the artifact and must return
    the copy every later stage consumes.  The runner uses it to push each
    stage through its on-disk serialization, which keeps ``run`` output
    byte-identical to the equivalent chain of step subcommands.
    """
    if stage is None:
        def stage(name, artifact):
            return artifact
    objective, mode = _PLAN[cfg.method]
    art = MethodArtifacts.for_method(cfg)
    if objective is None:
        return art

    def space(domain):
        return stage(f"{domain}_embeddings",
                     train_space(scenario, cfg, domain, objective))

    if mode is None:
        art.unified_space = space("unified")
        return art
    art.source_space = space("source")
    art.target_space = space("target")
    art.net = stage("mapping", mapping.train_mapping(
        art.source_space, art.target_space, scenario,
        map_config(cfg, mode)))
    return art


def _rows(index, ids, prefix=""):
    """``index(prefix + id)`` of every id, or :class:`IndexMismatch`."""
    try:
        return [index(prefix + x) for x in ids]
    except KeyError as exc:
        raise IndexMismatch(f"embedding space has no row for "
                            f"{exc.args[0]!r}") from None


def make_scorer(scenario, cfg, art):
    """Build ``scorer(user, candidates) -> scores`` (higher is better).

    The spaces scored with must hold every target item (``t:``-prefixed
    in a unified space) and every test user; a missing one raises
    :class:`IndexMismatch` before anything is scored.
    """
    objective, mode = _PLAN[cfg.method]
    target = scenario.target
    if objective is None:  # popularity
        degrees = target.item_degrees().astype(float)

        def scorer(user, candidates):
            return degrees[[target.item_index(i) for i in candidates]]
        return scorer

    users = scenario.test_users
    if mode is None:  # one space over both domains
        space, prefix = art.unified_space, data.TARGET_PREFIX
        queries = space.U[_rows(space.user_index, users)]
    else:  # translate the (aggregated) source user vectors
        space, prefix = art.target_space, ""
        queries = coldstart.cold_start_queries(
            art.source_space, scenario.source, art.net, art.hops,
            _rows(art.source_space.user_index, users))
    query = dict(zip(users, queries))
    row = dict(zip(target.item_ids,
                   _rows(space.item_index, target.item_ids, prefix)))

    def scorer(user, candidates):
        return space.scores([row[i] for i in candidates], query[user])
    return scorer


def evaluate_method(scenario, cfg, art):
    """The report of ``cfg.method`` scored with ``art`` on ``scenario``,
    and its ``report.tsv`` text, labelled with the scenario's phi."""
    report = evaluation.evaluate(make_scorer(scenario, cfg, art), scenario,
                                 eval_config(cfg), positive=cfg.eval_positive)
    return report, report.to_tsv(cfg.method, scenario.phi)


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
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        lines.append(f"config.{f.name}={value}\n")
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
        scenario = prepare_scenario(cfg)
        scen_dir = os.path.join(out, "scenario")
        data.save_scenario(scenario, scen_dir)
        # the disk copy is canonical: continue from exactly what a
        # separate process would load
        scenario = data.load_scenario(scen_dir)
        for name in os.listdir(scen_dir):
            artifacts[f"scenario/{name}"] = os.path.join(scen_dir, name)

        def stage(name, artifact):
            path = os.path.join(out, name + ".txt")
            if name == "mapping":
                mapping.save_mapping(artifact, path)
                artifact = mapping.load_mapping(path)
            else:
                embed.save_embeddings(artifact, path)
                artifact = embed.load_embeddings(path)
            artifacts[name + ".txt"] = path
            return artifact

        art = train_method(scenario, cfg, stage=stage)
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
