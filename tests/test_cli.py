"""End-to-end checks of the command-line interface.

The heavyweight fixture runs the full step chain (gen-synth,
build-scenario, train-embed, train-map, eval) next to a single `run`
invocation with the same seed, then the tests compare artifacts byte for
byte.  Exit-code tests poke each error path.
"""

import contextlib
import io
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import SCENARIO_FILES

import crossrec
from crossrec import embed, experiment, mapping
from crossrec.cli import main
from crossrec.data import load_scenario

GEN_CFG = """\
seed=11
synth.users=60
synth.source_items=50
synth.target_items=50
synth.k_true=4
synth.overlap=0.6
synth.density=0.08
"""

PIPE_CFG = """\
seed=11
phi=1.0
hops=1
lambda=0.5
min_overlap=2
min_other=2
embed.dim=8
embed.epochs=12
embed.lr=0.01
embed.batch=256
map.epochs=8
map.lr=0.01
map.batch=16
eval.cutoffs=5,10
eval.repeats=2
eval.negatives=30
"""

# one config for `run`, setting seed once
RUN_CFG = GEN_CFG + PIPE_CFG.replace("seed=11\n", "")


def _with(cfg, *lines):
    """``cfg`` with each ``key=value`` of ``lines`` in place of the line
    that sets the same key, since a config file sets each key once."""
    keys = {line.split("=")[0] for line in lines}
    kept = [line for line in cfg.splitlines(True)
            if line.split("=")[0] not in keys]
    return "".join(kept) + "".join(line + "\n" for line in lines)


def _read(path, encoding=None):
    """The bytes of the file ``path``, or its text in ``encoding``; the
    file is closed before this returns."""
    with open(path, "rb" if encoding is None else "r",
              encoding=encoding) as fh:
        return fh.read()


def _write(path, text):
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Artifacts from the step chain and from the equivalent `run`."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = _write(root / "gen.cfg", GEN_CFG)
    pipe_cfg = _write(root / "pipe.cfg", PIPE_CFG)
    run_cfg = _write(root / "run.cfg",
                     RUN_CFG + "method=SSCDR\n")

    raw = root / "raw"
    scen = root / "scen"
    assert main(["gen-synth", "--config", gen_cfg, "--out", str(raw)]) == 0
    assert main(["build-scenario", "--config", pipe_cfg,
                 "--source", str(raw / "source.tsv"),
                 "--target", str(raw / "target.tsv"),
                 "--out", str(scen)]) == 0
    src_emb = str(root / "src_emb.txt")
    tgt_emb = str(root / "tgt_emb.txt")
    assert main(["train-embed", "--config", pipe_cfg, "--scenario",
                 str(scen), "--domain", "source", "--out", src_emb]) == 0
    assert main(["train-embed", "--config", pipe_cfg, "--scenario",
                 str(scen), "--domain", "target", "--out", tgt_emb]) == 0
    net = str(root / "map.txt")
    assert main(["train-map", "--config", pipe_cfg, "--scenario", str(scen),
                 "--source-emb", src_emb, "--target-emb", tgt_emb,
                 "--out", net]) == 0
    report = str(root / "report.tsv")
    assert main(["eval", "--config", pipe_cfg, "--scenario", str(scen),
                 "--method", "SSCDR", "--source-emb", src_emb,
                 "--target-emb", tgt_emb, "--mapping", net,
                 "--out", report]) == 0

    run_out = root / "run_out"
    assert main(["run", "--config", run_cfg, "--out", str(run_out)]) == 0
    return {"root": root, "scen": scen, "src_emb": src_emb,
            "tgt_emb": tgt_emb, "net": net, "report": report,
            "run_out": run_out, "pipe_cfg": pipe_cfg}


def test_step_chain_matches_run_byte_for_byte(chain):
    run_out = chain["run_out"]
    for step_path, run_name in (
            (chain["src_emb"], "source_embeddings.txt"),
            (chain["tgt_emb"], "target_embeddings.txt"),
            (chain["net"], "mapping.txt"),
            (chain["report"], "report.tsv")):
        step = _read(step_path)
        full = (run_out / run_name).read_bytes()
        assert step == full, f"{run_name} differs between chain and run"
    names = sorted(os.listdir(chain["scen"]))
    assert names == sorted(os.listdir(run_out / "scenario")) == SCENARIO_FILES
    for name in names:
        assert (chain["scen"] / name).read_bytes() == \
            (run_out / "scenario" / name).read_bytes()


def test_step_chain_writes_the_golden_bytes(chain):
    import golden  # it imports this module's configs
    files = {"source_embeddings.txt": chain["src_emb"],
             "target_embeddings.txt": chain["tgt_emb"],
             "mapping.txt": chain["net"], "report.tsv": chain["report"]}
    files.update((f"scenario/{p.name}", str(p))
                 for p in chain["scen"].iterdir())
    # the chain runs RUN_CFG's SSCDR run as steps; only `run` writes a
    # manifest
    want = golden.load()[golden.case_key("smoke", 11, "SSCDR")]
    del want["manifest.txt"]
    bad = golden.differing(want, {name: golden.digest(path)
                                  for name, path in files.items()})
    assert not bad, f"differs from tests/golden.json: {', '.join(bad)}"


def test_run_writes_complete_manifest(chain):
    manifest = (chain["run_out"] / "manifest.txt").read_text()
    assert manifest.startswith("status=complete\n")
    assert "config.method=SSCDR\n" in manifest
    assert "sha256.report.tsv=" in manifest


def test_export_vectors_round_trip(chain, tmp_path):
    out = str(tmp_path / "vectors.txt")
    assert main(["export-vectors", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--source-emb", chain["src_emb"],
                 "--mapping", chain["net"], "--hops", "1",
                 "--out", out]) == 0
    space = embed.load_embeddings(out)
    scenario = load_scenario(str(chain["scen"]))
    assert space.kind == embed.KIND_INFERRED
    assert set(space.user_ids) == set(scenario.test_users)
    assert space.V.shape[0] == 0


def test_nan_artifact_exits_4(chain, tmp_path):
    poisoned = tmp_path / "poisoned.txt"
    lines = _read(chain["src_emb"], "utf-8").splitlines(True)
    for k, line in enumerate(lines):
        if line.startswith("U "):
            parts = line.split()
            parts[2] = "nan"
            lines[k] = " ".join(parts) + "\n"
            break
    poisoned.write_text("".join(lines), encoding="utf-8")
    code = main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--method", "SSCDR", "--source-emb", str(poisoned),
                 "--target-emb", chain["tgt_emb"],
                 "--mapping", chain["net"],
                 "--out", str(tmp_path / "r.tsv")])
    assert code == 4


def test_eval_missing_artifact_exits_2(chain, tmp_path, capsys):
    out = tmp_path / "r.tsv"
    code = main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--method", "SSCDR", "--source-emb", chain["src_emb"],
                 "--target-emb", chain["tgt_emb"],
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: SSCDR needs --mapping\n"
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "gen-synth" in capsys.readouterr().out


_COMMANDS = ("gen-synth", "build-scenario", "train-embed", "train-map",
             "eval", "run", "export-vectors")


def _flag_help(text):
    """Each option of ``--help`` output ``text`` -> its help text (empty
    for none); the output must be wide enough that no help wraps."""
    out, flag = {}, None
    for line in text.split("\noptions:\n", 1)[1].splitlines():
        if line.startswith("  -"):  # help follows two spaces or a newline
            head, _, help_text = line.strip().partition("  ")
            flag = head.split()[0].rstrip(",")
            out[flag] = help_text.strip()
        else:
            out[flag] = (out[flag] + " " + line.strip()).strip()
    return out


def test_every_command_gives_a_flag_the_same_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")
    seen = {}
    for command in _COMMANDS:
        assert main([command, "--help"]) == 0
        for flag, help_text in _flag_help(capsys.readouterr().out).items():
            assert help_text, f"{command} {flag} has no help"
            assert seen.setdefault(flag, help_text) == help_text, \
                f"{command} {flag}"
    assert {"--config", "--out", "--phi", "--hops", "--lambda",
            "--mapping"} <= set(seen)


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "bogus_key=1\n")
    assert main(["run", "--config", cfg]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_unknown_method_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "m.cfg", GEN_CFG)
    assert main(["run", "--config", cfg, "--method", "NOPE",
                 "--out", str(tmp_path / "o")]) == 2
    assert "NOPE" in capsys.readouterr().err


def test_missing_input_file_exits_3(tmp_path, capsys):
    code = main(["build-scenario",
                 "--source", str(tmp_path / "absent.tsv"),
                 "--target", str(tmp_path / "absent2.tsv"),
                 "--out", str(tmp_path / "scen")])
    assert code == 3
    capsys.readouterr()


def test_malformed_line_exits_3(tmp_path, capsys):
    src = tmp_path / "src.tsv"
    src.write_text("u1\ti1\nnot_a_pair\n", encoding="utf-8")
    tgt = tmp_path / "tgt.tsv"
    tgt.write_text("u1\tj1\n", encoding="utf-8")
    code = main(["build-scenario", "--source", str(src),
                 "--target", str(tgt),
                 "--out", str(tmp_path / "scen")])
    assert code == 3
    assert "2" in capsys.readouterr().err


def test_item_id_starting_with_hash_exits_3(tmp_path, capsys):
    # a line starting with "#" is a comment, so no id may start with one
    src = tmp_path / "src.tsv"
    src.write_text("u1\ti1\nu2\t#i2\n", encoding="utf-8")
    tgt = tmp_path / "tgt.tsv"
    tgt.write_text("u1\tj1\n", encoding="utf-8")
    code = main(["build-scenario", "--source", str(src),
                 "--target", str(tgt), "--out", str(tmp_path / "scen")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}:2: ") and err.count("\n") == 1


def test_method_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "r.cfg", GEN_CFG + "method=SSCDR\nphi=1.0\n"
                 + "min_overlap=2\nmin_other=2\n"
                 + "eval.cutoffs=5\neval.repeats=1\neval.negatives=20\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", "ITEMPOP",
                 "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "config.method=ITEMPOP\n" in manifest
    report = (out / "report.tsv").read_text()
    assert report.splitlines()[1].startswith("ITEMPOP\t")


def test_mismatched_embedding_dims_exit_3(chain, tmp_path, capsys):
    dim6_cfg = _write(tmp_path / "dim6.cfg", _with(PIPE_CFG, "embed.dim=6"))
    tgt6 = str(tmp_path / "tgt6.txt")
    assert main(["train-embed", "--config", dim6_cfg, "--scenario",
                 str(chain["scen"]), "--domain", "target",
                 "--out", tgt6]) == 0
    capsys.readouterr()
    code = main(["train-map", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--source-emb", chain["src_emb"], "--target-emb", tgt6,
                 "--out", str(tmp_path / "map.txt")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: target_space has K=6, but source_space has K=8\n"


def test_non_finite_lambda_exits_2(chain, tmp_path, capsys):
    run_cfg = _write(tmp_path / "r.cfg",
                     RUN_CFG + "method=SSCDR\n")
    assert main(["run", "--config", run_cfg, "--lambda", "nan",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["train-map", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--source-emb", chain["src_emb"],
                 "--target-emb", chain["tgt_emb"], "--lambda", "inf",
                 "--out", str(tmp_path / "map.txt")]) == 2
    assert "lam" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    gen_cfg = _write(tmp_path / "gen.cfg", GEN_CFG)
    run_cfg = _write(tmp_path / "r.cfg",
                     RUN_CFG + "method=SSCDR\n")
    assert main(["gen-synth", "--config", gen_cfg, "--seed", "-1",
                 "--out", str(tmp_path / "raw")]) == 2
    assert main(["run", "--config", run_cfg, "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_run_over_saved_scenario_reports_its_phi(chain, tmp_path):
    raw = chain["root"] / "raw"
    scen = tmp_path / "scen03"
    assert main(["build-scenario", "--config", chain["pipe_cfg"],
                 "--source", str(raw / "source.tsv"),
                 "--target", str(raw / "target.tsv"), "--phi", "0.3",
                 "--out", str(scen)]) == 0
    run_cfg = _write(tmp_path / "r.cfg",
                     PIPE_CFG + f"scenario={scen}\nmethod=ITEMPOP\n")
    assert main(["run", "--config", run_cfg,
                 "--out", str(tmp_path / "o")]) == 0
    report = str(tmp_path / "eval.tsv")
    assert main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(scen), "--method", "ITEMPOP",
                 "--out", report]) == 0
    run_report = (tmp_path / "o" / "report.tsv").read_bytes()
    assert run_report == _read(report)
    assert run_report.splitlines()[1].startswith(b"ITEMPOP\t0.3\t")
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "\nconfig.phi=0.3\n" in manifest


def test_run_over_saved_scenario_records_its_split_settings(chain, tmp_path):
    # the chain's scenario: phi 1, test_fraction 0.5, both thresholds 2
    run_cfg = _write(tmp_path / "r.cfg", _with(
        PIPE_CFG, "phi=0.2", "test_fraction=0.3", "min_overlap=7",
        "min_other=9", f"scenario={chain['scen']}", "method=ITEMPOP"))
    assert main(["run", "--config", run_cfg,
                 "--out", str(tmp_path / "o")]) == 0
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    for line in ("config.phi=1.0", "config.test_fraction=0.5",
                 "config.min_overlap_interactions=2",
                 "config.min_other_interactions=2"):
        assert f"\n{line}\n" in manifest


def test_phi_flag_must_match_a_saved_scenario(chain, tmp_path, capsys):
    # the chain's scenario has phi 1; phi in a config file is not checked
    scen = chain["scen"]
    run_cfg = _write(tmp_path / "r.cfg", _with(
        PIPE_CFG, "phi=0.2", f"scenario={scen}", "method=ITEMPOP"))
    out = tmp_path / "o"
    assert main(["run", "--config", run_cfg, "--phi", "0.5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --phi 0.5 differs from the phi 1 of scenario {scen}\n")
    assert not out.exists()
    assert main(["run", "--config", run_cfg, "--phi", "1",
                 "--out", str(out)]) == 0
    assert "\nconfig.phi=1.0\n" in (out / "manifest.txt").read_text()

    # a broken meta.txt fails as it does without the flag
    broken = tmp_path / "broken"
    shutil.copytree(scen, broken)
    meta = broken / "meta.txt"
    meta.write_text(meta.read_text(encoding="utf-8").replace(
        "phi=1.0\n", "phi=abc\n"), encoding="utf-8")
    broken_cfg = _write(tmp_path / "b.cfg", _with(
        PIPE_CFG, f"scenario={broken}", "method=ITEMPOP"))
    errors = []
    for flag in (["--phi", "1"], []):
        assert main(["run", "--config", broken_cfg, *flag,
                     "--out", str(tmp_path / f"b{len(flag)}")]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"error: {meta}: bad value 'abc' for key phi\n")
    assert not (tmp_path / "b2").exists()


def test_export_vectors_takes_hops_from_the_config(chain, tmp_path,
                                                    capsys):
    # PIPE_CFG sets hops=1
    paths = [str(tmp_path / "flag.txt"), str(tmp_path / "config.txt")]
    for path, flag in zip(paths, (["--hops", "1"], [])):
        assert main(["export-vectors", "--config", chain["pipe_cfg"],
                     "--scenario", str(chain["scen"]),
                     "--source-emb", chain["src_emb"],
                     "--mapping", chain["net"], "--out", path, *flag]) == 0
        assert "(hops=1)" in capsys.readouterr().out
    assert _read(paths[0]) == _read(paths[1])


def test_export_vectors_rejects_negative_hops(chain, tmp_path, capsys):
    out = tmp_path / "vectors.txt"
    assert main(["export-vectors", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--source-emb", chain["src_emb"], "--mapping", chain["net"],
                 "--hops", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "hops" in err
    assert not out.exists()


def _tree(root):
    """Every file under ``root`` by relative path, the manifest without its
    ``out_dir`` line."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = b"".join(line for line in data.splitlines(True)
                                if not line.startswith(b"config.out_dir="))
            out[str(path.relative_to(root))] = data
    return out


def test_flags_override_like_their_config_keys(tmp_path, capsys):
    base = RUN_CFG + "method=SSCDR\n"
    settings = {"lambda": "2.0", "phi": "0.5", "hops": "2", "seed": "3"}
    in_file = _write(tmp_path / "file.cfg", _with(base, *(
        f"{key}={value}" for key, value in settings.items())))
    plain = _write(tmp_path / "plain.cfg", base)
    flags = [arg for key, value in settings.items()
             for arg in (f"--{key}", value)]
    assert main(["run", "--config", in_file,
                 "--out", str(tmp_path / "file")]) == 0
    assert main(["run", "--config", plain, *flags,
                 "--out", str(tmp_path / "flags")]) == 0
    capsys.readouterr()
    by_file, by_flags = _tree(tmp_path / "file"), _tree(tmp_path / "flags")
    assert "mapping.txt" in by_file
    assert b"config.map_lam=2.0\n" in by_file["manifest.txt"]
    assert by_file == by_flags


_META_KEYS = ("phi", "seed", "test_fraction", "min_overlap_interactions",
              "min_other_interactions", "train_overlap_users")


@pytest.mark.parametrize("key", _META_KEYS)
def test_scenario_meta_missing_a_key_exits_3(chain, tmp_path, capsys, key):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    meta = scen / "meta.txt"
    lines = meta.read_text(encoding="utf-8").splitlines(True)
    kept = [line for line in lines if not line.startswith(key + "=")]
    assert len(kept) == len(lines) - 1
    meta.write_text("".join(kept), encoding="utf-8")
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", "ITEMPOP", "--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # tmp_path holds the key too, so look at the message's end
    assert "meta.txt: " in err and err.endswith(f" {key}\n")
    assert not report.exists()
    run_cfg = _write(tmp_path / "r.cfg",
                     PIPE_CFG + f"scenario={scen}\nmethod=ITEMPOP\n")
    out = tmp_path / "o"
    assert main(["run", "--config", run_cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.endswith(f" {key}\n")
    assert (out / "manifest.txt").read_text().startswith(
        "status=failed\nerror=DataError\n")


@pytest.mark.parametrize("case", ["repeated user", "id with a space",
                                  "id starting with #"])
def test_scenario_malformed_test_file_exits_3(chain, tmp_path, capsys, case):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    test = scen / "test.tsv"
    lines = test.read_text(encoding="utf-8").splitlines(True)
    if case == "repeated user":
        lines.insert(1, lines[0])
    else:
        user, _, valid = lines[1].split("\t")
        bad = "z z" if case == "id with a space" else "#z"
        lines[1] = f"{user}\t{bad}\t{valid}"
    test.write_text("".join(lines), encoding="utf-8")
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", "ITEMPOP", "--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{test}:2: " in err
    assert not report.exists()


def test_scenario_without_test_users_exits_3(chain, tmp_path, capsys):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    (scen / "test.tsv").write_text("", encoding="utf-8")
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", "ITEMPOP", "--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {scen / 'test.tsv'}: no test users\n"
    assert not report.exists()


# meta.txt's train_overlap_users breaking one rule, and the end of the
# error that names it
_BAD_LINKED = {"linked-id-twice": "is repeated",
               "linked-id-unknown": "'nobody' has no pairs in source.tsv",
               "linked-test-user": "is a test user",
               "linked-not-source": "has no pairs in source.tsv",
               "linked-not-target": "has no pairs in target_train.tsv"}


def _break_relation(scen, case):
    """Edit the saved scenario ``scen`` to break one relation between its
    files that build_scenario guarantees; the file and the line the error
    names, the line None where it names none."""
    s = load_scenario(str(scen))
    user = s.test_users[0]
    if case in _BAD_LINKED:
        linked = s.train_overlap_users + {
            "linked-id-twice": s.train_overlap_users[:1],
            "linked-id-unknown": ("nobody",),
            "linked-test-user": (user,)}.get(case, ())
        meta = scen / "meta.txt"
        meta.write_text("".join(
            f"train_overlap_users={','.join(linked)}\n"
            if line.startswith("train_overlap_users=") else line
            for line in meta.read_text(encoding="utf-8").splitlines(True)),
            encoding="utf-8")
        domain = {"linked-not-source": "source.tsv",
                  "linked-not-target": "target_train.tsv"}.get(case)
        if domain:  # drop the last train-overlap user's pairs
            path = scen / domain
            path.write_text("".join(
                line for line in path.read_text(encoding="utf-8")
                .splitlines(True)
                if not line.startswith(f"{s.train_overlap_users[-1]}\t")),
                encoding="utf-8")
        return meta, None
    path = scen / {"test-user-trains": "target_train.tsv",
                   "test-user-not-source": "source.tsv",
                   "equal-held-out-items": "test.tsv"}[case]
    lines = path.read_text(encoding="utf-8").splitlines(True)
    lineno = None
    if case == "test-user-trains":  # its own test item: a silent leak
        lines.append(f"{user}\t{s.heldout[user][0]}\n")
    elif case == "test-user-not-source":
        lines = [line for line in lines if not line.startswith(f"{user}\t")]
    else:  # equal-held-out-items
        test_user, item, _ = lines[1].split("\t")
        lines[1], lineno = f"{test_user}\t{item}\t{item}\n", 2
    path.write_text("".join(lines), encoding="utf-8")
    return path, lineno


@pytest.mark.parametrize("case", [
    "test-user-trains", "equal-held-out-items", *_BAD_LINKED])
def test_scenario_breaking_a_split_relation_exits_3(chain, tmp_path, capsys,
                                                    case):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    path, lineno = _break_relation(scen, case)
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", "ITEMPOP", "--out", str(report)]) == 3
    err = capsys.readouterr().err
    where = f"{path}:{lineno}: " if lineno else f"{path}: "
    assert err.startswith(f"error: {where}") and err.count("\n") == 1
    if case in _BAD_LINKED:
        assert err.endswith(f" {_BAD_LINKED[case]}\n")
    assert not report.exists()


@pytest.mark.parametrize("method", ["EMCDR-CML", "SSCDR"])
def test_a_test_user_missing_from_source_exits_3(chain, tmp_path, capsys,
                                                 method):
    # a method that translates source vectors, with and without hops
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    path, _ = _break_relation(scen, "test-user-not-source")
    user = load_scenario(str(chain["scen"])).test_users[0]
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", method, "--source-emb",
                 chain["src_emb"], "--target-emb", chain["tgt_emb"],
                 "--mapping", chain["net"], "--out", str(report)]) == 3
    assert capsys.readouterr().err == \
        f"error: {path}: lacks test user {user!r}\n"
    assert not report.exists()


def test_failed_run_marks_its_manifest(tmp_path, capsys):
    src = tmp_path / "src.tsv"
    src.write_text("u1\ti1\nnot_a_pair\n", encoding="utf-8")
    tgt = tmp_path / "tgt.tsv"
    tgt.write_text("u1\tj1\n", encoding="utf-8")
    cfg = _write(tmp_path / "r.cfg", f"source={src}\ntarget={tgt}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", "ITEMPOP",
                 "--out", str(out)]) == 3
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith("status=failed\nerror=MalformedLine\n")
    capsys.readouterr()


def test_an_error_of_no_crossrec_class_is_not_an_exit_code(
        tmp_path, capsys, monkeypatch):
    # only crossrec's errors and OSError are exits; any other is a bug
    def broken(*args):
        raise ValueError("broken stage")
    monkeypatch.setattr(experiment, "evaluate_method", broken)
    cfg = _write(tmp_path / "r.cfg", RUN_CFG)
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="broken stage"):
        main(["run", "--config", cfg, "--method", "ITEMPOP",
              "--out", str(out)])
    assert _read(out / "manifest.txt", "utf-8").startswith(
        "status=failed\nerror=ValueError\n")
    assert capsys.readouterr().err == ""


def test_negative_seed_is_rejected_before_any_file(tmp_path, capsys):
    cfg = _write(tmp_path / "r.cfg", GEN_CFG)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", "ITEMPOP",
                 "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["eval.positive=test",
                                     "eval.repeats=0", "eval.cutoffs=0"])
def test_bad_eval_setting_is_rejected_before_any_file(tmp_path, capsys,
                                                      setting):
    cfg = _write(tmp_path / "r.cfg", _with(RUN_CFG, setting))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", "BPR",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


# a bad value for a setting the method does not train with, or for the
# split or the generator, which `run` uses only after making its output
# directory
_CHECKED_WHATEVER_THE_METHOD = [
    *(("ITEMPOP", v) for v in ("lambda=nan", "embed.lr=inf", "map.margin=-1",
                               "embed.dim=0", "map.lr=nan", "embed.l2=nan")),
    *((m, v) for m in ("BPR", "CML") for v in ("lambda=nan", "map.lr=inf")),
    ("ITEMPOP", "phi=inf"), ("SSCDR", "phi=nan"),
    ("ITEMPOP", "eval.cutoffs=10,10"), ("ITEMPOP", "eval.cutoffs=5,,10"),
    ("ITEMPOP", "eval.cutoffs=10,"),
    ("BPR", "test_fraction=nan"), ("ITEMPOP", "min_other=0"),
    *(("ITEMPOP", v) for v in ("synth.density=nan", "synth.overlap=inf",
                               "synth.source_items=0")),
]


@pytest.mark.parametrize("method, setting", _CHECKED_WHATEVER_THE_METHOD)
def test_every_value_is_checked_whatever_the_method(tmp_path, capsys, method,
                                                    setting):
    cfg = _write(tmp_path / "r.cfg", _with(RUN_CFG, setting))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", method,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_infeasible_synth_density_fails_before_any_file(tmp_path, capsys):
    # 0.001 of 50 items rounds to no item per user
    cfg = _write(tmp_path / "r.cfg", _with(RUN_CFG, "synth.density=0.001"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", "ITEMPOP",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_hops_in_a_config_file_applies_to_every_method(chain, tmp_path):
    # only the --hops flag is SSCDR's; PIPE_CFG sets the key hops
    assert main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]), "--method", "EMCDR-CML",
                 "--source-emb", chain["src_emb"],
                 "--target-emb", chain["tgt_emb"], "--mapping", chain["net"],
                 "--out", str(tmp_path / "r.tsv")]) == 0


def test_each_command_checks_the_flags_it_takes(chain, tmp_path, capsys):
    # the flag table test below covers the method-bound flags;
    # build-scenario over a saved scenario (phi 1) checks --phi as run does
    scen = chain["scen"]
    cfg = _write(tmp_path / "s.cfg", PIPE_CFG + f"scenario={scen}\n")
    out = tmp_path / "scen"
    assert main(["build-scenario", "--config", cfg, "--phi", "0.5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --phi 0.5 differs from the phi 1 of scenario {scen}\n")
    assert not out.exists()


def test_an_unknown_method_is_named_before_a_flag_check(chain, tmp_path,
                                                        capsys):
    run_cfg = _write(tmp_path / "r.cfg", RUN_CFG)
    for argv in (["eval", "--config", chain["pipe_cfg"], "--scenario",
                  str(chain["scen"]), "--hops", "3"],
                 ["run", "--config", run_cfg, "--lambda", "4"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--method", "BOGUS", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown method 'BOGUS'; expected one of ITEMPOP, BPR, "
            "CML, EMCDR-BPR, EMCDR-CML, SSCDR-naive, SSCDR\n")
        assert not out.exists()


@pytest.mark.parametrize("method, flag, path", [
    ("ITEMPOP", "--mapping", "missing.txt"),
    ("EMCDR-CML", "--unified-emb", "missing.txt")])
def test_eval_rejects_an_artifact_flag_its_method_does_not_use(
        chain, tmp_path, capsys, method, flag, path):
    # before it looks for the file; the table test below passes one
    path = str(tmp_path / path)
    used = [] if method == "ITEMPOP" else [
        "--source-emb", chain["src_emb"], "--target-emb", chain["tgt_emb"],
        "--mapping", chain["net"]]
    out = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]), "--method", method,
                 *used, flag, path, "--out", str(out)]) == 2
    takers = ("BPR and CML" if flag == "--unified-emb" else
              "EMCDR-BPR and EMCDR-CML and SSCDR-naive and SSCDR")
    assert capsys.readouterr().err == (
        f"error: {flag} applies to {takers} only, not {method}\n")
    assert not out.exists()


# each method-bound flag -> the commands that take it, the methods that
# read it
_FLAG_TAKERS = {
    "--hops": (("run", "eval"), ("SSCDR",)),
    "--lambda": (("run", "train-map"), ("SSCDR-naive", "SSCDR")),
    "--unified-emb": (("eval",), ("BPR", "CML")),
    **{flag: (("eval",), ("EMCDR-BPR", "EMCDR-CML", "SSCDR-naive", "SSCDR"))
       for flag in ("--source-emb", "--target-emb", "--mapping")},
}


@pytest.mark.parametrize("command, flag, method", [
    (command, flag, method) for flag, (commands, _) in _FLAG_TAKERS.items()
    for command in commands for method in experiment.METHODS])
def test_a_method_bound_flag_is_checked_before_any_value(
        chain, tmp_path, capsys, command, flag, method):
    """Under a config with a bad ``eval.repeats``, a method that does not
    read the flag exits 2 naming the flag and its takers, and one that
    reads it gets as far as the bad value; nothing is written.  Under
    ``eval``, an artifact flag was checked after the config's values."""
    cfg = _write(tmp_path / "c.cfg", _with(
        RUN_CFG if command == "run" else PIPE_CFG, "eval.repeats=0"))
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--method", method, "--out", str(out),
            flag, "4" if flag in ("--hops", "--lambda") else chain["src_emb"]]
    if command != "run":
        argv += ["--scenario", str(chain["scen"])]
    if command == "train-map":
        argv += ["--source-emb", chain["src_emb"],
                 "--target-emb", chain["tgt_emb"]]
    assert main(argv) == 2
    takers = _FLAG_TAKERS[flag][1]
    assert capsys.readouterr().err == (
        "error: repeats must be >= 1\n" if method in takers else
        f"error: {flag} applies to {' and '.join(takers)} only, "
        f"not {method}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-synth", "export-vectors"])
def test_a_command_without_method_flag_rejects_an_unknown_method(
        chain, tmp_path, capsys, command):
    cfg = _write(tmp_path / "c.cfg", GEN_CFG + "method=BOGUS\n")
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "export-vectors":
        argv += ["--scenario", str(chain["scen"]), "--source-emb",
                 chain["src_emb"], "--mapping", chain["net"]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: unknown method 'BOGUS'")
    assert not out.exists()


def test_l2_on_a_metric_objective_exits_2(chain, tmp_path, capsys):
    l2 = "embed.l2=0.5\n"
    run_cfg = _write(tmp_path / "r.cfg", RUN_CFG + l2)
    assert main(["run", "--config", run_cfg, "--method", "CML",
                 "--out", str(tmp_path / "cml")]) == 2
    assert not (tmp_path / "cml").exists()
    assert "embed.l2" in capsys.readouterr().err
    # the default method, SSCDR, trains metric spaces; train-embed reads
    # its scenario from --scenario, so its config names no data source
    pipe_cfg = _write(tmp_path / "p.cfg", PIPE_CFG + l2)
    assert main(["train-embed", "--config", pipe_cfg,
                 "--scenario", str(chain["scen"]), "--domain", "source",
                 "--out", str(tmp_path / "src.txt")]) == 2
    assert "embed.l2" in capsys.readouterr().err
    assert not (tmp_path / "src.txt").exists()
    assert main(["run", "--config", run_cfg, "--method", "BPR",
                 "--out", str(tmp_path / "bpr")]) == 0
    assert (tmp_path / "bpr" / "report.tsv").exists()


def _space_rows(path):
    lines = _read(path, "utf-8").splitlines(True)
    return lines[0].split(), lines[1:]


def _write_space(path, header, rows):
    path.write_text(" ".join(header) + "\n" + "".join(rows),
                    encoding="utf-8")
    return str(path)


def _drop_row(src, dst, tag, row_id):
    """Copy of the space at ``src`` without the ``tag`` row of ``row_id``."""
    header, rows = _space_rows(src)
    count = 3 if tag == "U" else 5
    header[count] = str(int(header[count]) - 1)
    kept = [r for r in rows if not r.startswith(f"{tag} {row_id} ")]
    assert len(kept) == len(rows) - 1
    return _write_space(dst, header, kept)


def _step(chain, command, src_emb, tgt_emb, out):
    """argv of one artifact-reading step over the chain's scenario."""
    common = ["--config", chain["pipe_cfg"], "--scenario",
              str(chain["scen"]), "--source-emb", src_emb]
    if command == "train-map":
        return ["train-map", *common, "--target-emb", tgt_emb,
                "--out", out]
    if command == "eval":
        return ["eval", *common, "--target-emb", tgt_emb, "--method",
                "SSCDR", "--mapping", chain["net"], "--out", out]
    hops = command.split("-hops")[1]  # export-hops<N>
    return ["export-vectors", *common, "--mapping", chain["net"],
            "--hops", hops, "--out", out]


# (step, space with the missing row, row tag, which id it lacks)
_MISALIGNED = {
    "eval-target-item": (
        "eval", "tgt_emb", "V", lambda s: s.target.item_ids[0]),
    "train-map-source-item": (
        "train-map", "src_emb", "V", lambda s: s.source.item_ids[0]),
    "train-map-target-user": (
        "train-map", "tgt_emb", "U", lambda s: s.train_overlap_users[0]),
    "export-hops0-test-user": (
        "export-hops0", "src_emb", "U", lambda s: s.test_users[0]),
    "export-hops2-test-user": (
        "export-hops2", "src_emb", "U", lambda s: s.test_users[0]),
}


@pytest.mark.parametrize("case", list(_MISALIGNED))
def test_misaligned_space_exits_3(chain, tmp_path, capsys, case):
    command, space, tag, pick = _MISALIGNED[case]
    missing = pick(load_scenario(str(chain["scen"])))
    paths = {"src_emb": chain["src_emb"], "tgt_emb": chain["tgt_emb"]}
    paths[space] = _drop_row(chain[space], tmp_path / "short.txt", tag,
                             missing)
    code = main(_step(chain, command, paths["src_emb"], paths["tgt_emb"],
                      str(tmp_path / "out")))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(missing) in err
    assert not (tmp_path / "out").exists()


def test_space_with_a_repeated_id_exits_3(chain, tmp_path, capsys):
    user = load_scenario(str(chain["scen"])).test_users[0]
    header, rows = _space_rows(chain["src_emb"])
    header[3] = str(int(header[3]) + 1)
    row = next(r for r in rows if r.startswith(f"U {user} "))
    doubled = _write_space(tmp_path / "doubled.txt", header, rows + [row])
    code = main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]), "--method", "EMCDR-CML",
                 "--source-emb", doubled, "--target-emb", chain["tgt_emb"],
                 "--mapping", chain["net"],
                 "--out", str(tmp_path / "r.tsv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: {doubled}: repeated user id {user!r}\n"


def test_space_row_outside_the_unit_ball_exits_3(chain, tmp_path, capsys):
    header, rows = _space_rows(chain["src_emb"])
    k = next(k for k, r in enumerate(rows) if r.startswith("V "))
    fields = rows[k].split()
    rows[k] = " ".join(fields[:2] + ["1"] * (len(fields) - 2)) + "\n"
    outside = _write_space(tmp_path / "outside.txt", header, rows)
    report = tmp_path / "r.tsv"
    assert _eval_sscdr(chain, report, src_emb=outside) == 3
    err = capsys.readouterr().err
    assert err == f"error: {outside}: metric rows must lie in the unit ball\n"
    assert not report.exists()


@pytest.fixture(scope="module")
def exported(chain):
    """export-vectors of the chain's own spaces at hops 0 and 2."""
    out = {}
    for hops in ("0", "2"):
        path = chain["root"] / f"exported{hops}.txt"
        assert main(_step(chain, f"export-hops{hops}", chain["src_emb"],
                          chain["tgt_emb"], str(path))) == 0
        out[hops] = path.read_bytes()
    return out


def test_export_vectors_writes_the_golden_bytes(chain, exported):
    import golden  # it imports this module's configs
    got = {f"hops{hops}.txt": golden.digest(chain["root"] /
                                            f"exported{hops}.txt")
           for hops in exported}
    bad = golden.differing(golden.load()[golden.EXPORT_KEY], got)
    assert not bad, f"differs from tests/golden.json: {', '.join(bad)}"


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_row_order_of_saved_spaces_does_not_matter(chain, exported, data):
    """Spaces line up with the scenario by id: shuffling the rows of the
    source and target spaces changes no output byte."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        paths = {}
        for key in ("src_emb", "tgt_emb"):
            header, rows = _space_rows(chain[key])
            paths[key] = _write_space(tmp / f"{key}.txt", header,
                                      data.draw(st.permutations(rows)))
        want = {"train-map": _read(chain["net"]),
                "eval": _read(chain["report"]),
                "export-hops0": exported["0"],
                "export-hops2": exported["2"]}
        for command, expected in want.items():
            out = tmp / command
            assert main(_step(chain, command, paths["src_emb"],
                              paths["tgt_emb"], str(out))) == 0
            assert out.read_bytes() == expected, command


# (step, the artifact it loads that gets poisoned)
_ARTIFACT_LOADS = [("train-map", "src_emb"), ("train-map", "tgt_emb"),
                   ("eval", "src_emb"), ("eval", "tgt_emb"), ("eval", "net"),
                   ("export-hops2", "src_emb"), ("export-hops2", "net")]


def _poison(src, dst, value):
    """Copy of the artifact at ``src`` whose first value in its first item
    row (a space's first ``V`` row, a mapping's first weight) is
    ``value``."""
    lines = _read(src, "utf-8").splitlines(True)
    k = next(k for k, line in enumerate(lines)
             if k > 0 and not line.startswith("U "))
    parts = lines[k].split()
    parts[2 if parts[0] == "V" else 0] = value
    lines[k] = " ".join(parts) + "\n"
    dst.write_text("".join(lines), encoding="utf-8")
    return str(dst)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,artifact", _ARTIFACT_LOADS)
def test_non_finite_artifact_exits_4_naming_the_file(chain, tmp_path, capsys,
                                                     command, artifact,
                                                     value):
    poisoned = _poison(chain[artifact], tmp_path / "poisoned.txt", value)
    argv = _step(chain, command, chain["src_emb"], chain["tgt_emb"],
                 str(tmp_path / "out"))
    code = main([poisoned if a == chain[artifact] else a for a in argv])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert poisoned in err
    assert not (tmp_path / "out").exists()


def _b1_line(lines):
    """Index of a mapping's ``b1`` row: after the header and 2K w1 rows."""
    return 2 * int(lines[0].split()[1]) + 1


# artifact, index of the line to edit, the edit of its fields, and the
# message after ``path:lineno: `` (the chain's K is 8)
_BAD_ROWS = {
    "space-non-numeric": (
        "src_emb", lambda lines: next(k for k, line in enumerate(lines)
                                      if line.startswith("V ")),
        lambda f: f[:2] + ["abc"] + f[3:],
        "could not convert string to float: 'abc'"),
    "mapping-non-numeric": ("net", lambda lines: 1,
                            lambda f: ["x" + f[0]] + f[1:],
                            "could not convert string to float: 'x"),
    "mapping-row-short": ("net", lambda lines: 1, lambda f: f[:-1],
                          "expected 8 values, got 7"),
    "mapping-b1-long": ("net", _b1_line, lambda f: f + ["0.5"],
                        "expected 16 values, got 17"),
    "space-row-short": ("src_emb", lambda lines: 3, lambda f: f[:-1],
                        "expected 8 values, got 7"),
    # the first V row made a U row: one U row more than the header says
    "space-extra-u-row": (
        "src_emb", lambda lines: next(k for k, line in enumerate(lines)
                                      if line.startswith("V ")),
        lambda f: ["U"] + f[1:], "more U rows than the header declares"),
}


@pytest.mark.parametrize("case", list(_BAD_ROWS))
def test_malformed_artifact_row_exits_3_naming_the_file_and_line(
        chain, tmp_path, capsys, case):
    artifact, pick, edit, text = _BAD_ROWS[case]
    lines = _read(chain[artifact], "utf-8").splitlines(True)
    k = pick(lines)
    lines[k] = " ".join(edit(lines[k].split())) + "\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(lines), encoding="utf-8")
    argv = _step(chain, "export-hops2", chain["src_emb"], chain["tgt_emb"],
                 str(tmp_path / "out"))
    code = main([str(bad) if a == chain[artifact] else a for a in argv])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{k + 1}: {text}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _artifact_of_dim(chain, name, dim, path):
    """A zero-valued space (the ids of the space ``name``) or mapping of K
    ``dim``."""
    if name == "net":
        net = mapping.init_mapping(dim, np.random.default_rng(0))
        mapping.save_mapping(net, path)
    else:
        space = embed.load_embeddings(chain[name])
        embed.save_embeddings(embed.EmbeddingSpace(
            space.user_ids, space.item_ids, np.zeros((len(space.user_ids),
                                                      dim)),
            np.zeros((len(space.item_ids), dim)), space.kind), path)
    return str(path)


@pytest.mark.parametrize("command, artifact, dim, message", [
    ("eval", "tgt_emb", 4, "target_space has K=4, but source_space has K=8"),
    ("eval", "net", 2, "net has K=2, but source_space has K=8"),
    ("export-hops0", "net", 2, "net has K=2, but source_space has K=8"),
    ("export-hops0", "src_emb", 4, "net has K=8, but source_space has K=4")],
    ids=["target-space", "mapping", "export-mapping", "export-source-space"])
def test_artifacts_of_another_dim_exit_3_before_scoring(
        chain, tmp_path, capsys, command, artifact, dim, message):
    other = _artifact_of_dim(chain, artifact, dim, tmp_path / "other.txt")
    out = tmp_path / "out"
    argv = _step(chain, command, chain["src_emb"], chain["tgt_emb"],
                 str(out))
    assert main([other if a == chain[artifact] else a for a in argv]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _corrupt(draw, chain, artifact, how, path):
    """Write to ``path`` a copy of the chain's ``artifact`` corrupted the
    way ``how`` names, with ``draw`` choosing where."""
    if how == "other-k":
        return _artifact_of_dim(chain, artifact, draw(st.sampled_from(
            [1, 2, 4, 7, 9, 16])), path)
    lines = _read(chain[artifact], "utf-8").splitlines(True)
    if how == "empty":
        lines = []
    elif how == "header-count":  # a space's K, U or V count, a mapping's K
        header = lines[0].split()
        k = draw(st.sampled_from([1, 3, 5] if artifact == "src_emb" else [1]))
        header[k] = str(int(header[k]) + draw(st.sampled_from([-1, 1])))
        lines[0] = " ".join(header) + "\n"
    else:  # edit one value of one row; a space row starts with tag and id
        k = draw(st.integers(1, len(lines) - 1))
        fields = lines[k].split()
        j = draw(st.integers(2 if artifact == "src_emb" else 0,
                             len(fields) - 1))
        if how == "drop":
            del fields[j]
        elif how == "add":
            fields.insert(j, fields[j])
        else:
            fields[j] = draw(st.sampled_from(
                ["nan", "-nan", "inf", "-inf", "Infinity"]
                if how == "non-finite" else ["abc", "1,5", "1.2.3", "e5"]))
        lines[k] = " ".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_corrupt_artifact_fails_export_with_one_error_line(chain, data):
    """export-vectors over a corrupted copy of the chain's source space or
    mapping exits 3, or 4 for a NaN or infinity, with one ``error:`` line
    and no output file."""
    artifact = data.draw(st.sampled_from(["src_emb", "net"]))
    how = data.draw(st.sampled_from(["drop", "add", "non-number",
                                     "non-finite", "header-count", "empty",
                                     "other-k"]))
    hops = data.draw(st.sampled_from(["0", "2"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        bad = _corrupt(data.draw, chain, artifact, how, tmp / "bad.txt")
        argv = _step(chain, f"export-hops{hops}", chain["src_emb"],
                     chain["tgt_emb"], str(tmp / "out"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([bad if a == chain[artifact] else a for a in argv])
        assert code == (4 if how == "non-finite" else 3), err.getvalue()
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert not (tmp / "out").exists()


# criterion-7-like domains whose target pool is far below 999 negatives
SMALL_POOL_CFG = """\
synth.users=200
synth.source_items=150
synth.target_items=150
synth.density=0.05
min_overlap=3
min_other=3
"""


def test_oversized_negative_count_fails_before_training(tmp_path, capsys):
    cfg = _write(tmp_path / "r.cfg", SMALL_POOL_CFG)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", "SSCDR",
                 "--out", str(out)]) == 3
    assert "need 999" in capsys.readouterr().err
    for name in ("source_embeddings.txt", "target_embeddings.txt",
                 "mapping.txt", "report.tsv"):
        assert not (out / name).exists(), name
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith(
        "status=failed\nerror=InsufficientCandidates\n")


def test_eval_checks_the_negative_pool_before_reading_artifacts(
        chain, tmp_path, capsys):
    cfg = _write(tmp_path / "big.cfg", _with(PIPE_CFG, "eval.negatives=999"))
    missing = str(tmp_path / "no_such_space.txt")
    assert main(["eval", "--config", cfg, "--scenario", str(chain["scen"]),
                 "--method", "SSCDR", "--source-emb", chain["src_emb"],
                 "--target-emb", missing, "--mapping", chain["net"],
                 "--out", str(tmp_path / "r.tsv")]) == 3
    err = capsys.readouterr().err
    assert "negative pool has" in err and "need 999" in err
    assert missing not in err


# what each method's step chain trains, and the file `run` writes it to
_METHOD_STEPS = {
    "ITEMPOP": (),
    "BPR": ("unified",),
    "CML": ("unified",),
    "EMCDR-BPR": ("source", "target", "map"),
    "EMCDR-CML": ("source", "target", "map"),
    "SSCDR-naive": ("source", "target", "map"),
    "SSCDR": ("source", "target", "map"),
}
_RUN_FILES = {"source": "source_embeddings.txt",
              "target": "target_embeddings.txt",
              "unified": "unified_embeddings.txt", "map": "mapping.txt",
              "report": "report.tsv"}
_EVAL_FLAGS = {"source": "--source-emb", "target": "--target-emb",
               "unified": "--unified-emb", "map": "--mapping"}


@pytest.mark.parametrize("method", list(_METHOD_STEPS))
def test_step_chain_trains_what_run_trains(chain, tmp_path, capsys, method):
    """With ``method`` in the config, the steps take their objective and
    mapping mode from it, so every file matches `run`'s."""
    cfg = _write(tmp_path / "m.cfg", PIPE_CFG + f"method={method}\n")
    scen = str(chain["scen"])
    files = {}
    for step in _METHOD_STEPS[method]:
        out = files[step] = str(tmp_path / f"{step}.txt")
        if step == "map":
            argv = ["train-map", "--source-emb", files["source"],
                    "--target-emb", files["target"]]
        else:
            argv = ["train-embed", "--domain", step]
        assert main([*argv, "--config", cfg, "--scenario", scen,
                     "--out", out]) == 0
    flags = [x for step, path in files.items()
             for x in (_EVAL_FLAGS[step], path)]
    files["report"] = str(tmp_path / "report.tsv")
    assert main(["eval", "--config", cfg, "--scenario", scen, "--method",
                 method, *flags, "--out", files["report"]]) == 0
    run_cfg = _write(tmp_path / "r.cfg",
                     PIPE_CFG + f"method={method}\nscenario={scen}\n")
    run_out = tmp_path / "run"
    assert main(["run", "--config", run_cfg, "--out", str(run_out)]) == 0
    capsys.readouterr()
    assert {p.name for p in run_out.iterdir() if p.is_file()} == \
        {_RUN_FILES[step] for step in files} | {"manifest.txt"}
    for step, path in files.items():
        assert _read(path) == \
            (run_out / _RUN_FILES[step]).read_bytes(), step


@pytest.mark.parametrize("method,step", [("SSCDR", "unified"),
                                         ("ITEMPOP", "source"),
                                         ("BPR", "map")])
def test_step_the_method_does_not_train_exits_2(chain, tmp_path, capsys,
                                                method, step):
    out = tmp_path / "out.txt"
    if step == "map":
        argv = ["train-map", "--source-emb", chain["src_emb"],
                "--target-emb", chain["tgt_emb"]]
    else:
        argv = ["train-embed", "--domain", step]
    assert main([*argv, "--config", chain["pipe_cfg"], "--method", method,
                 "--scenario", str(chain["scen"]), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {method} does not train ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_build_scenario_rejects_an_unknown_method(chain, tmp_path, capsys):
    raw = chain["root"] / "raw"
    cfg = _write(tmp_path / "b.cfg", PIPE_CFG + "method=BOGUS\n")
    out = tmp_path / "scen"
    assert main(["build-scenario", "--config", cfg,
                 "--source", str(raw / "source.tsv"),
                 "--target", str(raw / "target.tsv"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'BOGUS'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train-map", "eval-exported"])
def test_space_of_the_wrong_kind_exits_3(chain, exported, tmp_path, capsys,
                                         command):
    src_emb, method, kind, want = (chain["src_emb"], "EMCDR-BPR", "metric",
                                   "inner")
    if command == "eval-exported":
        # an export-vectors file holds inferred vectors, not a space
        src_emb = str(tmp_path / "exported.txt")
        pathlib.Path(src_emb).write_bytes(exported["0"])
        command, method, kind, want = "eval", "SSCDR", "inferred", "metric"
    out = tmp_path / "out"
    argv = _step(chain, command, src_emb, chain["tgt_emb"], str(out))
    # the last --method flag wins over the one _step gives eval
    assert main([*argv, "--method", method]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: source_space is a {kind} space, but {method} "
                   f"uses {want} spaces\n")
    assert not out.exists()


def test_repeated_config_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "gen.cfg", GEN_CFG + "seed=2\n")
    out = tmp_path / "raw"
    assert main(["gen-synth", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:8: key 'seed' is set twice\n"
    assert not out.exists()


def test_non_utf8_config_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_bytes(GEN_CFG.encode() + b"# \xff\n")
    out = tmp_path / "raw"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not UTF-8 text (")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["source.tsv", "meta.txt", "test.tsv",
                                  "embedding", "mapping"])
def test_non_utf8_data_file_exits_3_naming_the_file(chain, tmp_path, capsys,
                                                    kind):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    raw = chain["root"] / "raw"
    files = {name: scen / name
             for name in ("meta.txt", "test.tsv")}
    for name, src in (("source.tsv", raw / "source.tsv"),
                      ("embedding", chain["src_emb"]),
                      ("mapping", chain["net"])):
        files[name] = pathlib.Path(shutil.copy(src, tmp_path))
    bad = files[kind]
    bad.write_bytes(bad.read_bytes() + b"u\xff\ti1\n")
    out = tmp_path / "out"
    if kind == "source.tsv":
        argv = ["build-scenario", "--source", str(bad),
                "--target", str(raw / "target.tsv")]
    else:
        argv = ["eval", "--scenario", str(scen), "--method", "SSCDR",
                "--source-emb", str(files["embedding"]),
                "--target-emb", chain["tgt_emb"],
                "--mapping", str(files["mapping"])]
    assert main([*argv, "--config", chain["pipe_cfg"], "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text (")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", [k for k in _META_KEYS
                                 if k != "train_overlap_users"])
def test_scenario_meta_bad_value_exits_3(chain, tmp_path, capsys, key):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    meta = scen / "meta.txt"
    lines = [f"{key}=abc\n" if line.startswith(key + "=") else line
             for line in meta.read_text(encoding="utf-8").splitlines(True)]
    meta.write_text("".join(lines), encoding="utf-8")
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", "ITEMPOP", "--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {meta}: bad value 'abc' for key {key}\n"
    assert not report.exists()


def test_space_header_larger_than_its_file_exits_3(chain, tmp_path, capsys):
    header, rows = _space_rows(chain["src_emb"])
    header[3] = "99999999999"
    huge = _write_space(tmp_path / "huge.txt", header, rows)
    report = tmp_path / "r.tsv"
    code = main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]), "--method", "SSCDR",
                 "--source-emb", huge, "--target-emb", chain["tgt_emb"],
                 "--mapping", chain["net"], "--out", str(report)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {huge}: header declares more rows")
    assert err.count("\n") == 1
    assert not report.exists()


def _eval_sscdr(chain, report, src_emb=None, net=None):
    return main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]), "--method", "SSCDR",
                 "--source-emb", src_emb or chain["src_emb"],
                 "--target-emb", chain["tgt_emb"],
                 "--mapping", net or chain["net"], "--out", str(report)])


def test_space_of_an_unknown_kind_exits_3(chain, tmp_path, capsys):
    header, rows = _space_rows(chain["src_emb"])
    header[7] = "bogus"
    bogus = _write_space(tmp_path / "bogus.txt", header, rows)
    report = tmp_path / "r.tsv"
    assert _eval_sscdr(chain, report, src_emb=bogus) == 3
    err = capsys.readouterr().err
    assert err == f"error: {bogus}: unknown embedding kind 'bogus'\n"
    assert not report.exists()


@pytest.mark.parametrize("artifact", ["space", "mapping"])
def test_bad_header_count_exits_3_naming_the_file(chain, tmp_path, capsys,
                                                 artifact):
    bad = tmp_path / "bad.txt"
    if artifact == "space":
        header, rows = _space_rows(chain["src_emb"])
        header[1] = "x"
        _write_space(bad, header, rows)
        code = _eval_sscdr(chain, tmp_path / "r.tsv", src_emb=str(bad))
    else:
        lines = _read(chain["net"], "utf-8").splitlines(True)
        bad.write_text("K x\n" + "".join(lines[1:]), encoding="utf-8")
        code = _eval_sscdr(chain, tmp_path / "r.tsv", net=str(bad))
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: {bad}: header field K is 'x', not a count\n"
    assert not (tmp_path / "r.tsv").exists()


_META_OUT_OF_RANGE = [
    ("phi", "nan", "phi must be in (0, 1], got nan"),
    ("phi", "5", "phi must be in (0, 1], got 5.0"),
    ("phi", "-1", "phi must be in (0, 1], got -1.0"),
    ("phi", "inf", "phi must be in (0, 1], got inf"),
    ("test_fraction", "nan", "test_fraction must be in (0, 1), got nan"),
    ("test_fraction", "7", "test_fraction must be in (0, 1), got 7.0"),
    ("min_overlap_interactions", "0", "filter thresholds must be >= 1"),
    ("min_other_interactions", "-2", "filter thresholds must be >= 1"),
]


@pytest.mark.parametrize("key, value, message", _META_OUT_OF_RANGE,
                         ids=[f"{k}={v}" for k, v, _ in _META_OUT_OF_RANGE])
def test_scenario_meta_value_out_of_range_exits_3(chain, tmp_path, capsys,
                                                  key, value, message):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    meta = scen / "meta.txt"
    lines = [f"{key}={value}\n" if line.startswith(key + "=") else line
             for line in meta.read_text(encoding="utf-8").splitlines(True)]
    meta.write_text("".join(lines), encoding="utf-8")
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", "ITEMPOP", "--out", str(report)]) == 3
    assert capsys.readouterr().err == f"error: {meta}: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("extra, message", [
    ("phi=0.9\n", "{meta}:7: key 'phi' is set twice"),
    ("garbage\n", "{meta}:7: expected key=value"),
    ("foo=1\n", "{meta}: unknown key 'foo'"),
], ids=["repeated-key", "junk-line", "unknown-key"])
def test_scenario_meta_junk_exits_3(chain, tmp_path, capsys, extra, message):
    scen = tmp_path / "scen"
    shutil.copytree(chain["scen"], scen)
    meta = scen / "meta.txt"
    assert len(meta.read_text(encoding="utf-8").splitlines()) == 6
    with open(meta, "a", encoding="utf-8") as fh:
        fh.write(extra)
    report = tmp_path / "r.tsv"
    assert main(["eval", "--config", chain["pipe_cfg"], "--scenario",
                 str(scen), "--method", "ITEMPOP", "--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err == "error: " + message.format(meta=meta) + "\n"
    assert not report.exists()


def _modules_after(args):
    """Exit code of ``crossrec args`` in a new interpreter, and whether
    it imported ``numpy.ma``."""
    script = ("import sys\nfrom crossrec.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print('numpy.ma' in sys.modules)\nsys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(crossrec.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, (proc.stdout.splitlines() or [proc.stderr])[-1]


@pytest.mark.parametrize("method", ["ITEMPOP", "SSCDR"])
def test_run_does_not_import_numpy_ma(tmp_path, method):
    # np.unique and np.union1d import numpy.ma, costing every process
    # time and memory it does not need
    run_cfg = _write(tmp_path / "run.cfg", RUN_CFG + f"method={method}\n")
    assert _modules_after(["run", "--config", run_cfg, "--out",
                           str(tmp_path / "run")]) == (0, "False")


def test_eval_does_not_import_numpy_ma(chain, tmp_path):
    assert _modules_after([
        "eval", "--config", chain["pipe_cfg"], "--scenario",
        str(chain["scen"]), "--method", "SSCDR", "--source-emb",
        chain["src_emb"], "--target-emb", chain["tgt_emb"], "--mapping",
        chain["net"], "--out", str(tmp_path / "r.tsv")]) == (0, "False")
