"""End-to-end checks of the command-line interface.

The heavyweight fixture runs the full step chain (gen-synth,
build-scenario, train-embed, train-map, eval) next to a single `run`
invocation with the same seed, then the tests compare artifacts byte for
byte.  Exit-code tests poke each error path.
"""

import textwrap

import pytest

from crossrec import embed
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
                     GEN_CFG + PIPE_CFG + "method=SSCDR\n")

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
        step = open(step_path, "rb").read()
        full = (run_out / run_name).read_bytes()
        assert step == full, f"{run_name} differs between chain and run"
    for name in ("source.tsv", "target_train.tsv", "overlap.txt",
                 "test.tsv", "meta.txt"):
        assert (chain["scen"] / name).read_bytes() == \
            (run_out / "scenario" / name).read_bytes()


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
    lines = open(chain["src_emb"], encoding="utf-8").read().splitlines(True)
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


def test_eval_missing_artifact_exits_2(chain, tmp_path):
    code = main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--method", "SSCDR", "--source-emb", chain["src_emb"],
                 "--target-emb", chain["tgt_emb"],
                 "--out", str(tmp_path / "r.tsv")])
    assert code == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "gen-synth" in capsys.readouterr().out


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
    dim6_cfg = _write(tmp_path / "dim6.cfg", PIPE_CFG + "embed.dim=6\n")
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
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_finite_lambda_exits_2(chain, tmp_path, capsys):
    run_cfg = _write(tmp_path / "r.cfg",
                     GEN_CFG + PIPE_CFG + "method=SSCDR\n")
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
                     GEN_CFG + PIPE_CFG + "method=SSCDR\n")
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
    assert run_report == open(report, "rb").read()
    assert run_report.splitlines()[1].startswith(b"ITEMPOP\t0.3\t")


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
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


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


def test_negative_seed_is_rejected_before_any_file(tmp_path, capsys):
    cfg = _write(tmp_path / "r.cfg", GEN_CFG)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--method", "ITEMPOP",
                 "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "seed" in capsys.readouterr().err


def test_l2_on_a_metric_objective_exits_2(chain, tmp_path, capsys):
    l2 = "embed.l2=0.5\n"
    run_cfg = _write(tmp_path / "r.cfg", GEN_CFG + PIPE_CFG + l2)
    assert main(["run", "--config", run_cfg, "--method", "CML",
                 "--out", str(tmp_path / "cml")]) == 2
    assert not (tmp_path / "cml").exists()
    assert main(["train-embed", "--config", run_cfg,
                 "--scenario", str(chain["scen"]), "--domain", "source",
                 "--objective", "metric",
                 "--out", str(tmp_path / "src.txt")]) == 2
    assert "embed.l2" in capsys.readouterr().err
    assert main(["run", "--config", run_cfg, "--method", "BPR",
                 "--out", str(tmp_path / "bpr")]) == 0
    assert (tmp_path / "bpr" / "report.tsv").exists()


def test_space_missing_a_target_item_exits_3(chain, tmp_path, capsys):
    lines = open(chain["tgt_emb"], encoding="utf-8").read().splitlines(True)
    header = lines[0].split()
    header[5] = str(int(header[5]) - 1)
    first_v = next(k for k, line in enumerate(lines)
                   if line.startswith("V "))
    missing = lines[first_v].split()[1]
    short = tmp_path / "short.txt"
    short.write_text(" ".join(header) + "\n" + "".join(
        line for k, line in enumerate(lines[1:], 1) if k != first_v),
        encoding="utf-8")
    code = main(["eval", "--config", chain["pipe_cfg"],
                 "--scenario", str(chain["scen"]),
                 "--method", "SSCDR", "--source-emb", chain["src_emb"],
                 "--target-emb", str(short), "--mapping", chain["net"],
                 "--out", str(tmp_path / "r.tsv")])
    assert code == 3
    assert repr(missing) in capsys.readouterr().err
