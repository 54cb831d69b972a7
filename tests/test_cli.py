import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from wsdl import backbone as bb
from wsdl import evaluate as ev
from wsdl import pipeline as pl
from wsdl import synthdata as sd
from wsdl.cli import run
from wsdl.config import load_run_config

from conftest import tiny_config


def _write_cfg(path, **kv):
    cfg = tiny_config(**kv)
    lines = "".join(
        f"{k} = {v}\n"
        for k, v in (
            ("num_classes", cfg.gen.num_classes),
            ("train_count", cfg.gen.train_count),
            ("test_count", cfg.gen.test_count),
            ("epochs_maen", cfg.train.epochs_maen),
            ("epochs_rpn", cfg.train.epochs_rpn),
            ("epochs_heads", cfg.train.epochs_heads),
            ("learning_rate", cfg.train.learning_rate),
        )
    )
    path.write_text(lines, encoding="utf-8")
    return path


def _dir_digest(root):
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(open(path, "rb").read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def cli_cfg(tmp_path_factory):
    return _write_cfg(tmp_path_factory.mktemp("cfg") / "tiny.cfg")


def test_gen_data_deterministic(tmp_path, cli_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen-data", "--out", str(a), "--seed", "7", "--config", str(cli_cfg)]) == 0
    assert run(["gen-data", "--out", str(b), "--seed", "7", "--config", str(cli_cfg)]) == 0
    assert _dir_digest(a) == _dir_digest(b)
    assert (a / "run_config.txt").exists()


def test_flag_overrides_config(tmp_path, cli_cfg):
    out = tmp_path / "d"
    assert run(["gen-data", "--out", str(out), "--seed", "99", "--config", str(cli_cfg)]) == 0
    echoed = (out / "run_config.txt").read_text()
    assert "seed = 99" in echoed


@pytest.fixture(scope="module")
def cli_pipeline(tmp_path_factory, cli_cfg):
    root = tmp_path_factory.mktemp("cli")
    data, model = root / "data", root / "model"
    assert run(["gen-data", "--out", str(data), "--seed", "13", "--config", str(cli_cfg)]) == 0
    assert run(["train", "--data", str(data), "--out", str(model), "--seed", "13",
                "--config", str(cli_cfg), "--stage", "all"]) == 0
    return root, data, model


def test_train_outputs(cli_pipeline):
    _, _, model = cli_pipeline
    for name in ("maen.ckpt", "dln.ckpt", "head_late.ckpt", "head_cam.ckpt",
                 "model_config.txt", "train_log.txt"):
        assert (model / name).exists(), name
    log = (model / "train_log.txt").read_text().splitlines()
    stages = [int(line.split()[0].split("=")[1]) for line in log]
    assert stages == sorted(stages) and set(stages) == {1, 2, 3}


def test_staged_training_matches_single_run(cli_pipeline, tmp_path, cli_cfg):
    _, data, model = cli_pipeline
    staged = tmp_path / "staged"
    for stage in ("all", "rpn", "heads"):
        assert run(["train", "--data", str(data), "--out", str(staged), "--seed", "13",
                    "--config", str(cli_cfg), "--stage", stage]) == 0
    for name in ("maen.ckpt", "dln.ckpt", "head_late.ckpt", "head_cam.ckpt"):
        a = bb.load_checkpoint(model / name)
        b = bb.load_checkpoint(staged / name)
        assert list(a.params) == list(b.params)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key]), (name, key)


def test_stage_retraining_checks_loaded_checkpoints(cli_pipeline, tmp_path, cli_cfg, capsys):
    _, data, model = cli_pipeline
    two_class = tmp_path / "data2"
    assert run(["gen-data", "--out", str(two_class), "--seed", "5",
                "--config", str(_write_cfg(tmp_path / "two.cfg", num_classes=2))]) == 0
    wide_rpn = tmp_path / "wide.cfg"
    wide_rpn.write_text(cli_cfg.read_text() + "rpn_channels = 64\n", encoding="utf-8")
    cases = [  # stage, dataset, config, the error
        ("rpn", two_class, cli_cfg, r"maen\.ckpt: parameter 'cam\.fc\.weight' has shape"),
        ("heads", two_class, cli_cfg, r"maen\.ckpt: parameter 'cam\.fc\.weight' has shape"),
        ("heads", data, wide_rpn, r"dln\.ckpt: parameter 'rpn\.conv\.weight' has shape"),
    ]
    for k, (stage, dataset, cfg, error) in enumerate(cases):
        out = tmp_path / f"out{k}"
        out.mkdir()
        for name in ("maen.ckpt", "dln.ckpt"):
            shutil.copy(model / name, out / name)
        capsys.readouterr()
        assert run(["train", "--data", str(dataset), "--out", str(out), "--seed", "13",
                    "--config", str(cfg), "--stage", stage]) == 2
        assert re.search(error, capsys.readouterr().err)
        assert sorted(p.name for p in out.glob("*.ckpt")) == ["dln.ckpt", "maen.ckpt"]
        assert (out / "dln.ckpt").read_bytes() == (model / "dln.ckpt").read_bytes()


def _stage_rpn_at_seed_14(model, out, data, cli_cfg, capsys) -> list:
    """Copy ``model`` to ``out`` and retrain it from stage 2 at seed 14;
    returns the log lines the run printed."""
    shutil.copytree(model, out)
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--out", str(out), "--seed", "14",
                "--config", str(cli_cfg), "--stage", "rpn"]) == 0
    return capsys.readouterr().out.splitlines()


def test_stage_rpn_retrains_every_later_stage(cli_pipeline, tmp_path, cli_cfg, capsys):
    _, data, model = cli_pipeline
    out = tmp_path / "retrained"
    _stage_rpn_at_seed_14(model, out, data, cli_cfg, capsys)
    for name in ("dln.ckpt", "head_late.ckpt", "head_cam.ckpt"):
        assert (out / name).read_bytes() != (model / name).read_bytes(), name
    # the same bytes as keeping the seed-13 classifier through the API
    view = sd.TrainView(str(data / "train"))
    cfg = load_run_config(str(cli_cfg))
    cfg.set_key("seed", "14")
    cfg.set_key("num_classes", str(view.num_classes))
    cfg.sync_derived()
    want = tmp_path / "api"
    pl.save_model(pl.train_stagewise(view, cfg, None, (bb.load_checkpoint(model / "maen.ckpt"),)),
                  want)
    assert sorted(p.name for p in want.iterdir()) == sorted(
        p.name for p in out.iterdir() if p.name != "train_log.txt")
    for path in want.iterdir():
        assert path.read_bytes() == (out / path.name).read_bytes(), path.name


def test_train_log_describes_the_model_in_its_directory(cli_pipeline, tmp_path, cli_cfg,
                                                        capsys):
    _, data, model = cli_pipeline
    full_log = (model / "train_log.txt").read_text().splitlines()
    twice = tmp_path / "twice"
    shutil.copytree(model, twice)
    # a second full run starts an empty log
    assert run(["train", "--data", str(data), "--out", str(twice), "--seed", "13",
                "--config", str(cli_cfg)]) == 0
    assert (twice / "train_log.txt").read_text().splitlines() == full_log
    # a run from stage 2 keeps stage 1's records and replaces the rest
    printed = _stage_rpn_at_seed_14(twice, tmp_path / "rpn", data, cli_cfg, capsys)
    stage1 = [line for line in full_log if line.startswith("stage=1 ")]
    assert stage1 and {line.split()[0] for line in printed} == {"stage=2", "stage=3"}
    assert (tmp_path / "rpn" / "train_log.txt").read_text().splitlines() == stage1 + printed


def test_train_into_an_empty_directory_trains_a_whole_model(cli_pipeline, tmp_path, cli_cfg):
    # without --stage: the default trains all three stages, as --stage all did
    _, data, model = cli_pipeline
    out = tmp_path / "fresh"
    assert run(["train", "--data", str(data), "--out", str(out), "--seed", "13",
                "--config", str(cli_cfg)]) == 0
    assert _dir_digest(out) == _dir_digest(model)
    assert run(["eval", "--data", str(data), "--model", str(out),
                "--out", str(tmp_path / "rep")]) == 0


def test_eval_report(cli_pipeline, tmp_path):
    _, data, model = cli_pipeline
    out = tmp_path / "rep"
    assert run(["eval", "--data", str(data), "--model", str(model), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("accuracy", "localization_accuracy", "maen_localization_accuracy",
                "pcl_average", "pcl_per_part", "confusion", "per_level_accuracy"):
        assert key in report, key
    assert sorted(report) == [
        "accuracy", "confusion", "correct_count", "dln_localization", "dln_mean_iou",
        "dln_only_localized", "full_image_accuracy", "levels", "localization_accuracy",
        "maen_localization", "maen_localization_accuracy", "maen_mean_iou",
        "maen_only_localized", "pcl_average", "pcl_per_part", "per_level_accuracy",
        "test_count", "timing", "top_confused_pairs",
    ]
    assert (out / "confusion_matrix.csv").exists()
    assert (out / "pcl.csv").exists()
    assert (out / "run_config.txt").exists()


def test_infer_json_lines(cli_pipeline, capsys):
    _, data, model = cli_pipeline
    image = str(data / "test" / "img_00000.ppm")
    assert run(["infer", "--model", str(model), "--image", image]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(line)
    assert doc["file"] == image
    assert "predicted_class" in doc and "levels" in doc
    assert abs(sum(doc["fused_scores"]) - 1.0) < 1e-6


def test_infer_needs_exactly_one_source(cli_pipeline, capsys):
    _, data, model = cli_pipeline
    image = str(data / "test" / "img_00000.ppm")
    assert run(["infer", "--model", str(model), "--image", image, "--data", str(data)]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert run(["infer", "--model", str(model)]) == 1
    assert "one of the arguments --image --data is required" in capsys.readouterr().err


def test_infer_names_the_file_of_a_wrong_size_image(cli_pipeline, tmp_path, capsys):
    _, data, model = cli_pipeline
    small = tmp_path / "small.ppm"
    sd.write_ppm(small, np.zeros((32, 32, 3), dtype=np.uint8))
    good = str(data / "test" / "img_00000.ppm")
    capsys.readouterr()
    assert run(["infer", "--model", str(model), "--image", good, "--image", str(small)]) == 2
    err = capsys.readouterr().err
    assert f"{small}: image extent (32, 32) does not match config (64, 64)" in err


def test_bench_prints_both_modes_and_their_ratio(cli_pipeline, monkeypatch, capsys):
    _, data, model = cli_pipeline
    calls = []

    def fake_bench(model, images, mode, **kwargs):
        calls.append((mode, len(images), kwargs))
        return {"shared": 30.0, "separate": 12.0}[mode]

    monkeypatch.setattr(ev, "bench", fake_bench)
    capsys.readouterr()
    assert run(["bench", "--data", str(data), "--model", str(model)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ratio": 2.5, "separate": 12.0, "shared": 30.0}
    # every image of the test split, at ev.bench's own number of repeats
    assert calls == [("shared", 12, {}), ("separate", 12, {})]


def test_removed_options_are_usage_errors(tmp_path, capsys):
    data, model = str(tmp_path / "data"), str(tmp_path / "model")
    bench = ["bench", "--data", data, "--model", model]
    for command, error in [
        (["train", "--data", data, "--out", model, "--stage", "maen"],
         "argument --stage: invalid choice: 'maen'"),
        (bench + ["--mode", "both"], "unrecognized arguments: --mode both"),
        (bench + ["--repeats", "5"], "unrecognized arguments: --repeats 5"),
    ]:
        assert run(command) == 1, command
        assert error in capsys.readouterr().err
    assert not (tmp_path / "model").exists()


def test_exit_codes(cli_pipeline, tmp_path):
    _, data, model = cli_pipeline
    assert run(["bogus"]) == 1
    assert run(["train", "--nonsense"]) == 1
    assert run(["--help"]) == 0
    for sub in ("gen-data", "train", "infer", "eval", "bench"):
        assert run([sub, "--help"]) == 0
    # runtime failures: missing model directory, undersized bench
    assert run(["eval", "--data", str(data), "--model", str(tmp_path / "missing"),
                "--out", str(tmp_path / "r")]) == 2
    assert run(["bench", "--data", str(data), "--model", str(model)]) == 2
    # a dln.ckpt that still carries its own copy of the trunk
    old = tmp_path / "old-layout"
    shutil.copytree(model, old)
    dln = bb.load_checkpoint(old / "dln.ckpt")
    maen = bb.load_checkpoint(old / "maen.ckpt")
    dln.params = {**{n: a for n, a in maen.params.items() if n.startswith("stages.")},
                  **dln.params}
    bb.save_checkpoint(dln, old / "dln.ckpt")
    assert run(["eval", "--data", str(data), "--model", str(old),
                "--out", str(tmp_path / "r2")]) == 2


def test_eval_rejects_a_checkpoint_with_non_finite_values(cli_pipeline, tmp_path, capsys):
    _, data, model = cli_pipeline
    bad = tmp_path / "nan-head"
    shutil.copytree(model, bad)
    head = bb.load_checkpoint(bad / "head_cam.ckpt")
    head.params["head.cls.weight"][0] = np.nan
    bb.save_checkpoint(head, bad / "head_cam.ckpt")
    capsys.readouterr()
    assert run(["eval", "--data", str(data), "--model", str(bad),
                "--out", str(tmp_path / "r")]) == 2
    assert (f"{bad / 'head_cam.ckpt'}: parameter 'head.cls.weight' holds non-finite values"
            in capsys.readouterr().err)
    assert not (tmp_path / "r").exists()


def test_model_commands_reject_configuration_flags(cli_pipeline, tmp_path, cli_cfg, capsys):
    # infer, eval and bench run the model's saved configuration; a flag that
    # would change it is a usage error, not silently ignored
    _, data, model = cli_pipeline
    image = str(data / "test" / "img_00000.ppm")
    commands = [
        ["infer", "--model", str(model), "--image", image],
        ["eval", "--data", str(data), "--model", str(model), "--out", str(tmp_path / "r")],
        ["bench", "--data", str(data), "--model", str(model)],
    ]
    for command in commands:
        for flag in (["--seed", "3"], ["--config", str(cli_cfg)], ["--levels", "cam"]):
            assert run(command + flag) == 1, (command[0], flag)
            assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("levels, error", [
    ("late,bogus", "unknown tap level 'bogus'"), ("cam,cam", "tap level 'cam' is repeated"),
    # a given empty flag is given, not left at the default
    ("", "bad value for 'tap_levels': expected a comma-separated list"),
    (",", "bad value for 'tap_levels': expected a comma-separated list"),
])
def test_train_rejects_unknown_or_repeated_level(tmp_path, capsys, levels, error):
    out = tmp_path / "model"
    assert run(["train", "--data", str(tmp_path / "data"), "--out", str(out),
                "--levels", levels]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_config_that_repeats_a_key(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("tap_levels = late,cam\nseed = 3\ntap_levels = cam\n")
    out = tmp_path / "model"
    assert run(["train", "--data", str(tmp_path / "data"), "--out", str(out),
                "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: key 'tap_levels' is repeated\n"
    assert not out.exists()


@pytest.mark.parametrize("text, error", [
    ("seed = 3\ndecay_factor = inf\n", ":2: bad value for 'decay_factor': expected a finite "
                                        "number, got 'inf'"),
    ("scales = 0,32,48\n", ": scales must be positive, got (0.0, 32.0, 48.0)"),
    ("momentum = 1.5\n", ": momentum must be in [0, 1), got 1.5"),
])
def test_train_rejects_a_config_value_that_would_fail_late(tmp_path, capsys, text, error):
    cfg = tmp_path / "late.cfg"
    cfg.write_text(text)
    out = tmp_path / "model"
    assert run(["train", "--data", str(tmp_path / "data"), "--out", str(out),
                "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}{error}\n"
    assert not out.exists()


def test_gen_data_rejects_a_negative_split_count(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("train_count = -3\n")
    out = tmp_path / "data"
    assert run(["gen-data", "--out", str(out), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: train_count must be >= 0, got -3\n"
    assert not out.exists()


def test_gen_data_rejects_more_classes_than_glyphs(tmp_path, capsys):
    cfg = tmp_path / "nine.cfg"
    cfg.write_text("num_classes = 9\n")
    out = tmp_path / "data"
    assert run(["gen-data", "--out", str(out), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: num_classes must be in [2, 8] to generate a dataset, got 9\n")
    assert not out.exists()


def test_a_ten_class_split_trains_reloads_infers_and_evaluates(tmp_path, cli_cfg, capsys):
    # the renderer draws 8 glyphs at most, so a generated split is relabelled to classes 0-9
    data, model, rep = tmp_path / "data", tmp_path / "model", tmp_path / "rep"
    small = _write_cfg(tmp_path / "small.cfg", train_count=20, test_count=10)
    assert run(["gen-data", "--out", str(data), "--config", str(small)]) == 0
    for split in ("train", "test"):
        labels = data / split / "labels.tsv"
        names = [line.split("\t")[0] for line in labels.read_text().splitlines()]
        labels.write_text("".join(f"{name}\t{i % 10}\n" for i, name in enumerate(names)))
    assert run(["train", "--data", str(data), "--out", str(model), "--config", str(cli_cfg)]) == 0
    assert "num_classes = 10" in (model / "model_config.txt").read_text().splitlines()
    assert pl.load_model(model).config.head.num_classes == 10
    capsys.readouterr()
    assert run(["infer", "--model", str(model), "--data", str(data)]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(docs) == 10 and all(len(doc["fused_scores"]) == 10 for doc in docs)
    assert run(["eval", "--data", str(data), "--model", str(model), "--out", str(rep)]) == 0
    confusion = json.loads((rep / "report.json").read_text())["confusion"]
    assert [len(row) for row in confusion] == [10] * 10
    assert sum(map(sum, confusion)) == 10


def test_unknown_config_key_fails(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 3\nmystery_knob = 5\n")
    assert run(["gen-data", "--out", str(tmp_path / "x"), "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:2: unknown configuration key: 'mystery_knob'\n"
    # an empty --config names no file; it does not fall back to the defaults
    assert run(["gen-data", "--out", str(tmp_path / "x"), "--config", ""]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
    assert not (tmp_path / "x").exists()
