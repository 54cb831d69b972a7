import re

import pytest

from wsdl import pipeline as pl
from wsdl.config import RANGES, RunConfig, TrainConfig, _inside, load_run_config

# every key of a saved configuration; input_size and stride are derived, and two
# convs per stage and the renderer's look are fixed, not keys
KEYS = [
    "anchors_per_image_sampled", "batch_maen", "cam_channels", "decay_epoch_maen",
    "decay_factor", "epochs_heads", "epochs_maen", "epochs_rpn", "fg_fraction", "fg_iou",
    "hidden", "image_size", "learning_rate", "loss_balance", "momentum", "neg_iou", "nms_iou",
    "num_classes", "pos_iou", "post_nms_top", "pre_nms_top", "ratios", "roi_out",
    "rois_per_image", "rpn_channels", "scales", "seed", "stage_channels", "tap_levels",
    "test_count", "train_count", "weight_decay",
]
# keys that one value served and that became constants, each at that value
REMOVED = [("clutter_density", "6"), ("decay_epoch_heads", "0"), ("decay_epoch_rpn", "0"),
           ("noise_span", "5"), ("object_fraction", "0.3,0.6")]


def test_set_key_updates_every_holder():
    cfg = RunConfig.default()
    cfg.set_key("num_classes", "5")
    assert cfg.gen.num_classes == 5
    assert cfg.backbone.num_classes == 5
    assert cfg.head.num_classes == 5

    cfg.set_key("seed", "42")
    assert cfg.gen.seed == 42
    assert cfg.train.seed == 42


def test_unknown_key_rejected():
    cfg = RunConfig.default()
    with pytest.raises(KeyError, match="bogus_key"):
        cfg.set_key("bogus_key", "1")


def test_tuple_and_float_parsing():
    cfg = RunConfig.default()
    cfg.set_key("scales", "8, 16, 24")
    assert cfg.anchor.scales == (8.0, 16.0, 24.0)
    cfg.set_key("tap_levels", "cam")
    assert cfg.backbone.tap_levels == ("cam",)
    cfg.set_key("learning_rate", "0.01")
    assert cfg.train.learning_rate == 0.01
    with pytest.raises(ValueError):
        cfg.set_key("learning_rate", "fast")


def test_text_roundtrip(tmp_path):
    cfg = RunConfig.default()
    cfg.set_key("num_classes", "4")
    cfg.set_key("train_count", "120")
    cfg.sync_derived()
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_lines(), encoding="utf-8")
    again = load_run_config(path)
    assert again.to_lines() == cfg.to_lines()
    assert [line.split(" = ")[0] for line in cfg.to_lines().splitlines()] == KEYS
    assert sorted(RunConfig.default().schema()) == KEYS and len(KEYS) == 32
    assert again.gen.train_count == 120
    assert again.backbone.num_classes == 4


def test_apply_text_errors():
    cfg = RunConfig.default()
    with pytest.raises(ValueError, match="cfg:2"):
        cfg.apply_text("seed = 3\nnot a line\n", source="cfg")
    with pytest.raises(KeyError):
        cfg.apply_text("who = knows\n", source="cfg")
    assert cfg.apply_text("# comment\n\nseed = 9\n", source="cfg") == ["seed"]
    assert cfg.train.seed == 9
    # a repeat is rejected, not last-wins; repeats are reported in schema order
    with pytest.raises(ValueError, match="^cfg: key 'seed' is repeated$"):
        cfg.apply_text("seed = 9\nseed = 10\n", source="cfg")
    with pytest.raises(ValueError, match="^cfg: key 'train_count' is repeated$"):
        cfg.apply_text("seed = 1\nseed = 2\ntrain_count = 5\ntrain_count = 6\n", source="cfg")


@pytest.mark.parametrize("key", ["learning_rate", "momentum", "weight_decay", "decay_factor",
                                 "loss_balance"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
def test_apply_text_rejects_non_finite_floats(key, raw):
    # decay_factor = inf failed only at the decay epoch, as a zero learning rate
    cfg = RunConfig.default()
    with pytest.raises(ValueError, match=re.escape(
            f"cfg:2: bad value for '{key}': expected a finite number, got '{raw}'")):
        cfg.apply_text(f"seed = 3\n{key} = {raw}\n", source="cfg")


@pytest.mark.parametrize("key, raw", [("scales", "nan,32,48"), ("ratios", "0.5,1,inf")])
def test_apply_text_rejects_non_finite_tuple_elements(key, raw):
    cfg = RunConfig.default()
    error = f"cfg:1: bad value for '{key}': expected a finite number"
    with pytest.raises(ValueError, match=re.escape(error)):
        cfg.apply_text(f"{key} = {raw}\n", source="cfg")


@pytest.mark.parametrize("key, raw", [("scales", "0,32,48"), ("scales", "16,-32,48"),
                                      ("ratios", "0.5,0,2")])
def test_anchor_scales_and_ratios_must_be_positive(tmp_path, key, raw):
    # scales = 0,32,48 gave 192 zero-width anchors and failed only in stage 3
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {key} must be positive, got (")):
        load_run_config(path)


@pytest.mark.parametrize("key, raw, error", [
    ("cam_channels", "0", "cam_channels must be >= 1, got 0"),
    ("cam_channels", "-1", "cam_channels must be >= 1, got -1"),
    ("stage_channels", "0,0,0", "stage_channels must be >= 1, got (0, 0, 0)"),
    ("stage_channels", "16,-1,64", "stage_channels must be >= 1, got (16, -1, 64)"),
])
def test_backbone_sizes_must_be_positive(tmp_path, key, raw, error):
    # each failed late before: a channel mismatch in conv2d, a ZeroDivisionError
    # traceback, or "negative dimensions are not allowed"
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}$"):
        load_run_config(path)


def test_sync_derived_follows_backbone(tmp_path):
    cfg = RunConfig.default()
    cfg.set_key("stage_channels", "8,16")
    cfg.set_key("image_size", "32,32")
    cfg.sync_derived()
    assert cfg.backbone.input_size == (32, 32)
    assert cfg.anchor.stride == 4
    assert cfg.backbone.grid_size == (8, 8)
    # a saved config leaves out the derived values, and loads them back
    path = tmp_path / "model_config.txt"
    path.write_text(cfg.to_lines(), encoding="utf-8")
    assert "stride" not in cfg.schema() and "input_size" not in cfg.schema()
    assert not re.search(r"^(stride|input_size) =", cfg.to_lines(), re.M)
    again = load_run_config(path)
    assert again.to_lines() == cfg.to_lines()
    assert again.backbone.input_size == (32, 32) and again.anchor.stride == 4


@pytest.mark.parametrize("key, raw", [
    ("input_size", "32,32"), ("input_size", "64,64"), ("stride", "4"), ("stride", "8"),
    ("convs_per_stage", "2"), *REMOVED,
])
def test_derived_key_is_rejected_as_unknown(tmp_path, key, raw):
    # even the value the derivation gives (two convs per stage is fixed): a derived
    # or fixed value is not an option
    path = tmp_path / "run.cfg"
    path.write_text(f"seed = 3\n{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(KeyError, match=re.escape(f"{path}:2: unknown configuration key: '{key}'")):
        load_run_config(path)


@pytest.mark.parametrize("key, raw", REMOVED)
def test_a_saved_model_that_lists_a_removed_key_is_rejected(tmp_path, key, raw):
    # a model saved while the key existed lists it, in sorted order; it must be retrained
    lines = sorted(RunConfig.default().to_lines().splitlines() + [f"{key} = {raw}"])
    path = tmp_path / "model_config.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    where = f"{path}:{lines.index(f'{key} = {raw}') + 1}"
    with pytest.raises(KeyError, match=re.escape(f"{where}: unknown configuration key: '{key}'")):
        pl.load_model(tmp_path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs_rpn=0)


@pytest.mark.parametrize("key", ["decay_epoch_maen"])
def test_negative_decay_epoch_rejected(key):
    cfg = RunConfig.default()
    cfg.set_key(key, "-3")
    with pytest.raises(ValueError, match=f"{key} must be >= 0, got -3"):
        cfg.sync_derived()
    # a decay epoch at or past the stage's epoch count never applies, and is legal
    TrainConfig(epochs_maen=3, epochs_rpn=3, epochs_heads=3, **{key: 3})


@pytest.mark.parametrize("key, raw, error", [
    ("momentum", "1.5", "momentum must be in [0, 1), got 1.5"),
    ("momentum", "-1", "momentum must be in [0, 1), got -1.0"),
    ("weight_decay", "-0.1", "weight_decay must be >= 0, got -0.1"),
    ("loss_balance", "-3", "loss_balance must be >= 0, got -3.0"),
    ("learning_rate", "0", "learning_rate must be > 0, got 0.0"),
    ("decay_factor", "-2", "decay_factor must be > 0, got -2.0"),
    ("batch_maen", "0", "batch_maen must be >= 1, got 0"),
    ("epochs_heads", "0", "epochs_heads must be >= 1, got 0"),
    ("train_count", "-3", "train_count must be >= 0, got -3"),
    ("test_count", "-1", "test_count must be >= 0, got -1"),
    ("seed", "-1", "seed must be >= 0, got -1"),
])
def test_sync_derived_rejects_out_of_range_values_naming_the_key(key, raw, error):
    cfg = RunConfig.default()
    cfg.apply_text(f"{key} = {raw}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        cfg.sync_derived()


@pytest.mark.parametrize("key, raw", [
    ("fg_fraction", "3.0"), ("fg_fraction", "-0.5"), ("fg_iou", "0.0"), ("fg_iou", "2.0"),
])
def test_sync_derived_rejects_bad_head_fractions(key, raw):
    cfg = RunConfig.default()
    cfg.set_key(key, raw)
    with pytest.raises(ValueError, match=key):
        cfg.sync_derived()


@pytest.mark.parametrize("key, raw", [
    ("pre_nms_top", "0"), ("post_nms_top", "0"), ("anchors_per_image_sampled", "0"),
    ("rpn_channels", "0"), ("nms_iou", "-0.1"), ("nms_iou", "1.5"),
    ("rois_per_image", "0"), ("hidden", "0"), ("roi_out", "0,4"), ("roi_out", "4,0"),
    ("roi_out", "1"), ("roi_out", "2,2,2"),
])
def test_sync_derived_rejects_bad_anchor_and_head_counts(key, raw):
    cfg = RunConfig.default()
    cfg.set_key(key, raw)
    with pytest.raises(ValueError, match=key):
        cfg.sync_derived()


@pytest.mark.parametrize("key, raw", [
    ("pre_nms_top", "1"), ("post_nms_top", "1"), ("anchors_per_image_sampled", "1"),
    ("rpn_channels", "1"), ("nms_iou", "0.0"), ("nms_iou", "1.0"),
    ("rois_per_image", "1"), ("hidden", "1"), ("roi_out", "1,1"),
    ("momentum", "0.0"), ("momentum", "0.999"), ("weight_decay", "0.0"),
    ("loss_balance", "0.0"), ("train_count", "0"), ("test_count", "0"),
    ("cam_channels", "1"), ("stage_channels", "1,1,1"), ("seed", "0"),
])
def test_sync_derived_accepts_range_ends_and_defaults(key, raw):
    cfg = RunConfig.default()
    cfg.sync_derived()
    cfg.set_key(key, raw)
    cfg.sync_derived()


def _entries(value):
    return value if isinstance(value, tuple) else (value,)


SCHEMA = RunConfig.default().schema()
NUMERIC = sorted(k for k, v in SCHEMA.items() if all(isinstance(e, (int, float))
                                                     for e in _entries(v)))


def test_every_numeric_key_has_a_range():
    # a key added without a range fails here; tap_levels is the one key of names
    assert NUMERIC == sorted(RANGES) and len(NUMERIC) == len(KEYS) - 1


def _trials(template) -> list:
    """0 and -1 (in every entry of a tuple key), then a tuple key with one entry
    and with one entry too many."""
    if not isinstance(template, tuple):
        return ["0", "-1"]
    return [",".join([raw] * len(template)) for raw in ("0", "-1")] + [
        ",".join(map(str, entries)) for entries in (template[:1], template + template[:1])]


@pytest.mark.parametrize("key, raw", [(k, raw) for k in NUMERIC for raw in _trials(SCHEMA[k])])
def test_each_value_is_inside_its_range_or_fails_naming_its_key(key, raw):
    cfg = RunConfig.default()
    cfg.set_key(key, raw)
    try:
        cfg.sync_derived()
    except ValueError as exc:
        assert re.search(rf"\b{key}\b", str(exc)), str(exc)
    else:
        assert all(_inside(RANGES[key], v) for v in _entries(cfg.schema()[key]))
