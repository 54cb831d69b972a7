import re
import struct

import numpy as np
import pytest

from wsdl import autodiff as ad
from wsdl import backbone as bb
from wsdl.autodiff import Tensor


@pytest.fixture(scope="module")
def cfg():
    return bb.BackboneConfig(num_classes=4)


@pytest.fixture(scope="module")
def params(cfg):
    return bb.init_maen_params(cfg, np.random.default_rng(0))


def _image_batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, 3, 64, 64)).astype(np.float32)


def test_config_validation():
    with pytest.raises(ValueError):
        bb.BackboneConfig(num_classes=1)
    with pytest.raises(ValueError):
        bb.BackboneConfig(tap_levels=("late", "bogus"))
    with pytest.raises(ValueError):
        bb.BackboneConfig(input_size=(60, 64))


def test_tap_strides_cover_input(cfg, params):
    fs = bb.maen_forward(params, Tensor(_image_batch(1)), cfg)
    for name, fmap in fs.taps.items():
        stride = fs.strides[name]
        assert fmap.shape[2] * stride == cfg.input_size[0]
        assert fmap.shape[3] * stride == cfg.input_size[1]
    assert fs.taps["late"].shape[2:] == (8, 8)
    assert fs.strides["late"] == 8
    assert fs.taps["cam"].shape[2:] == (8, 8)
    assert fs.strides["cam"] == 8


def test_mid_tap_when_configured():
    cfg = bb.BackboneConfig(num_classes=4, tap_levels=("mid", "late", "cam"))
    params = bb.init_maen_params(cfg, np.random.default_rng(1))
    fs = bb.maen_forward(params, Tensor(_image_batch(1)), cfg)
    assert fs.taps["mid"].shape[2:] == (16, 16)
    assert fs.strides["mid"] == 4


def test_zero_image_zero_bias_gives_zero_taps(cfg, params):
    fs = bb.maen_forward(params, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)), cfg)
    for fmap in fs.taps.values():
        assert np.all(fmap.data == 0.0)


def test_identical_images_identical_rows(cfg, params):
    one = _image_batch(1, seed=5)
    batch = np.repeat(one, 3, axis=0)
    fs = bb.maen_forward(params, Tensor(batch), cfg)
    for fmap in fs.taps.values():
        assert np.array_equal(fmap.data[0], fmap.data[1])
        assert np.array_equal(fmap.data[0], fmap.data[2])
    assert np.array_equal(fs.cam_logits.data[0], fs.cam_logits.data[1])


def test_forward_rejects_bad_inputs(cfg, params):
    with pytest.raises(ad.ShapeError):
        bb.maen_forward(params, Tensor(np.zeros((1, 3, 32, 32))), cfg)
    with pytest.raises(ValueError):
        bb.maen_forward(params, Tensor(np.full((1, 3, 64, 64), 1.5)), cfg)


def test_classify_probs_normalized_and_deterministic(cfg, params):
    imgs = _image_batch(4, seed=2)
    probs, pred = bb.maen_classify(params, imgs, cfg)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
    probs2, pred2 = bb.maen_classify(params, imgs, cfg)
    assert np.array_equal(probs, probs2)
    assert np.array_equal(pred, pred2)


def test_classify_zeroed_network_ties_to_class_zero():
    cfg = bb.BackboneConfig(num_classes=2)
    params = bb.init_maen_params(cfg, np.random.default_rng(3))
    for p in params.values():
        p.data[...] = 0.0
    probs, pred = bb.maen_classify(params, _image_batch(2, seed=4), cfg)
    assert np.allclose(probs, 0.5)
    assert np.all(pred == 0)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, cfg, params):
    ckpt = bb.params_to_checkpoint(params, stage_tag="maen")
    path = tmp_path / "a.ckpt"
    bb.save_checkpoint(ckpt, path)
    loaded = bb.load_checkpoint(path)
    assert loaded.version == ckpt.version
    assert loaded.stage_tag == "maen"
    assert list(loaded.params) == list(ckpt.params)
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name], ckpt.params[name])
    path2 = tmp_path / "b.ckpt"
    bb.save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_magic_and_truncation_errors(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        bb.load_checkpoint(bad)

    ckpt = bb.Checkpoint(params={"w": np.ones((2, 2), dtype=np.float32)}, stage_tag="x")
    good = tmp_path / "good.ckpt"
    bb.save_checkpoint(ckpt, good)
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(ValueError, match="truncated"):
        bb.load_checkpoint(trunc)


def test_checkpoint_version_mismatch_rejected(tmp_path):
    ckpt = bb.Checkpoint(params={"w": np.ones((2, 2), dtype=np.float32)}, stage_tag="x")
    good = tmp_path / "good.ckpt"
    bb.save_checkpoint(ckpt, good)
    raw = bytearray(good.read_bytes())
    raw[4:8] = struct.pack("<I", bb.CHECKPOINT_VERSION + 1)
    newer = tmp_path / "newer.ckpt"
    newer.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{re.escape(str(newer))}: checkpoint version {bb.CHECKPOINT_VERSION + 1}"):
        bb.load_checkpoint(newer)
    assert bb.load_checkpoint(good).version == bb.CHECKPOINT_VERSION


def test_clone_shared_weights_equality(cfg, params):
    source = bb.params_to_checkpoint(params, stage_tag="maen")
    fresh = bb.init_stage_params(cfg, np.random.default_rng(9))
    target = bb.params_to_checkpoint(fresh, stage_tag="dln")
    cloned = bb.clone_shared_weights(source, target)
    for name in cloned.params:
        if name.startswith("stages."):
            assert np.array_equal(cloned.params[name], source.params[name])

    cloned_params = bb.checkpoint_to_params(cloned)
    img = Tensor(_image_batch(1, seed=7))
    late_src = bb.maen_forward(params, img, cfg).taps["late"].data
    late_dst = bb.dln_forward(cloned_params, img, cfg).taps["late"].data
    assert np.array_equal(late_src.astype(np.float32), late_dst.astype(np.float32))


def test_clone_twice_identical(cfg, params):
    source = bb.params_to_checkpoint(params, stage_tag="maen")
    t1 = bb.params_to_checkpoint(bb.init_stage_params(cfg, np.random.default_rng(11)), "dln")
    t2 = bb.params_to_checkpoint(bb.init_stage_params(cfg, np.random.default_rng(11)), "dln")
    c1 = bb.clone_shared_weights(source, t1)
    c2 = bb.clone_shared_weights(source, t2)
    assert list(c1.params) == list(c2.params)
    for name in c1.params:
        assert np.array_equal(c1.params[name], c2.params[name])


def test_clone_missing_stage_names_error(cfg, params):
    source = bb.params_to_checkpoint(params, stage_tag="maen")
    del source.params["stages.1.conv0.weight"]
    target = bb.params_to_checkpoint(bb.init_stage_params(cfg, np.random.default_rng(13)), "dln")
    with pytest.raises(KeyError, match="stages.1.conv0.weight"):
        bb.clone_shared_weights(source, target)
