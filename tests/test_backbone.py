import re
import struct
import tracemalloc

import numpy as np
import pytest

from wsdl import autodiff as ad
from wsdl import backbone as bb

from conftest import tiny_config


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
    with pytest.raises(ValueError, match="tap level 'cam' is repeated"):
        bb.BackboneConfig(tap_levels=("cam", "late", "cam"))
    with pytest.raises(ValueError):
        bb.BackboneConfig(input_size=(60, 64))


def test_tap_strides_cover_input(cfg, params):
    stage_outputs, cam_map, _ = bb.maen_forward(params, _image_batch(1), cfg)
    taps = {"late": stage_outputs[-1], "cam": cam_map}
    for name, fmap in taps.items():
        stride = cfg.tap_stride(name)
        assert fmap.shape[2] * stride == cfg.input_size[0]
        assert fmap.shape[3] * stride == cfg.input_size[1]
    assert taps["late"].shape[2:] == (8, 8)
    assert cfg.tap_stride("late") == 8
    assert taps["cam"].shape[2:] == (8, 8)
    assert cfg.tap_stride("cam") == 8


def test_mid_tap_when_configured():
    cfg = bb.BackboneConfig(num_classes=4, tap_levels=("mid", "late", "cam"))
    params = bb.init_maen_params(cfg, np.random.default_rng(1))
    stage_outputs, _, _ = bb.maen_forward(params, _image_batch(1), cfg)
    assert stage_outputs[-2].shape[2:] == (16, 16)
    assert cfg.tap_stride("mid") == 4


def test_zero_image_zero_bias_gives_zero_taps(cfg, params):
    # each image's mean is subtracted first, so any constant image enters as zeros
    for fill in (0.0, 0.5):
        stage_outputs, cam_map, _ = bb.maen_forward(
            params, np.full((1, 3, 64, 64), fill, dtype=np.float32), cfg)
        for fmap in (*stage_outputs, cam_map):
            assert np.all(fmap.data == 0.0), fill


def test_identical_images_identical_rows(cfg, params):
    one = _image_batch(1, seed=5)
    batch = np.repeat(one, 3, axis=0)
    stage_outputs, cam_map, logits = bb.maen_forward(params, batch, cfg)
    for fmap in (stage_outputs[-1], cam_map):
        assert np.array_equal(fmap.data[0], fmap.data[1])
        assert np.array_equal(fmap.data[0], fmap.data[2])
    assert np.array_equal(logits.data[0], logits.data[1])


@pytest.mark.parametrize("n", [3, 20])
def test_trunk_outputs_do_not_depend_on_batch_size(n):
    # conv2d runs one GEMM per sample, so a sample's maps are the same bits
    # whatever else shares its batch
    cfg = tiny_config().backbone
    params = bb.init_maen_params(cfg, np.random.default_rng(5))
    images = _image_batch(n, seed=6)
    _, batch_cam, _ = bb.maen_forward(params, images, cfg)
    batch_stages = bb.stage_forward(params, images, cfg)
    for i in range(n):
        one = images[i : i + 1]
        for got, want in zip(batch_stages, bb.stage_forward(params, one, cfg), strict=True):
            assert np.array_equal(got.data[i : i + 1].view(np.uint32), want.data.view(np.uint32))
        want_cam = bb.maen_forward(params, one, cfg)[1].data
        assert np.array_equal(batch_cam.data[i : i + 1].view(np.uint32),
                              want_cam.view(np.uint32))


def test_forward_rejects_bad_inputs(cfg, params):
    with pytest.raises(ad.ShapeError):
        bb.maen_forward(params, np.zeros((1, 3, 32, 32)), cfg)
    with pytest.raises(ValueError):
        bb.maen_forward(params, np.full((1, 3, 64, 64), 1.5), cfg)
    nan_pixel = _image_batch(2)
    nan_pixel[1, 2, 5, 7] = np.nan
    with pytest.raises(ValueError, match=r"pixel values must lie in \[0,1\]"):
        bb.maen_forward(params, nan_pixel, cfg)


def _held_buffer_bytes(roots, skip) -> int:
    """Summed bytes of the distinct buffers behind the ``.data`` of every tensor
    in the graphs of ``roots``, leaving out the buffers of the ``skip`` arrays."""
    def buffer(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    skipped = {id(buffer(a)) for a in skip}
    held, seen, stack = {}, set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            buf = buffer(node.data)
            if id(buf) not in skipped:
                held[id(buf)] = buf.nbytes
    return sum(held.values())


def test_recorded_forward_holds_only_its_tensors(cfg, params):
    images = _image_batch(4)
    bb.maen_forward(params, images, cfg)  # warm-up: first-call allocations are not held
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stage_outputs, cam_map, logits = bb.maen_forward(params, images, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert logits.requires_grad
    roots = [logits, *stage_outputs, cam_map]
    tensors = _held_buffer_bytes(roots, [images] + [p.data for p in params.values()])
    # each stage's fused conv-relu-pool keeps one uint8 switch code per pooled element
    codes = sum(out.data.size for out in stage_outputs)
    # 64 KiB covers the Tensor objects and closures; no op keeps another buffer of its own
    assert held <= tensors + codes + 64 * 1024
    # a trunk that kept each stage's full-resolution conv output for a separate
    # max-pool held 4.47 MB here
    assert held <= 3 * 2**20


def _reachable_arrays(roots) -> list:
    """One array per buffer that the graphs of ``roots`` keep alive: the tensors'
    ``.data`` and the arrays their gradient closures capture, nested ones too."""
    arrays, seen, stack = {}, set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            buf = obj
            while isinstance(buf.base, np.ndarray):
                buf = buf.base
            arrays[id(buf)] = obj  # one per buffer, in the shape the graph uses
        elif isinstance(obj, ad.Tensor):
            stack.extend([obj.data, obj._grad_fn, *obj._parents])
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return list(arrays.values())


@pytest.mark.parametrize("convs_per_stage", [1, 2, 3])
def test_recorded_stage_forward_keeps_no_full_resolution_map_for_its_pool(convs_per_stage):
    cfg = bb.BackboneConfig(num_classes=4, convs_per_stage=convs_per_stage)
    params = bb.init_stage_params(cfg, np.random.default_rng(1))
    outputs = bb.stage_forward(params, _image_batch(2), cfg)
    arrays = _reachable_arrays(outputs)
    for out in outputs:
        n, c, h, w = out.shape
        full = [a for a in arrays if a.shape == (n, c, 2 * h, 2 * w)]
        # only the convs before the stage's last two keep their maps: the last two
        # rebuild their inner map in backward, and the last one pooled its own away
        assert len(full) == max(convs_per_stage - 2, 0), out.shape


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, cfg, params):
    ckpt = bb.params_to_checkpoint(params, stage_tag="maen")
    path = tmp_path / "a.ckpt"
    bb.save_checkpoint(ckpt, path)
    loaded = bb.load_checkpoint(path)
    assert struct.unpack_from("<I", path.read_bytes(), 4) == (bb.CHECKPOINT_VERSION,)
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


def test_checkpoint_dims_whose_product_overflows_int64_are_truncation(tmp_path):
    # 65536**4 == 2**64: an int64 product wraps to 0 elements
    path = tmp_path / "huge.ckpt"
    path.write_bytes(bb.CHECKPOINT_MAGIC + struct.pack("<II", bb.CHECKPOINT_VERSION, 1)
                     + struct.pack("<H", 1) + b"w" + struct.pack("<B4I", 4, *[65536] * 4))
    with pytest.raises(ValueError,
                       match=f"{re.escape(str(path))}: truncated checkpoint values for w"):
        bb.load_checkpoint(path)


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
    assert bb.load_checkpoint(good).stage_tag == "x"  # the written version loads

