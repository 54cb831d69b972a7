"""Small multi-stage convolutional backbone with tapped feature maps.

Three stages of (conv3x3 + relu) x 2 followed by 2x2 max pooling leave the
shared feature map at stride 8 over 64x64 inputs. The classification network
adds one more 3x3 conv ("cam" tap), global average pooling, and a linear
classifier; its attention maps later supervise the localization network.
Each stage's two convs, relus and pool are one op, ``ad.conv2d_relu2_pool``,
which rebuilds the map between the convs in backward.
The forward passes take the images as an [N,3,H,W] array and return
tensors: ``stage_forward`` one map per stage, ``maen_forward`` those maps,
the cam map and the logits. A tap level names one of them ("mid" the
next-to-last stage output, "late" the last, "cam" the cam map), and
``BackboneConfig.tap_stride`` gives its stride.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_ranges

CHECKPOINT_MAGIC = b"WSDL"
CHECKPOINT_VERSION = 1
_STAGE_TAG_PREFIX = "stage:"

VALID_TAPS = ("mid", "late", "cam")


@dataclass
class BackboneConfig:
    input_size: tuple = (64, 64)
    stage_channels: tuple = (16, 32, 64)
    cam_channels: int = 128
    num_classes: int = 8
    tap_levels: tuple = ("late", "cam")

    def __post_init__(self):
        self.input_size = tuple(self.input_size)
        self.stage_channels = tuple(self.stage_channels)
        self.tap_levels = tuple(self.tap_levels)
        check_ranges(self)
        if len(self.stage_channels) < 2:
            raise ValueError(f"stage_channels must have at least two entries, got {self.stage_channels}")
        for i, name in enumerate(self.tap_levels):
            if name not in VALID_TAPS:
                raise ValueError(f"unknown tap level {name!r}, valid: {VALID_TAPS}")
            if name in self.tap_levels[:i]:
                raise ValueError(f"tap level {name!r} is repeated in {self.tap_levels}")
        down = 2 ** len(self.stage_channels)
        if self.input_size[0] % down or self.input_size[1] % down:
            raise ValueError(f"image_size {self.input_size} not divisible by total stride {down}")

    def tap_stride(self, name: str) -> int:
        n = len(self.stage_channels)
        if name == "mid":
            return 2 ** (n - 1)
        if name in ("late", "cam"):
            return 2 ** n
        raise ValueError(f"unknown tap level {name!r}")

    @property
    def grid_size(self) -> tuple:
        s = self.tap_stride("late")
        return (self.input_size[0] // s, self.input_size[1] // s)


# ---------------------------------------------------------------------------
# parameters


def init_stage_params(config: BackboneConfig, rng: np.random.Generator) -> dict:
    """Shared convolutional stages: zero biases, fan-in scaled uniform weights."""
    params = {}
    in_ch = 3
    for s, out_ch in enumerate(config.stage_channels):
        for j in range(2):
            fan_in = in_ch * 9
            params[f"stages.{s}.conv{j}.weight"] = Tensor(
                ad.fan_in_uniform(rng, (out_ch, in_ch, 3, 3), fan_in), requires_grad=True)
            params[f"stages.{s}.conv{j}.bias"] = Tensor(
                np.zeros(out_ch, np.float32), requires_grad=True)
            in_ch = out_ch
    return params


def init_maen_params(config: BackboneConfig, rng: np.random.Generator) -> dict:
    params = init_stage_params(config, rng)
    last = config.stage_channels[-1]
    cam = config.cam_channels
    params["cam.conv.weight"] = Tensor(
        ad.fan_in_uniform(rng, (cam, last, 3, 3), last * 9), requires_grad=True)
    params["cam.conv.bias"] = Tensor(np.zeros(cam, np.float32), requires_grad=True)
    params["cam.fc.weight"] = Tensor(
        ad.fan_in_uniform(rng, (cam, config.num_classes), cam), requires_grad=True)
    params["cam.fc.bias"] = Tensor(np.zeros(config.num_classes, np.float32), requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# forward passes


def _check_images(images: np.ndarray, config: BackboneConfig):
    if images.ndim != 4 or images.shape[1] != 3:
        raise ad.ShapeError(f"expected images [N,3,H,W], got {images.shape}")
    if tuple(images.shape[2:]) != config.input_size:
        raise ad.ShapeError(
            f"image extent {tuple(images.shape[2:])} does not match config {config.input_size}")
    lo, hi = images.min(), images.max()
    if not (0.0 <= lo and hi <= 1.0):  # a NaN pixel fails it too
        raise ValueError(f"pixel values must lie in [0,1], got [{lo}, {hi}]")


def stage_forward(params: dict, images: np.ndarray, config: BackboneConfig) -> list:
    """Run the shared stages; returns one post-pool feature map per stage.

    Each sample's scalar mean is subtracted before the first conv: inputs
    arrive in [0,1] and their DC component otherwise swamps the relu gates
    during from-scratch training. A zero image is unchanged (mean zero).
    """
    _check_images(images, config)
    x = Tensor(images - images.mean(axis=(1, 2, 3), keepdims=True))
    outputs = []
    for s in range(len(config.stage_channels)):
        conv = f"stages.{s}.conv"
        x = ad.conv2d_relu2_pool(x, params[conv + "0.weight"], params[conv + "0.bias"],
                                 params[conv + "1.weight"], params[conv + "1.bias"], pad=1)
        outputs.append(x)
    return outputs


def maen_forward(params: dict, images: np.ndarray, config: BackboneConfig) -> tuple:
    """Classification-network forward: ``(stage_outputs, cam_map, cam_logits)``."""
    stage_outputs = stage_forward(params, images, config)
    cam_map = ad.conv2d_relu(stage_outputs[-1], params["cam.conv.weight"],
                             params["cam.conv.bias"], stride=1, pad=1)
    pooled = ad.global_avg_pool(cam_map)
    return stage_outputs, cam_map, ad.linear(pooled, params["cam.fc.weight"], params["cam.fc.bias"])


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    params: dict = field(default_factory=dict)  # name -> float32 ndarray
    stage_tag: str = ""


def params_to_checkpoint(params: dict, stage_tag: str) -> Checkpoint:
    table = {name: np.ascontiguousarray(t.data, dtype=np.float32) for name, t in params.items()}
    return Checkpoint(table, stage_tag)


def checkpoint_to_params(ckpt: Checkpoint) -> dict:
    """Frozen views of a checkpoint's tables: gradient-free Tensors on its arrays."""
    return {name: Tensor(arr) for name, arr in ckpt.params.items()}


def save_checkpoint(ckpt: Checkpoint, path):
    """Binary layout: magic, ``CHECKPOINT_VERSION`` u32, entry count u32, then per
    entry name (u16 length + UTF-8), rank u8, dims u32 each, values as LE float32."""
    blobs = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(ckpt.params) + 1)]

    def entry(name, arr):
        raw = name.encode("utf-8")
        blobs.append(struct.pack("<H", len(raw)))
        blobs.append(raw)
        blobs.append(struct.pack("<B", arr.ndim))
        blobs.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        blobs.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    entry(_STAGE_TAG_PREFIX + ckpt.stage_tag, np.zeros((0,), dtype=np.float32))
    for name, arr in ckpt.params.items():
        entry(name, arr)
    with open(path, "wb") as fh:
        fh.write(b"".join(blobs))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {data[:4]!r}")
    off = 4

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(data):
            raise ValueError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, data, off)
        off += size
        return vals

    version, count = take("<I")[0], take("<I")[0]
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    ckpt, seen = Checkpoint(), set()
    for _ in range(count):
        (name_len,) = take("<H")
        if off + name_len > len(data):
            raise ValueError(f"{path}: truncated checkpoint name")
        name = data[off : off + name_len].decode("utf-8")
        off += name_len
        entry = _STAGE_TAG_PREFIX if name.startswith(_STAGE_TAG_PREFIX) else name
        if entry in seen:
            raise ValueError(f"{path}: repeated entry {name!r}")
        seen.add(entry)
        (rank,) = take("<B")
        dims = take(f"<{rank}I") if rank else ()
        nbytes = 4 * math.prod(dims)
        if off + nbytes > len(data):
            raise ValueError(f"{path}: truncated checkpoint values for {name}")
        arr = np.frombuffer(data[off : off + nbytes], dtype="<f4").reshape(dims)
        off += nbytes
        if name.startswith(_STAGE_TAG_PREFIX):
            ckpt.stage_tag = name[len(_STAGE_TAG_PREFIX):]
        elif not np.isfinite(arr).all():
            raise ValueError(f"{path}: parameter {name!r} holds non-finite values")
        else:
            ckpt.params[name] = arr.copy()
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes in checkpoint")
    return ckpt

