"""Synthetic fine-grained dataset: same-looking objects, tiny class glyphs.

Every image carries one ellipse "object" of random (class-independent) color
and pose over textured clutter, with a 10x10 class glyph stamped somewhere
on the object. Subcategories therefore differ only inside a small
discriminative region, which makes localization claims checkable: the
object box and three part points (glyph center, object center, midpoint)
are stored in a separate annotations file that the training view never
reads.

Images are binary PPM (P6). Labels: ``labels.tsv`` with
``filename<TAB>class``. Annotations: ``annotations.tsv`` with
``filename<TAB>x_min y_min x_max y_max<TAB>px1,py1;px2,py2;px3,py3``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .attention import Box
from .config import check_ranges

GLYPH_SIZE = 5
GLYPH_PIXEL_SCALE = 2        # each pattern cell covers 2x2 pixels
GLYPH_HALF = GLYPH_SIZE * GLYPH_PIXEL_SCALE // 2
GLYPH_COLOR = (20, 20, 20)   # darker than anything else in the image

_DEFAULT_GLYPHS = (
    "11111 00100 00100 00100 00100",  # T
    "10000 10000 10000 10000 11111",  # L
    "10001 01010 00100 01010 10001",  # X
    "11111 10001 10001 10001 11111",  # O
    "00100 00100 11111 00100 00100",  # +
    "11111 00010 00100 01000 11111",  # Z
    "10001 10001 11111 10001 10001",  # H
    "11111 10000 11110 10000 11111",  # E
)
# class label -> its [5,5] bool pattern; generate_dataset renders at most this many classes
GLYPHS = tuple(np.array([[c == "1" for c in row] for row in s.split()]) for s in _DEFAULT_GLYPHS)
OBJECT_FRACTION = (0.3, 0.6)  # object diameter as a fraction of the image side
CLUTTER_SHAPES = 6            # clutter shapes per image
NOISE_SPAN = 5                # uniform +/- pixel noise on non-glyph content


@dataclass
class GenConfig:
    num_classes: int = 8
    train_count: int = 800
    test_count: int = 200
    image_size: tuple = (64, 64)
    seed: int = 7

    def __post_init__(self):
        self.image_size = tuple(self.image_size)
        check_ranges(self)
        # _render_sample draws each half-axis a from OBJECT_FRACTION of half the side,
        # at least GLYPH_HALF * 1.7, then its centre from uniform(a + 1, side - a - 1);
        # 2 a + 2 <= side holds for every side >= least (0.6 side + 2 <= side from 5 on)
        least = 2 * (GLYPH_HALF * 1.7 + 1)
        if len(self.image_size) != 2 or min(self.image_size) < least:
            raise ValueError(f"image_size must be two sides, each >= {least:g}, got {self.image_size}")


@dataclass
class EvalAnnotations:
    object_box: Box
    part_points: tuple  # ((x, y),) * 3: glyph center, object center, midpoint

    def __post_init__(self):
        self.part_points = tuple((float(x), float(y)) for x, y in self.part_points)
        for x, y in self.part_points:
            if not self.object_box.contains(x, y):
                raise ValueError(f"part point ({x}, {y}) outside object box {self.object_box}")


# ---------------------------------------------------------------------------
# rendering


def _draw_ellipse(img: np.ndarray, cx, cy, a, b, color):
    h, w, _ = img.shape
    ys, xs = np.mgrid[0:h, 0:w]
    inside = (((xs + 0.5) - cx) / a) ** 2 + (((ys + 0.5) - cy) / b) ** 2 <= 1.0
    img[inside] = color
    return inside


def _stamp_glyph(img: np.ndarray, pattern: np.ndarray, gx: int, gy: int):
    top, left = gy - GLYPH_HALF, gx - GLYPH_HALF
    for r in range(GLYPH_SIZE):
        for c in range(GLYPH_SIZE):
            if pattern[r, c]:
                y0 = top + r * GLYPH_PIXEL_SCALE
                x0 = left + c * GLYPH_PIXEL_SCALE
                img[y0 : y0 + GLYPH_PIXEL_SCALE, x0 : x0 + GLYPH_PIXEL_SCALE] = GLYPH_COLOR


def _render_sample(rng: np.random.Generator, label: int, config: GenConfig):
    h, w = config.image_size
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:, :] = rng.integers(70, 200, size=3)

    for _ in range(CLUTTER_SHAPES):
        color = rng.integers(70, 230, size=3)
        if rng.random() < 0.5:
            x0, y0 = rng.integers(0, w - 4), rng.integers(0, h - 4)
            img[y0 : y0 + rng.integers(3, 16), x0 : x0 + rng.integers(3, 16)] = color
        else:
            _draw_ellipse(img, rng.uniform(0, w), rng.uniform(0, h),
                          rng.uniform(2, 8), rng.uniform(2, 8), color)

    lo, hi = OBJECT_FRACTION
    a = rng.uniform(lo, hi) * w / 2.0
    b = rng.uniform(lo, hi) * h / 2.0
    a = max(a, GLYPH_HALF * 1.7)
    b = max(b, GLYPH_HALF * 1.7)
    cx = rng.uniform(a + 1, w - a - 1)
    cy = rng.uniform(b + 1, h - b - 1)
    obj_color = rng.integers(70, 220, size=3)
    obj_mask = _draw_ellipse(img, cx, cy, a, b, obj_color)

    noise = rng.integers(-NOISE_SPAN, NOISE_SPAN + 1, size=img.shape)
    img = np.clip(img.astype(np.int16) + noise, 45, 255).astype(np.uint8)

    # glyph center such that the whole stamp square sits inside the ellipse
    def fits(gx, gy):
        for dx in (-GLYPH_HALF, GLYPH_HALF):
            for dy in (-GLYPH_HALF, GLYPH_HALF):
                if ((gx + dx - cx) / a) ** 2 + ((gy + dy - cy) / b) ** 2 > 1.0:
                    return False
        return True

    gx, gy = int(round(cx)), int(round(cy))
    for _ in range(100):
        tx = int(round(rng.uniform(cx - a + GLYPH_HALF, cx + a - GLYPH_HALF)))
        ty = int(round(rng.uniform(cy - b + GLYPH_HALF, cy + b - GLYPH_HALF)))
        if fits(tx, ty):
            gx, gy = tx, ty
            break
    _stamp_glyph(img, GLYPHS[label], gx, gy)

    cols = np.flatnonzero(obj_mask.any(axis=0))
    rows = np.flatnonzero(obj_mask.any(axis=1))
    object_box = Box(float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))
    parts = ((float(gx), float(gy)), (cx, cy), ((gx + cx) / 2.0, (gy + cy) / 2.0))
    return img, EvalAnnotations(object_box=object_box, part_points=parts)


# ---------------------------------------------------------------------------
# file formats


def write_ppm(path, img: np.ndarray):
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


# magic, width, height and maxval, separated by whitespace and '#' comments
# (which run to the end of their line), then one whitespace byte before the pixels
_SEP = rb"(?:\s|#[^\r\n]*)+"
_PPM_HEADER = re.compile(rb"P6" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 image (netpbm header rules) back as uint8 [H,W,3]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: malformed PPM header")
    w, h, maxval = (int(v) for v in header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pixels = raw[header.end():]
    if len(pixels) != w * h * 3:
        raise ValueError(f"{path}: truncated PPM payload, expected {w * h * 3} bytes, "
                         f"got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).copy()


def image_to_float(img: np.ndarray) -> np.ndarray:
    """uint8 [H,W,3] -> float32 [3,H,W] in [0,1]."""
    return (img.astype(np.float32) / 255.0).transpose(2, 0, 1)


def generate_dataset(config: GenConfig, out_dir):
    """Write train/ and test/ splits; byte-for-byte deterministic in the seed."""
    if config.num_classes > len(GLYPHS):
        raise ValueError(f"num_classes must be in [2, {len(GLYPHS)}] to generate a dataset, "
                         f"got {config.num_classes}")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    for split, count in (("train", config.train_count), ("test", config.test_count)):
        split_dir = os.path.join(out_dir, split)
        os.makedirs(split_dir, exist_ok=True)
        labels_lines = []
        ann_lines = []
        for i in range(count):
            label = i % config.num_classes
            img, ann = _render_sample(rng, label, config)
            name = f"img_{i:05d}.ppm"
            write_ppm(os.path.join(split_dir, name), img)
            labels_lines.append(f"{name}\t{label}\n")
            box = ann.object_box
            coords = " ".join(repr(v) for v in (box.x_min, box.y_min, box.x_max, box.y_max))
            pts = ";".join(f"{repr(x)},{repr(y)}" for x, y in ann.part_points)
            ann_lines.append(f"{name}\t{coords}\t{pts}\n")
        with open(os.path.join(split_dir, "labels.tsv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(labels_lines)
        with open(os.path.join(split_dir, "annotations.tsv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(ann_lines)


# ---------------------------------------------------------------------------
# loading


def _rows(split_dir, table: str):
    """(``path:line``, file name, the other fields) of each non-blank line of
    ``<split_dir>/<table>.tsv``; a file named twice raises, naming the second line."""
    path = os.path.join(split_dir, f"{table}.tsv")
    seen = set()
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                name, *fields = line.rstrip("\n").split("\t")
                if name in seen:
                    raise ValueError(f"{path}:{line_no}: repeated file {name}")
                seen.add(name)
                yield f"{path}:{line_no}", name, fields
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"missing {table} file: {path}") from exc


def load_labels(split_dir) -> list:
    out = []
    for where, name, fields in _rows(split_dir, "labels"):
        try:
            (label,) = fields
            cls = int(label)
        except ValueError as exc:
            raise ValueError(f"{where}: malformed label line") from exc
        if cls < 0:
            raise ValueError(f"{where}: negative class label {label}")
        out.append((name, cls))
    return out


@dataclass(eq=False)
class FloatImages:
    """Uint8 images read as ``image_to_float``'s float32 [3,H,W] arrays on access (a slice: a list)."""

    raw: list

    def __len__(self):
        return len(self.raw)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [image_to_float(img) for img in self.raw[index]]
        return image_to_float(self.raw[index])


class TrainView:
    """The weak-supervision view of a split: images and class labels only.

    This loader never opens the annotations file; evaluation boxes and part
    points are reachable only through :func:`load_annotations`.
    """

    def __init__(self, split_dir):
        self.split_dir = str(split_dir)
        entries = load_labels(split_dir)
        if not entries:
            raise ValueError(f"{split_dir}: empty labels file")
        self.filenames = [name for name, _ in entries]
        self.labels = np.array([label for _, label in entries], dtype=np.int64)
        self.images = FloatImages(
            [read_ppm(os.path.join(split_dir, name)) for name in self.filenames])

    def __len__(self):
        return len(self.filenames)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def load_annotations(split_dir) -> dict:
    """Evaluation-only annotations: filename -> EvalAnnotations."""
    out = {}
    for where, name, fields in _rows(split_dir, "annotations"):
        try:
            coords, pts = fields
            x0, y0, x1, y1 = (float(v) for v in coords.split(" "))
            parts = tuple(tuple(float(v) for v in pt.split(",")) for pt in pts.split(";"))
            out[name] = EvalAnnotations(Box(x0, y0, x1, y1), parts)
        except ValueError as exc:
            raise ValueError(f"{where}: malformed annotation line") from exc
    return out
