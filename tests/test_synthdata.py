import builtins
import os

import numpy as np
import pytest

from wsdl import synthdata as sd
from wsdl.attention import Box


def template_classify(img_u8, glyph_center, codebook):
    """Pixel-level nearest-glyph-template classifier (uses the annotation)."""
    gx, gy = int(round(glyph_center[0])), int(round(glyph_center[1]))
    half = sd.GLYPH_HALF
    patch = img_u8[gy - half : gy + half, gx - half : gx + half]
    dark = (patch < 40).all(axis=2)
    s = sd.GLYPH_PIXEL_SCALE
    pattern = dark.reshape(sd.GLYPH_SIZE, s, sd.GLYPH_SIZE, s).any(axis=(1, 3))
    dists = [int((pattern != g).sum()) for g in codebook]
    return int(np.argmin(dists))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    config = sd.GenConfig(num_classes=8, train_count=64, test_count=24, seed=11)
    sd.generate_dataset(config, out)
    return out, config


def test_default_codebook_distances():
    book = sd.GLYPHS
    assert len(book) == 8
    for i in range(len(book)):
        assert book[i].dtype == bool and book[i].shape == (sd.GLYPH_SIZE, sd.GLYPH_SIZE)
        for j in range(i + 1, len(book)):
            assert (book[i] != book[j]).sum() >= 6  # the pairwise Hamming distance


def test_generating_more_classes_than_glyphs_rejected_before_writing(tmp_path):
    config = sd.GenConfig(num_classes=9, train_count=2, test_count=2)  # models take any count
    with pytest.raises(ValueError, match=r"num_classes must be in \[2, 8\] to generate a "
                                         r"dataset, got 9"):
        sd.generate_dataset(config, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_counts_and_class_balance(small_dataset):
    out, config = small_dataset
    for split, count in (("train", 64), ("test", 24)):
        labels = sd.load_labels(os.path.join(out, split))
        assert len(labels) == count
        per_class = np.bincount([l for _, l in labels], minlength=8)
        assert per_class.max() - per_class.min() <= 1


def test_annotations_invariants(small_dataset):
    out, config = small_dataset
    h, w = config.image_size
    for split in ("train", "test"):
        anns = sd.load_annotations(os.path.join(out, split))
        assert len(anns) == len(sd.load_labels(os.path.join(out, split)))
        for ann in anns.values():
            box = ann.object_box
            assert 0.0 <= box.x_min < box.x_max <= w
            assert 0.0 <= box.y_min < box.y_max <= h
            assert len(ann.part_points) == 3
            for x, y in ann.part_points:
                assert box.contains(x, y)


def test_glyph_fully_inside_object_box(small_dataset):
    out, _ = small_dataset
    anns = sd.load_annotations(os.path.join(out, "train"))
    for name, _ in sd.load_labels(os.path.join(out, "train")):
        img = sd.read_ppm(os.path.join(out, "train", name))
        dark_rows, dark_cols = np.nonzero((img < 40).all(axis=2))
        assert len(dark_rows) > 0
        box = anns[name].object_box
        assert dark_cols.min() >= box.x_min and dark_cols.max() < box.x_max
        assert dark_rows.min() >= box.y_min and dark_rows.max() < box.y_max


def test_template_oracle_is_perfect(small_dataset):
    out, _ = small_dataset
    for split in ("train", "test"):
        anns = sd.load_annotations(os.path.join(out, split))
        for name, label in sd.load_labels(os.path.join(out, split)):
            img = sd.read_ppm(os.path.join(out, split, name))
            got = template_classify(img, anns[name].part_points[0], sd.GLYPHS)
            assert got == label


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    path = tmp_path / "x.ppm"
    sd.write_ppm(path, img)
    assert np.array_equal(sd.read_ppm(path), img)

    f = sd.image_to_float(img)
    assert f.shape == (3, 5, 7)
    assert f.min() >= 0.0 and f.max() <= 1.0


def test_train_view_keeps_uint8_images_and_reads_them_as_float(tmp_path):
    rng = np.random.default_rng(1)
    split = tmp_path / "train"
    split.mkdir()
    imgs = [rng.integers(0, 256, size=(4, 6, 3)).astype(np.uint8) for _ in range(3)]
    for i, img in enumerate(imgs):
        sd.write_ppm(split / f"{i}.ppm", img)
    (split / "labels.tsv").write_text("".join(f"{i}.ppm\t{i % 2}\n" for i in range(3)))
    view = sd.TrainView(split)
    want = [sd.image_to_float(img) for img in imgs]
    assert len(view.images) == 3
    assert all(raw.dtype == np.uint8 for raw in view.images.raw)
    read = [view.images[1], view.images[-1], *view.images[:2], *view.images]
    for got, ref in zip(read, [want[1], want[2], *want[:2], *want]):
        assert got.dtype == np.float32 and got.shape == (3, 4, 6)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
    assert isinstance(view.images[1:], list) and len(view.images[1:]) == 2
    with pytest.raises(IndexError):
        view.images[3]


@pytest.mark.parametrize("header", [
    b"P6 4 3 255\n",
    b"P6\n# written by another tool\n4 3\n# maxval follows\n255\n",
    b"P6\t4\r\n3   255 ",
])
def test_read_ppm_accepts_netpbm_headers(tmp_path, header):
    img = np.arange(36, dtype=np.uint8).reshape(3, 4, 3)
    img.flat[:3] = (ord(" "), ord("\n"), ord("#"))  # pixels that look like header bytes
    path = tmp_path / "x.ppm"
    path.write_bytes(header + img.tobytes())
    assert np.array_equal(sd.read_ppm(path), img)


@pytest.mark.parametrize("raw, message", [
    (b"P3 1 1 255\n1 2 3", "not a binary PPM"),
    (b"P6 1 x 255\n\x00\x00\x00", "malformed PPM header"),
    (b"P6 1 1 255", "malformed PPM header"),
    (b"P6 1 1 65535\n\x00\x00\x00", "unsupported maxval 65535"),
    (b"P6 2 1 255\n\x00\x00\x00", "expected 6 bytes, got 3"),
])
def test_read_ppm_rejects_bad_files(tmp_path, raw, message):
    path = tmp_path / "x.ppm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        sd.read_ppm(path)


def test_generation_deterministic(tmp_path):
    config = sd.GenConfig(num_classes=4, train_count=10, test_count=4, seed=3)
    a, b = tmp_path / "a", tmp_path / "b"
    sd.generate_dataset(config, a)
    sd.generate_dataset(config, b)
    for split in ("train", "test"):
        files_a = sorted(os.listdir(a / split))
        assert files_a == sorted(os.listdir(b / split))
        for name in files_a:
            assert (a / split / name).read_bytes() == (b / split / name).read_bytes()


def test_truncated_image_error(tmp_path):
    config = sd.GenConfig(num_classes=2, train_count=2, test_count=2, seed=5)
    sd.generate_dataset(config, tmp_path)
    victim = tmp_path / "train" / "img_00000.ppm"
    victim.write_bytes(victim.read_bytes()[:-10])
    with pytest.raises(ValueError, match="img_00000.ppm"):
        sd.read_ppm(victim)

    with pytest.raises(FileNotFoundError, match="labels"):
        sd.load_labels(tmp_path / "nowhere")
    with pytest.raises(FileNotFoundError, match="annotations"):
        sd.load_annotations(tmp_path / "nowhere")


def test_train_view_never_opens_annotations(small_dataset, monkeypatch):
    out, _ = small_dataset
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    view = sd.TrainView(os.path.join(out, "train"))
    monkeypatch.undo()

    assert len(view) == 64
    assert opened  # the probe actually saw the loads
    assert not [p for p in opened if "annotations" in p]


def test_malformed_lines_error(tmp_path):
    split = tmp_path / "train"
    split.mkdir()
    (split / "labels.tsv").write_text("img.ppm\tnotanumber\n")
    with pytest.raises(ValueError, match="labels.tsv:1"):
        sd.load_labels(split)
    (split / "labels.tsv").write_text("a.ppm\t0\nb.ppm\t-1\n")
    with pytest.raises(ValueError, match="labels.tsv:2: negative class label -1"):
        sd.load_labels(split)
    (split / "annotations.tsv").write_text("img.ppm\t1 2 3\t4,5\n")
    with pytest.raises(ValueError, match="annotations.tsv:1"):
        sd.load_annotations(split)


def test_a_file_listed_twice_in_labels_rejected(tmp_path):
    sd.generate_dataset(sd.GenConfig(num_classes=2, train_count=2, test_count=0), tmp_path)
    labels = tmp_path / "train" / "labels.tsv"
    labels.write_text(labels.read_text() + "img_00000.ppm\t1\n")  # once as class 0, once as 1
    with pytest.raises(ValueError, match=r"labels\.tsv:3: repeated file img_00000\.ppm"):
        sd.TrainView(tmp_path / "train")


def test_a_file_listed_twice_in_annotations_rejected(tmp_path):
    # the last line won: evaluation scored localization against the whole image
    sd.generate_dataset(sd.GenConfig(num_classes=2, train_count=2, test_count=0), tmp_path)
    annotations = tmp_path / "train" / "annotations.tsv"
    annotations.write_text(annotations.read_text()
                           + "\nimg_00000.ppm\t0.0 0.0 64.0 64.0\t1.0,1.0;2.0,2.0;3.0,3.0\n")
    with pytest.raises(ValueError, match=r"annotations\.tsv:4: repeated file img_00000\.ppm$"):
        sd.load_annotations(tmp_path / "train")


BAD_GEN_VALUES = [
    ("image_size", (16, 16)), ("image_size", (64, 18)), ("train_count", -3), ("test_count", -1),
]


@pytest.mark.parametrize("key, value", BAD_GEN_VALUES, ids=[f"{k}={v}" for k, v in BAD_GEN_VALUES])
def test_gen_config_rejects_values_the_renderer_cannot_draw(key, value):
    with pytest.raises(ValueError, match=key):
        sd.GenConfig(**{key: value})


@pytest.mark.parametrize("kwargs", [{"image_size": (19, 19)}])
def test_gen_config_range_ends_render(tmp_path, kwargs):
    config = sd.GenConfig(num_classes=2, train_count=6, test_count=0, **kwargs)
    sd.generate_dataset(config, tmp_path)
    assert len(sd.load_labels(tmp_path / "train")) == 6
