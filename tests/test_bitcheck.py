import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bitcheck.py"


def _bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_is_bit_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--seeds", "1", "--eval-seeds", "1", "--test-counts", "12"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "bit-identical: 71 entries (4 dataset, 1 model_digest, 3 log stage=1, 8 log stage=2, "
        "2 log stage=3, 1 checkpoint dln.ckpt, 1 checkpoint head_cam.ckpt, "
        "1 checkpoint head_late.ckpt, 1 checkpoint maen.ckpt, 1 evaluate_model, 12 infer, ")


def test_dumps_that_differ_in_one_entry_name_it(capsys):
    bitcheck = _bitcheck()
    parent = {"seed 1: model_digest": "a", "seed 1: log stage=1 line 1": "b",
              "seed 1: log stage=3 line 2": "c", "seed 1: checkpoint head_cam.ckpt": "h",
              "seed 1: checkpoint maen.ckpt": "m"}
    assert bitcheck.compare(parent, dict(parent)) == 0
    assert capsys.readouterr().out == (
        "bit-identical: 5 entries (1 model_digest, 1 log stage=1, 1 log stage=3, "
        "1 checkpoint head_cam.ckpt, 1 checkpoint maen.ckpt)\n")
    # the first difference is named, then each kind's equal and differing counts,
    # a training stage's log lines and each checkpoint file apart
    ckpts = "checkpoint head_cam.ckpt: 1 equal, 0 differ\ncheckpoint maen.ckpt: 1 equal, 0 differ\n"
    cases = [
        ({**parent, "seed 1: log stage=1 line 1": "x"}, "seed 1: log stage=1 line 1 differs",
         "model_digest: 1 equal, 0 differ\nlog stage=1: 0 equal, 1 differ\n"
         "log stage=3: 1 equal, 0 differ\n" + ckpts),
        ({k: v for k, v in parent.items() if k != "seed 1: log stage=3 line 2"},
         "seed 1: log stage=3 line 2 only in the parent",
         "model_digest: 1 equal, 0 differ\nlog stage=1: 1 equal, 0 differ\n"
         "log stage=3: 0 equal, 1 differ\n" + ckpts),
        ({**parent, "seed 1: log stage=3 line 3": "d"},
         "seed 1: log stage=3 line 3 only in the change",
         "model_digest: 1 equal, 0 differ\nlog stage=1: 1 equal, 0 differ\n"
         "log stage=3: 1 equal, 1 differ\n" + ckpts),
        ({**parent, "seed 1: model_digest": "x", "seed 1: log stage=3 line 2": "x",
          "seed 1: checkpoint head_cam.ckpt": "x",
          "split 1/12, model 1: infer img_00000.ppm": "e"}, "seed 1: model_digest differs",
         "model_digest: 0 equal, 1 differ\nlog stage=1: 1 equal, 0 differ\n"
         "log stage=3: 0 equal, 1 differ\ncheckpoint head_cam.ckpt: 0 equal, 1 differ\n"
         "checkpoint maen.ckpt: 1 equal, 0 differ\ninfer: 0 equal, 1 differ\n"),
    ]
    for change, named, tally in cases:
        assert bitcheck.compare(parent, change) == 1
        assert capsys.readouterr().out == f"NOT bit-identical: {named}\n{tally}"


def test_number_lists_and_ranges():
    assert _bitcheck()._numbers("1-3,7,9-10") == [1, 2, 3, 7, 9, 10]
