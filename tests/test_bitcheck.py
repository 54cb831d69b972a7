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
    assert proc.stdout.startswith("bit-identical: 67 entries (1 model_digest, 13 log, "
                                  "4 checkpoint, 1 evaluate_model, 12 infer, ")


def test_dumps_that_differ_in_one_entry_name_it(capsys):
    bitcheck = _bitcheck()
    parent = {"seed 1: model_digest": "a", "seed 1: log line 1": "b", "seed 1: log line 2": "c"}
    assert bitcheck.compare(parent, dict(parent)) == 0
    assert capsys.readouterr().out == "bit-identical: 3 entries (1 model_digest, 2 log)\n"
    # the first difference is named, then each kind's equal and differing counts
    cases = [
        ({**parent, "seed 1: log line 1": "x"}, "seed 1: log line 1 differs",
         "model_digest: 1 equal, 0 differ\nlog: 1 equal, 1 differ\n"),
        ({k: v for k, v in parent.items() if k != "seed 1: log line 2"},
         "seed 1: log line 2 only in the parent",
         "model_digest: 1 equal, 0 differ\nlog: 1 equal, 1 differ\n"),
        ({**parent, "seed 1: log line 3": "d"}, "seed 1: log line 3 only in the change",
         "model_digest: 1 equal, 0 differ\nlog: 2 equal, 1 differ\n"),
        ({**parent, "seed 1: model_digest": "x", "seed 1: log line 2": "x",
          "split 1/12, model 1: infer img_00000.ppm": "e"}, "seed 1: model_digest differs",
         "model_digest: 0 equal, 1 differ\nlog: 1 equal, 1 differ\ninfer: 0 equal, 1 differ\n"),
    ]
    for change, named, tally in cases:
        assert bitcheck.compare(parent, change) == 1
        assert capsys.readouterr().out == f"NOT bit-identical: {named}\n{tally}"


def test_number_lists_and_ranges():
    assert _bitcheck()._numbers("1-3,7,9-10") == [1, 2, 3, 7, 9, 10]
