import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "train_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "img_per_s", "unit": "img/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def _ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(train_s, img_per_s, setup_s, failed=0, digest="d"):
    """perfbench's stdout for one run: a facts line, then the result line."""
    metrics = {"train_s": {"value": train_s, "unit": "s"},
               "img_per_s": {"value": img_per_s, "unit": "img/s"},
               "setup_s": {"value": setup_s, "unit": "s"}}
    return (0, "facts: " + json.dumps({"digests": {"7": digest}}) + "\n"
            + json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                          "metrics": metrics}) + "\n")


def test_summary_of_synthetic_pairs():
    outputs = {}
    parent_setup = [0.10, 0.20, 0.10, 0.20, 0.10]  # quartile spread 0.1 of a 0.1 median
    for seed in range(1, 6):
        outputs["w", seed, "parent"] = _line(2.0 + 0.01 * seed, 100.0, parent_setup[seed - 1])
        # the change trains 10% slower and serves 50% more images per second
        outputs["w", seed, "change"] = _line((2.0 + 0.01 * seed) * 1.1, 150.0, 0.12)
    outputs["w", 2, "change"] = _line(2.02 * 1.1, 150.0, 0.12, failed=3)  # 3 operations failed
    outputs["w", 5, "change"] = (1, "Traceback ...\n")  # the run itself failed
    ab = _ab()
    entry = ab.summarize(SPEC, outputs)["w"]

    assert entry["seeds"] == [1, 2, 3, 4, 5]
    assert entry["attempted"] == {"parent": 500, "change": 400}
    assert entry["failed"] == {"parent": 0, "change": 3}
    assert entry["failed_runs"] == {"parent": 0, "change": 1}
    assert entry["correct"] == {"parent": True, "change": False}
    assert entry["digests_equal"] is True

    train = entry["metrics"]["train_s"]  # lower is better
    assert train["runs"]["change"][4] is None and len(train["runs"]["parent"]) == 5
    assert train["change_better_pairs"] == 0  # the failed run's pair drops out
    assert train["ratio"]["median"] == pytest.approx(1.1, abs=1e-3)
    assert train["median_change_pct"] == 9.73  # 2.2275 (seeds 1-4) against 2.03 (seeds 1-5)
    # lower is better: the minimum over the runs that finished
    assert train["best"] == {"parent": 2.01, "change": pytest.approx(2.01 * 1.1)}
    assert not train["worse_than_bound"] and not train["unresolved"]

    rate = entry["metrics"]["img_per_s"]  # higher is better
    assert rate["change_better_pairs"] == 4
    assert rate["ratio"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert rate["median_change_pct"] == 50.0 and not rate["worse_than_bound"]
    assert rate["best"] == {"parent": 100.0, "change": 150.0}  # higher is better: the maximum

    setup = entry["metrics"]["setup_s"]  # parent spread wider than its bound
    assert setup["parent"] == {"median": 0.1, "q1": 0.1, "q3": 0.2, "quartile_spread": 0.1}
    assert setup["spread_exceeds_bound"] and setup["unresolved"]
    assert setup["change_better_pairs"] == 2  # seeds 2 and 4 read 0.20 at the parent
    assert setup["median_change_pct"] == 20.0 and not setup["worse_than_bound"]
    assert setup["best"] == {"parent": 0.10, "change": 0.12}
    assert ab._row("w", "setup_s", setup).startswith(
        "w setup_s (s): 0.1 [0.1, 0.2] -> 0.12 [0.12, 0.12], best 0.1 -> 0.12, 20.0%, ")

    # the record keeps the BLAS thread settings the change's runs inherited
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
           "WSDL_THREADS": None}
    facts = {"nproc": 2, "numpy": "2.4.6", "blas": {"name": "scipy-openblas", "version": "0.3.31"},
             "thread_env": env}
    assert ab.machine(facts) == {"nproc": 2, "python": None, "numpy": "2.4.6", "thread_env": env,
                                 "blas": "scipy-openblas 0.3.31"}


def test_a_change_worse_than_its_bound_is_flagged():
    outputs = {}
    for seed in (1, 2, 3, 4):
        outputs["w", seed, "parent"] = _line(2.0, 100.0, 0.1)
        outputs["w", seed, "change"] = _line(2.6, 70.0, 0.05, digest="other")
    entry = _ab().summarize(SPEC, outputs)["w"]
    assert entry["metrics"]["train_s"]["worse_than_bound"]  # +30% against a 25% bound
    assert entry["metrics"]["img_per_s"]["worse_than_bound"]  # -30%
    assert not entry["metrics"]["setup_s"]["worse_than_bound"]
    assert entry["digests_equal"] is False


def test_a_failed_run_parses_to_none():
    ab = _ab()
    ok = _line(1.0, 1.0, 1.0)
    assert ab.parse_output(*ok)["facts"] == {"digests": {"7": "d"}}
    assert ab.parse_output(2, ok[1]) is None
    assert ab.parse_output(0, "facts: {}\n") is None
