"""The wsdl benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload train|infer-stream|eval-bulk \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
there and fails when that is missing. Metric names, units and workloads are
the ones in ``BENCHMARK.json``; ``perfbench/README.md`` explains them.

Every workload runs every phase in three rounds: a training run (in a fresh
child process, as ``wsdl train``), a closed-loop ``pl.infer`` stream with one
client and one image per call, ``pl.infer_separate`` over the same images,
and ``ev.evaluate_model`` passes. The workload's home phase runs on for its
share of ``--seconds`` in each round: training for ``train``, the stream for
``infer-stream`` and evaluation for ``eval-bulk``. Inference runs in this
process, which never trains, on a reference model trained from a fixed seed.
The workload seed makes the test images, and on ``train`` also the training
split and the training seed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
twice on its minimum work, so that counts repeat exactly: untraced, then
traced. It prints the per-layer metrics plus ``overhead.<metric>``, how much
worse each end-to-end metric read with tracing on. Spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "wsdl", "__init__.py")):
        _fail(f"no wsdl package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import wsdl

    if not os.path.abspath(wsdl.__file__).startswith(SRC + os.sep):
        _fail(f"imported wsdl from {wsdl.__file__}, not from {SRC}")


def _spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def machine_facts(loadavg_start) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WSDL_THREADS")},
        "src_lines": src_lines,
    }


def _cpu_times() -> list:
    """The aggregate line of /proc/stat: user, nice, system, idle, ..., steal."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def main(argv=None) -> int:
    loadavg_start, cpu_start = os.getloadavg(), _cpu_times()
    _import_package()
    import workloads
    from tracing import Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _spec()
    os.environ.pop("WSDL_THREADS", None)  # evaluate with one worker, as by default
    os.makedirs(OUT, exist_ok=True)

    facts = machine_facts(loadavg_start)
    ops = workloads.Ops()
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = workloads.Workload(args.workload, args.seed, ROOT, work_dir,
                                      os.path.join(OUT, f"spans-{tag}"))
        if args.trace:
            plain = workload.run(0.0, ops)
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run(0.0, ops, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(OUT, f"spans-{tag}.jsonl"))
            layer = tracer.metrics()
            for item in spec["end_to_end"]:
                name = item["name"]
                before, after = plain["metrics"][name], traced["metrics"][name]
                worse = after / before if item["better"] == "lower" else before / after
                layer[f"overhead.{name}"] = worse - 1.0
            wanted = spec["per_layer"]
            values = {item["name"]: layer.get(item["name"], 0) for item in wanted}
            facts.update(plain["facts"], traced_facts=traced["facts"],
                         untraced_metrics=plain["metrics"], traced_metrics=traced["metrics"],
                         trace_missing=tracer.missing, spans=len(tracer.spans))
        else:
            result = workload.run(args.seconds, ops)
            wanted = spec["end_to_end"]
            values = result["metrics"]
            facts.update(result["facts"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    cpu_end = _cpu_times()
    if len(cpu_start) > 7 and len(cpu_end) > 7:  # the share of CPU time the host took back
        spent = [b - a for a, b in zip(cpu_start, cpu_end)]
        facts["cpu_steal_share"] = spent[7] / max(sum(spent), 1)
    metrics = {item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
               for item in wanted}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "errors": ops.errors}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1, default=str)
    for error in ops.errors:
        print(f"failed: {error}", file=sys.stderr)
    print("facts: " + json.dumps(facts, default=str))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
