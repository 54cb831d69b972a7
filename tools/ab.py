"""Run perfbench on a parent and a change checkout in alternating pairs.

    python3 tools/ab.py PARENT_CHECKOUT CHANGE_CHECKOUT --tag TAG

For each workload of the parent's ``BENCHMARK.json`` and each seed 1-10 it
runs, from each checkout's root in turn,

    python3 perfbench/run.py --workload W --seed N --seconds 9 --trace 0

with the seconds taken from ``run_seconds``. Odd seeds run the parent first,
even seeds the change. Children inherit this process's environment as it is,
BLAS thread settings included; nothing under ``perfbench/`` or
``BENCHMARK.json`` is written, apart from perfbench's own ``perfbench/out/``.

It writes ``BENCH_<TAG>.json`` in the change checkout and prints one row per
workload and end-to-end metric. Its ``machine`` is the change side's, with
the BLAS thread variables that side's runs saw (``thread_env``). Per metric
and side the file holds the median and quartiles over the side's runs
(``statistics.quantiles(n=4)``, exclusive method) and its best run (the
minimum of a lower-is-better metric, else the maximum: the least noisy
estimate on a loaded machine, after Chen and Revels 2016), the pairs in which
the change was better, the change of the medians in percent and the median
and quartiles of the per-pair change/parent ratio.
A metric is ``worse_than_bound`` when the change's median is worse than the
parent's by more than the metric's bound, and ``unresolved`` when the parent's
quartile spread exceeds that bound, unless every change run beats every
parent run. A run that exits non-zero or prints no result line is a failed
run: it counts in ``failed_runs`` and ``correct`` and drops out of its pair.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
SEEDS = range(1, 11)


def _command(workload, seed, seconds) -> str:
    return (f"python3 perfbench/run.py --workload {workload} --seed {seed} "
            f"--seconds {seconds:g} --trace 0")


def parse_output(returncode: int, stdout: str):
    """perfbench's result line with its facts under ``"facts"``; None for a
    failed run."""
    result, facts = None, {}
    for line in stdout.splitlines():
        if line.startswith("facts: "):
            facts = json.loads(line[len("facts: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if returncode != 0 or result is None:
        return None
    return {**result, "facts": facts}


def _stats(values: list) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "quartile_spread": None}
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "quartile_spread": round(q3 - q1, 4)}


def _metric(item: dict, parent: list, change: list) -> dict:
    """One end-to-end metric over paired runs; None marks a failed run."""
    lower = item["better"] == "lower"
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    ran = {side: [v for v in runs if v is not None] for side, runs in zip(SIDES, (parent, change))}
    sides = {side: _stats(ran[side]) for side in SIDES}
    best = min if lower else max
    out = {"unit": item["unit"], "better": item["better"], "bound": item["bound"], **sides,
           "best": {side: round(best(ran[side]), 4) if ran[side] else None for side in SIDES},
           "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in pairs)}
    ratio = _stats([c / p for p, c in pairs if p])
    out["ratio"] = {k: ratio[k] for k in ("median", "q1", "q3")}
    pm, cm = sides["parent"]["median"], sides["change"]["median"]
    if pm and cm is not None:
        change_pct = cm / pm - 1.0
        out["median_change_pct"] = round(100.0 * change_pct, 2)
        out["worse_than_bound"] = (change_pct if lower else -change_pct) > item["bound"]
        out["spread_exceeds_bound"] = sides["parent"]["quartile_spread"] / pm > item["bound"]
        beats_all = ((max(ran["change"]) < min(ran["parent"])) if lower
                     else (min(ran["change"]) > max(ran["parent"])))
        out["unresolved"] = out["spread_exceeds_bound"] and not beats_all
    else:  # a side has no run to compare
        out.update(median_change_pct=None, worse_than_bound=None, spread_exceeds_bound=None,
                   unresolved=True)
    out["runs"] = {"parent": parent, "change": change}
    return out


def summarize(spec: dict, outputs: dict) -> dict:
    """Per workload of ``spec``: run counts, outcome and every end-to-end
    metric. ``outputs`` maps (workload, seed, side) to a run's (returncode,
    stdout); seeds missing from it are left out."""
    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        seeds = sorted({seed for (w, seed, _) in outputs if w == name})
        runs = {side: [parse_output(*outputs.get((name, seed, side), (1, ""))) for seed in seeds]
                for side in SIDES}
        live = {side: [r for r in runs[side] if r is not None] for side in SIDES}
        entry = {
            "attempted": {side: sum(r["attempted"] for r in live[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in live[side]) for side in SIDES},
            "failed_runs": {side: len(seeds) - len(live[side]) for side in SIDES},
            "correct": {side: len(live[side]) == len(seeds)
                        and all(r["correct"] for r in live[side]) for side in SIDES},
            "seeds": seeds,
            "metrics": {},
        }
        for item in spec["end_to_end"]:
            values = ([None if r is None else r["metrics"][item["name"]]["value"]
                       for r in runs[side]] for side in SIDES)
            entry["metrics"][item["name"]] = _metric(item, *values)
        digests = [(p["facts"].get("digests"), c["facts"].get("digests"))
                   for p, c in zip(runs["parent"], runs["change"]) if p and c]
        entry["digests_equal"] = all(p == c for p, c in digests) if digests else None
        workloads[name] = entry
    return workloads


def _row(workload: str, name: str, m: dict) -> str:
    def side(s):
        return f"{s['median']} [{s['q1']}, {s['q3']}]"

    r, best = m["ratio"], m["best"]
    flags = [flag for flag in ("worse_than_bound", "unresolved") if m.get(flag)]
    return (f"{workload} {name} ({m['unit']}): {side(m['parent'])} -> {side(m['change'])}, "
            f"best {best['parent']} -> {best['change']}, {m['median_change_pct']}%, "
            f"change better in {m['change_better_pairs']}/{len(m['runs']['parent'])} pairs, "
            f"ratio {r['median']} [{r['q1']}, {r['q3']}]"
            + (f"; {', '.join(flags)}" if flags else ""))


def machine(facts: dict) -> dict:
    """The record's ``machine`` from one side's perfbench facts, with its BLAS
    library and the thread settings (``thread_env``) its runs inherited."""
    blas = facts.get("blas") or {}
    return {**{k: facts.get(k) for k in ("nproc", "python", "numpy", "thread_env")},
            "blas": " ".join(str(blas.get(k)) for k in ("name", "version"))}


def _commit(checkout: str):
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="ab", description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    args = p.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    outputs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                proc = subprocess.run(_command(workload, seed, seconds).split(),
                                      cwd=roots[side], capture_output=True, text=True, check=False)
                outputs[workload, seed, side] = (proc.returncode, proc.stdout)
                state = "ok" if parse_output(proc.returncode, proc.stdout) else "FAILED"
                print(f"{workload} seed {seed} {side}: {state}", file=sys.stderr, flush=True)
                if state == "FAILED":
                    print(proc.stderr[-2000:], file=sys.stderr)

    workloads = summarize(spec, outputs)
    first = {side: parse_output(*outputs[spec["workloads"][0]["name"], SEEDS[0], side]) or {}
             for side in SIDES}
    facts = {side: first[side].get("facts", {}) for side in SIDES}
    record = {
        "tag": args.tag,
        "parent_commit": _commit(roots["parent"]),
        "command": _command("W", "N", seconds),
        "pairs": f"seeds {SEEDS[0]}-{SEEDS[-1]} per workload; odd seeds ran the parent "
                 "first, even seeds the change",
        "quartiles": "statistics.quantiles(n=4), exclusive method, over the runs of a side",
        "src_lines": {side: facts[side].get("src_lines") for side in SIDES},
        "machine": machine(facts["change"]),
        "workloads": workloads,
        "claim": None,
    }
    out = os.path.join(roots["change"], f"BENCH_{args.tag}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, entry in workloads.items():
        for metric, m in entry["metrics"].items():
            print(_row(name, metric, m))
        print(f"{name}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"failed runs {entry['failed_runs']}, digests equal {entry['digests_equal']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
