"""Wall-clock benchmark of the spatial-join engine: one command, every metric.

    python3 perf/run.py                       all four workloads, end to end
    python3 perf/run.py --trace               all four, per-layer traced run
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                              one workload; the last stdout
                                              line is the result as JSON
    python3 perf/run.py --aa                  the end-to-end set twice, compared
    python3 perf/run.py --compare A.json B.json
    python3 perf/run.py --tiny                sizes / 50, one pass (smoke test)

Every answer is checked against ``oracle.py``; a failed op is an error
after retries, a timeout, or an answer that differs from the oracle.
Results land in ``perf/out/``.  See ``perf/README.md`` for the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

import measure
import oracle
import serve_bench
import workloads

BENCHMARK = json.loads((measure.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
DEFAULT_SEED = 1993
#: Runs of the set per side of ``--aa``.
AA_ROUNDS = 3


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def _join_oracle(workload, seed: int, size) -> dict:
    def compute() -> dict:
        raw = workloads.shapes(workload, seed, size.n)
        exact = None
        if workload.polygon_radius:
            from repro.geometry.point import Point
            from repro.geometry.polygon import Polygon
            from repro.predicates.theta import Overlaps

            theta = Overlaps()
            geoms = {
                rel: [Polygon([Point(x, y) for x, y in verts]) for verts in shapes]
                for rel, shapes in raw.items()
            }

            def exact(i: int, j: int) -> bool:
                return theta(geoms["r"][i], geoms["s"][j])

        return oracle.join_answer(raw, exact)

    return oracle.memoised(
        measure.OUT_DIR, f"{workload.name}_s{seed}_n{size.n}", compute
    )


def _run_join(workload, seed: int, size, seconds: float, trace: bool, tiny: bool) -> dict:
    argv = [
        sys.executable, str(measure.PERF_DIR / "join_bench.py"),
        "--workload", workload.name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if tiny:
        argv.append("--tiny")
    # A traced run times its one set-up, so its oracle is ready beforehand.
    expected = _join_oracle(workload, seed, size) if trace else None
    child = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=measure.child_env()
    )
    try:
        if expected is None:
            # The oracle runs while the child does its first set-up: the
            # cold, slowest of the three and never the one reported; no
            # op is timed until all three are done.
            expected = _join_oracle(workload, seed, size)
        stdout, _ = child.communicate()
    finally:
        child.kill()
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"join_bench.py exited with code {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    want = [expected["count"], expected["checksum"]]
    answers = result.pop("answers")
    result["attempted"] = len(answers)
    result["failed"] = sum(1 for got in answers if got != want)
    result["facts"]["oracle_pairs"] = expected["count"]
    result["facts"]["oracle_candidates"] = expected["candidates"]
    return result


def _gap(best: float, runner_up: float) -> float:
    """How far the second-best reading is from the reported one, as a share.

    The reported value is a minimum over passes, so the range of all
    passes says little about it; whether a second pass came close does.
    """
    return abs(runner_up - best) / best


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload and return its checked result."""
    workload = workloads.WORKLOADS[name]
    size = workloads.sizing(workload, seconds, tiny)
    if workload.kind == "join":
        raw = _run_join(workload, seed, size, seconds, trace, tiny)
    else:
        run = serve_bench.run_traced if trace else serve_bench.run_e2e
        raw = run(workload, seed, size, seconds, tiny)

    result = {
        "workload": name, "seed": seed, "sizing": size.tag,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "correct": raw["failed"] == 0,
        "facts": raw["facts"],
    }
    if trace:
        result["broken"] = raw["broken"]
        result["metrics"] = {
            metric: {"value": float(raw["layers"].get(metric, 0.0)), "unit": spec["unit"]}
            for metric, spec in PER_LAYER.items()
        }
        return result

    summaries = [measure.pass_summary(p["op_ms"], p["wall_s"]) for p in raw["passes"]]
    quiet, *louder = sorted(summaries, key=lambda s: s["wall_s"])
    setups = sorted(raw["setup_s"])
    values = {
        "setup_s": setups[0],
        "op_p50_ms": quiet["op_p50_ms"],
        "op_tail_ms": quiet["op_tail_ms"],
        "ops_per_s": quiet["ops_per_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    result["metrics"] = {
        metric: {"value": values[metric], "unit": E2E[metric]["unit"]} for metric in E2E
    }
    result["spread"] = {
        "setup_s": _gap(*setups[:2]) if len(setups) > 1 else 0.0,
        "peak_rss_mb": 0.0,
        **{
            metric: _gap(quiet[metric], louder[0][metric]) if louder else 0.0
            for metric in ("op_p50_ms", "op_tail_ms", "ops_per_s")
        },
    }
    result["samples"] = quiet["samples"]
    result["tail_label"] = quiet["tail_label"]
    result["passes"] = [
        {"wall_s": s["wall_s"], "op_p50_ms": s["op_p50_ms"], "calib_ms": p["calib_ms"]}
        for s, p in zip(summaries, raw["passes"])
    ]
    result["setups_s"] = raw["setup_s"]
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}  {result['sizing']}")
    for metric, m in result["metrics"].items():
        note = ""
        if metric == "op_tail_ms":
            note = f"  ({result['tail_label']})"
        elif metric == "op_p50_ms":
            note = f"  ({result['samples']} samples in the quietest pass)"
        spread = result.get("spread", {}).get(metric)
        if spread:
            what = "set-up" if metric == "setup_s" else "pass"
            note += f"  next-best {what} {spread:.1%} off"
        print(f"{name:18s} {metric:32s} {m['value']:14.4f} {m['unit']}{note}")
    for i, p in enumerate(result.get("passes", [])):
        before, after = p["calib_ms"]
        print(f"{name:18s} pass {i}: wall {p['wall_s']:.3f} s, p50 {p['op_p50_ms']:.3f} ms, "
              f"host.calib_ms {before:.1f} -> {after:.1f}")
    share = result["failed"] / result["attempted"]
    print(f"{name:18s} {'failed_share':32s} {share:14.4f} share  "
          f"({result['failed']} of {result['attempted']} ops)")
    print(f"{name:18s} facts: {json.dumps(result['facts'])}")
    for line in result.get("broken", []):
        print(f"{name:18s} BROKEN PROBE {line}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


# ----------------------------------------------------------------------
# The whole set, A/A, compare
# ----------------------------------------------------------------------


def fingerprint() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(measure.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "host.calib_ms": measure.calib_ms(),
    }


def run_set(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = run_workload(name, seed, seconds, trace, tiny)
        report(results[name])
    return {
        "fingerprint": fingerprint(), "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny, "workloads": results,
    }


def write(document: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1))
    print(f"wrote {path.relative_to(measure.ROOT)}")


def merged(documents: list[dict]) -> dict:
    """Several runs of the set as one document: per-metric medians.

    Every run's values are kept under ``runs``; ``facts`` are the first
    run's (the A/A check compares them run by run).
    """
    first = documents[0]
    out = {**first, "rounds": len(documents), "workloads": {}}
    for name, base in first["workloads"].items():
        runs = [doc["workloads"][name] for doc in documents]
        out["workloads"][name] = {
            **base,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {
                metric: {**m, "value": median(r["metrics"][metric]["value"] for r in runs)}
                for metric, m in base["metrics"].items()
            },
            "spread": {
                metric: median(r["spread"][metric] for r in runs)
                for metric in base["spread"]
            },
            "runs": [
                {metric: r["metrics"][metric]["value"] for metric in base["metrics"]}
                for r in runs
            ],
        }
    return out


def _worse_by(metric: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if E2E[metric]["better"] == "lower" else -change


def compare(doc_a: dict, doc_b: dict) -> list[dict]:
    """One row per workload x metric: both values, ratio, verdict."""
    rows = []
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"][name]
        for metric, spec in E2E.items():
            va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            worse = _worse_by(metric, va, vb)
            spread = max(a["spread"][metric], b["spread"][metric])
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
            elif worse < -spec["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append({
                "workload": name, "metric": metric, "a": va, "b": vb,
                "unit": spec["unit"], "ratio": vb / va, "worse_by": worse,
                "bound": spec["bound"], "spread": spread, "verdict": verdict,
            })
        share_a, share_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        rows.append({
            "workload": name, "metric": "failed_share", "a": share_a, "b": share_b,
            "unit": "share", "ratio": None, "worse_by": share_b - share_a,
            "bound": 0.0, "spread": 0.0,
            "verdict": "regressed" if share_b > share_a else "unchanged",
        })
    return rows


def print_rows(rows: list[dict], label_a: str, label_b: str) -> None:
    print(f"{'workload':18s} {'metric':12s} {label_a:>14s} {label_b:>14s} unit   "
          f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for r in rows:
        ratio = f"{r['ratio']:7.3f}" if r["ratio"] is not None else "      -"
        print(f"{r['workload']:18s} {r['metric']:12s} {r['a']:14.4f} {r['b']:14.4f} "
              f"{r['unit']:6s} {ratio} {r['worse_by']:+9.1%} {r['bound']:6.0%} "
              f"{r['spread']:7.1%}  {r['verdict']}")


#: Counts that must repeat exactly between two runs of the same code.
JOIN_FACTS = ("strategy", "pairs", "filter_evals", "exact_evals")
CACHE_TIERS = ("probes", "exact_hits", "containment_hits", "misses")


def _facts_differ(name: str, a: dict, b: dict) -> list[str]:
    if workloads.WORKLOADS[name].kind == "join":
        return [f for f in JOIN_FACTS if a[f] != b[f]]
    if not workloads.WORKLOADS[name].insert_every:
        return [t for t in CACHE_TIERS if a["cache"][t] != b["cache"][t]]
    # Which read meets which write depends on the interleaving.
    return [
        t for t in CACHE_TIERS[1:]
        if abs(a["cache"][t] / a["cache"]["probes"]
               - b["cache"][t] / b["cache"]["probes"]) > 0.02
    ]


def run_aa(seed: int, seconds: float) -> int:
    """The same code as side A and side B: every metric must agree.

    The sides alternate, ``AA_ROUNDS`` runs of the set each, and their
    medians are compared: the host drifts by several percent over a few
    minutes, and two back-to-back single runs measure mostly that.
    """
    sides: dict[str, list[dict]] = {"a": [], "b": []}
    for _ in range(AA_ROUNDS):
        for runs in sides.values():
            runs.append(run_set(seed, seconds, False, False))
    docs = {side: merged(runs) for side, runs in sides.items()}
    for side, doc in docs.items():
        write(doc, measure.OUT_DIR / f"aa_{side}.json")

    rows = compare(docs["a"], docs["b"])
    print_rows(rows, "A (median)", "B (median)")
    bad = [r["metric"] for r in rows if abs(r["worse_by"]) > r["bound"]]
    for name in workloads.WORKLOADS:
        for run_a, run_b in zip(sides["a"], sides["b"]):
            differ = _facts_differ(
                name, run_a["workloads"][name]["facts"], run_b["workloads"][name]["facts"]
            )
            for fact in differ:
                print(f"{name}: {fact} did not repeat")
            bad.extend(differ)
    print("A/A: " + ("every metric within its bound" if not bad
                     else f"{len(bad)} disagreement(s)"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        docs = [json.loads(Path(p).read_text()) for p in args.compare]
        if any(doc["trace"] for doc in docs):
            parser.error("--compare takes end-to-end result files, not traced ones")
        rows = compare(*docs)
        print_rows(rows, "A", "B")
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0

    measure.use_checkout_source()
    if args.aa:
        return run_aa(args.seed, args.seconds)
    if args.workload:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
        report(result)
        print(contract_line(result))
        return 0
    name = "layers.json" if args.trace else "e2e.json"
    write(run_set(args.seed, args.seconds, bool(args.trace), args.tiny),
          measure.OUT_DIR / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
