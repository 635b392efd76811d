"""Measure which functions in ``src/`` anything reaches; write ``REACH.md``.

Usage::

    python tools/reach.py                        # every entry point -> REACH.md
    python tools/reach.py --entry examples/quickstart.py --out /tmp/R.md

The tool copies the tree into a temporary directory (nothing is left in
the repository) and puts a ``sitecustomize.py`` into the copy's ``src/``.
Every interpreter started with ``PYTHONPATH`` on that ``src/`` -- the
entry point itself and every child it spawns, including the join and
serve processes of ``perf/``, whose environment resets ``PYTHONPATH`` to
``src`` -- installs a ``sys.setprofile`` / ``threading.setprofile`` call
hook and, at exit (``atexit`` or ``os._exit``), writes the code objects it
entered.  A process killed by a signal writes nothing.

The records are joined with an ``ast`` walk of every ``def`` in ``src/``;
a function's first line is the line of its first decorator.  Each def
falls in exactly one class:

* **entry point** -- entered by at least one entry point other than
  tier-1 (``perf/``, ``benchmarks/``, an example, the transcript);
* **tests only** -- entered, but only while tier-1 ran;
* **never entered**.

For each def outside the first class the report names its ``src/``
callers (a static search for the name; imports, re-exports and the def's
own body do not count) and, from :data:`ANCHORS`, why it is kept.
Lines are attributed to the innermost def, so the classes' def-lines
add up to the lines of ``src/`` that sit inside any def.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = "tier-1"

#: Why a def that no entry point reaches stays.  Keys are
#: ``repro/module.py::Qual.name``; a key naming no def is an error.
#: "Test seam" marks a def kept only so tier-1 can observe or set up
#: state: it has no paper, design or documentation anchor, and is the
#: next deletion candidate.
ANCHORS = {
    # The paper, by section (docs/paper_walkthrough.md, DESIGN.md § 3).
    "repro/costmodel/distributions.py::Distribution.sigma": "§4, Fig. 7: σ_i",
    "repro/costmodel/distributions.py::Uniform.sigma": "§4, Fig. 7: σ_i",
    "repro/costmodel/distributions.py::NoLoc.sigma": "§4, Fig. 7: σ_i",
    "repro/costmodel/distributions.py::HiLoc.sigma": "§4, Fig. 7: σ_i",
    "repro/costmodel/parameters.py::ModelParameters.nodes_at": "§4, Tables 2–3: k^i nodes at height i",
    "repro/trees/balanced.py::BalancedKTree.nodes_at_height": "§4 S1, Fig. 7: the k^i nodes of a model tree",
    "repro/trees/balanced.py::BalancedKTree.leftmost_leaf": "§4, Fig. 7: the reference object o1",
    "repro/trees/balanced.py::BalancedKTree.depth_of": "§4, Fig. 7: the height index of a node",
    "repro/costmodel/sensitivity.py::selection_crossover": "§5: \"find the exact crossover points\"",
    "repro/geometry/hilbert.py::hilbert_coords": "§2.2, Fig. 1: \"any other ordering\"",
    "repro/geometry/hilbert.py::average_window_runs": "§2.2, Fig. 1: \"any other ordering\"",
    "repro/geometry/hilbert.py::worst_adjacent_gap": "§2.2, Fig. 1: \"any other ordering\"",
    "repro/trees/cartotree.py::CartoTree.from_containment": "§3, Fig. 3: a hierarchy from explicit containment",
    "repro/join/join_index.py::JoinIndex.insert_s": "§2.1 join index [Vald87]; §4.2 U_III maintenance (S4)",
    "repro/join/join_index.py::JoinIndex.remove_r": "§2.1 join index [Vald87]; §4.2 U_III maintenance (S4)",
    "repro/join/join_index.py::JoinIndex.partners_of_r": "§2.1 join index [Vald87]: lookup by R tid",
    "repro/join/local_join_index.py::LocalJoinIndex.partners_of": "§5: local join indices",
    "repro/relational/relation.py::Relation.get_many": "§4.3 C_III: fetch matched tids, each page once (Yao)",
    "repro/storage/clustered.py::ClusteredFile.cluster_runs": "§4.3 C_IIb: one page access per clustered run",
    # The safety rule: references, invariant checks, fault and failover paths.
    "repro/costmodel/yao.py::yao_exact": "reference: tests compare yao() against it",
    "repro/btree/tree.py::BPlusTree.check_invariants": "invariant check",
    "repro/join/join_index.py::JoinIndex.check_consistency": "invariant check",
    "repro/parallel/partitioner.py::reference_point": "reference: the duplicate-avoidance rule tests compare against",
    "repro/faults/disk.py::FaultyDisk.lose_page": "fault injection",
    "repro/faults/disk.py::FaultyDisk.torn_pages": "fault injection",
    "repro/faults/net.py::ChaosProxy.address": "fault injection (ChaosProxy)",
    "repro/faults/net.py::ChaosProxy.live_connections": "fault injection (ChaosProxy)",
    "repro/core/cancel.py::CancellationToken.remaining": "refusal path: a deadline's remaining budget",
    # Documented to users.
    "repro/cli.py::cmd_serve": "README.md: `python -m repro serve`",
    "repro/cli.py::cmd_client": "README.md: `python -m repro client`",
    "repro/cli.py::cmd_shards": "README.md: `python -m repro shards`",
    "repro/cache/cache.py::QueryCache.purge_stale": "docs/caching.md",
    "repro/server/net.py::QueryClient.broken": "docs/robustness.md",
    "repro/shard/keyspace.py::ShardMap.owner_shard": "docs/sharding.md",
    "repro/costmodel/estimation.py::estimate_selection_selectivity": "DESIGN.md § 2: sampled selectivity estimation",
    "repro/costmodel/estimation.py::SelectivityEstimate.confidence_interval": "DESIGN.md § 2: sampled selectivity estimation",
    # Reached through getattr, which the static search cannot see.
    "repro/trees/rtree.py::RTree.remap_tids": "Relation.recluster calls it through getattr",
    "repro/trees/balanced.py::BalancedKTree.remap_tids": "Relation.recluster calls it through getattr",
    "repro/trees/cartotree.py::CartoTree.remap_tids": "Relation.recluster calls it through getattr",
    # Test seams.
    "repro/geometry/point.py::Point.manhattan_distance_to": "test seam",
    "repro/geometry/polygon.py::Polygon.regular": "test seam: polygon fixtures",
    "repro/geometry/segment.py::Segment.is_degenerate": "test seam",
    "repro/intermediate/approx.py::IntervalApprox.cell_count": "test seam",
    "repro/intermediate/approx.py::IntervalApprox.full_cell_count": "test seam",
    "repro/obs/trace.py::Span.virtual_duration": "test seam",
    "repro/obs/trace.py::Tracer.roots": "test seam",
    "repro/obs/trace.py::NullTracer.roots": "test seam",
    "repro/parallel/partitioner.py::GridSpec.cell_rect": "test seam",
    "repro/relational/schema.py::Schema.spatial_columns": "test seam",
    "repro/server/net.py::QueryServer.address": "test seam: where a test connects",
    "repro/shard/runtime.py::ShardRuntime.meter_snapshot": "test seam",
    "repro/storage/buffer.py::BufferPool.is_resident": "test seam",
    "repro/storage/buffer.py::BufferPool.resident_count": "test seam",
    "repro/storage/buffer.py::BufferPool.pinned_count": "test seam",
    "repro/storage/heapfile.py::HeapFile.append_all": "test seam",
    "repro/storage/page.py::Page.live_records": "test seam",
    "repro/storage/page.py::Page.record_count": "test seam",
    "repro/trees/base.py::GeneralizationTree.leaf_count": "test seam",
    "repro/trees/knn.py::nearest_neighbor": "test seam",
    "repro/trees/node.py::GTNode.subtree_size": "test seam",
    "repro/wal/checkpoint.py::Checkpointer.track": "test seam",
    "repro/wal/log.py::WriteAheadLog.log_page_ids": "test seam",
}

#: Written into the copy's ``src/``; run by every interpreter started on it.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_out, _label = os.environ.get("REACH_OUT"), os.environ.get("REACH_LABEL")
if _out and _label:
    _src = os.path.dirname(os.path.abspath(__file__)) + os.sep
    _seen = {}

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code

    def _dump():
        sys.setprofile(None)
        path = os.path.join(_out, "%s.%d.%d" % (_label.replace("/", "_"), os.getpid(), id(_seen)))
        with open(path, "w") as out:
            out.write(_label + "\\n")
            for code in list(_seen.values()):
                if code.co_filename.startswith(_src):
                    out.write("%s\\t%d\\t%s\\n" % (
                        code.co_filename[len(_src):], code.co_firstlineno, code.co_name))

    _exit = os._exit

    def _dump_and_exit(status):
        _dump()
        _exit(status)

    os._exit = _dump_and_exit
    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


def entry_points() -> dict[str, list[str]]:
    """Label -> argv (run from the copy's root)."""
    python = sys.executable
    entries = {
        TESTS: [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        "perf --tiny": [python, "perf/run.py", "--tiny"],
        "perf --tiny --trace 1": [python, "perf/run.py", "--tiny", "--trace", "1"],
        "benchmarks": [python, "-m", "pytest", "benchmarks", "-q",
                       "-p", "no:cacheprovider", "--benchmark-disable"],
    }
    for script in sorted((ROOT / "examples").glob("*.py")):
        entries[f"examples/{script.name}"] = [python, f"examples/{script.name}"]
    entries["tools/transcript.py"] = [python, "tools/transcript.py"]
    return entries


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def export(dest: Path) -> None:
    """Copy the tree without version control, caches or run outputs."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
        "bench-artifacts", "out", "*.egg-info",
    ))


def run(labels: list[str]) -> dict[str, set[tuple[str, int, str]]]:
    """Run each entry point on one exported copy; label -> entered code keys."""
    entries = entry_points()
    entered: dict[str, set[tuple[str, int, str]]] = defaultdict(set)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        copy, records = Path(tmp, "tree"), Path(tmp, "records")
        export(copy)
        records.mkdir()
        (copy / "src" / "sitecustomize.py").write_text(SITECUSTOMIZE)
        for label in labels:
            env = {**os.environ, "PYTHONPATH": str(copy / "src"),
                   "REACH_OUT": str(records), "REACH_LABEL": label}
            start = time.perf_counter()
            done = subprocess.run(entries[label], cwd=copy, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            print(f"{label}: exit {done.returncode}, "
                  f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
            if done.returncode:
                sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
                raise SystemExit(f"entry point {label!r} failed")
        for path in records.iterdir():
            label, *lines = path.read_text().splitlines()
            for line in lines:
                rel, first, name = line.split("\t")
                entered[label].add((rel, int(first), name))
    return entered


# ----------------------------------------------------------------------
# Static side
# ----------------------------------------------------------------------


class Def:
    __slots__ = ("path", "qualname", "name", "first", "last", "own_lines", "labels")

    def __init__(self, path: str, qualname: str, node) -> None:
        self.path, self.qualname, self.name = path, qualname, node.name
        self.first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        self.last = node.end_lineno
        self.own_lines = self.last - self.first + 1
        self.labels: set[str] = set()

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def kind(self) -> str:
        if self.labels - {TESTS}:
            return "entry point"
        return "tests only" if self.labels else "never entered"


def defs_of(src: Path) -> list[Def]:
    """Every def under ``src``, its own lines net of the defs nested in it."""
    found: list[Def] = []

    def visit(node, path: str, prefix: str, owner: Def | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                d = Def(path, prefix + child.name, child)
                if owner is not None:
                    owner.own_lines -= d.own_lines
                found.append(d)
                visit(child, path, d.qualname + ".", d)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".", owner)
            else:
                visit(child, path, prefix, owner)

    for file in sorted(src.rglob("*.py")):
        rel = file.relative_to(src).as_posix()
        visit(ast.parse(file.read_text(), rel), rel, "", None)
    return found


def references(src: Path) -> dict[str, list[tuple[str, int]]]:
    """Name -> ``(path, line)`` of every ``Name`` or attribute using it.

    Imports and ``__all__`` strings are not references, so a re-export
    does not count as a caller, and neither does a docstring.
    """
    refs: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for file in sorted(src.rglob("*.py")):
        rel = file.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(file.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id].append((rel, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((rel, node.end_lineno))
    return refs


def callers(d: Def, refs) -> list[str]:
    """``path:line`` of each src/ reference to ``d``'s name outside its body."""
    hits = sorted({
        (path, line) for path, line in refs.get(d.name, ())
        if not (path == d.path and d.first <= line <= d.last)
    })
    return [f"{path}:{line}" for path, line in hits]


def anchor(d: Def, hits: list[str]) -> str:
    if d.key in ANCHORS:
        return ANCHORS[d.key]
    if d.name.startswith("__") and d.name.endswith("__"):
        return "data-model method: Python calls it implicitly"
    return "" if hits else "**none**"


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------

KINDS = ("entry point", "tests only", "never entered")


def classify(defs: list[Def], entered) -> None:
    """Give each def the labels of the entry points that entered it."""
    index = {(d.path, d.first, d.name): d for d in defs}
    for label, keys in entered.items():
        for key in keys:
            if key in index:
                index[key].labels.add(label)


def report(defs: list[Def], labels: list[str], complete: bool) -> str:
    unknown = set(ANCHORS) - {d.key for d in defs}
    if unknown:
        raise SystemExit(f"ANCHORS names defs that do not exist: {sorted(unknown)}")
    src = ROOT / "src"
    total = sum(len(f.read_text().splitlines()) for f in src.rglob("*.py"))
    by_kind = {k: [d for d in defs if d.kind == k] for k in KINDS}
    refs = references(src)
    out = [
        "# REACH: which defs in `src/` anything enters",
        "",
        "Generated by `python tools/reach.py` (the docstring says how); do not edit.",
        "" if complete else
        f"\n**Partial run** (entry points: {', '.join(labels)}); not the committed report.\n",
        "Entry points, each run on an exported copy of the tree:",
        "",
    ]
    entries = entry_points()
    for label in labels:
        reached = sum(1 for d in defs if label in d.labels)
        command = " ".join(a if a != sys.executable else "python" for a in entries[label])
        out.append(f"- `{label}`: `{command}`, {reached} defs entered")
    out += [
        "",
        f"`src/` is {total} lines in {len(defs)} defs; every def is in exactly one class.",
        "",
        "| class | defs | def-lines |",
        "|---|---:|---:|",
    ]
    for kind in KINDS:
        group = by_kind[kind]
        out.append(f"| {kind} | {len(group)} | {sum(d.own_lines for d in group)} |")
    out.append(f"| total | {len(defs)} | {sum(d.own_lines for d in defs)} |")
    for kind in KINDS[1:]:
        out += ["", f"## {kind.capitalize()}", "",
                "Each stays because `src/` calls it, or for the anchor named.", "",
                "| def | lines | `src/` callers | anchor |", "|---|---:|---|---|"]
        for d in sorted(by_kind[kind], key=lambda d: (d.path, d.first)):
            hits = callers(d, refs)
            shown = ", ".join(hits[:3]) + (f" (+{len(hits) - 3})" if len(hits) > 3 else "")
            out.append(f"| `{d.key}` | {d.own_lines} | {shown} | {anchor(d, hits)} |")
    out += ["", "## Per module", "",
            "| module | defs | entry point | tests only | never entered |",
            "|---|---:|---:|---:|---:|"]
    modules = defaultdict(lambda: dict.fromkeys(KINDS, 0))
    for d in defs:
        modules[d.path][d.kind] += 1
    for path, counts in sorted(modules.items()):
        cells = " | ".join(str(counts[k]) for k in KINDS)
        out.append(f"| `{path}` | {sum(counts.values())} | {cells} |")
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entry", action="append", choices=list(entry_points()),
                        help="run only this entry point (repeatable)")
    parser.add_argument("--out", type=Path, default=ROOT / "REACH.md")
    args = parser.parse_args()
    labels = args.entry or list(entry_points())
    entered = run(labels)
    defs = defs_of(ROOT / "src")
    classify(defs, entered)
    args.out.write_text(report(defs, labels, complete=not args.entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
