#!/usr/bin/env python3
"""ptgsolve benchmark: solve seeded game documents in a closed loop.

    python3 perfbench/run.py --workload fan-sweep --seed 1 --seconds 25 --trace 0

or, for every workload in turn:

    for w in fan-sweep ptg-ladder verify-mix; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0; done

Run from the root of a source tree; the program is imported from its
``src`` directory.  The workload's documents are generated from the seed
and written to ``.perfbench-work/`` before timing starts.  One process
solves them one at a time, with no threads, through
``ptgsolve.cli.main(["solve", doc, "--out", ...])``: the path of
``ptgsolve solve`` without interpreter start-up.  A pass solves and
checks every document once; passes repeat until ``--seconds`` have
passed, so a run always ends on a whole pass.

End-to-end times are scaled to a nominal machine speed: a fixed
reference workload (reference.py) runs between documents, and each time
is scaled by the reference times measured around it.  The report lines
also give the figures as measured.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same untraced loop, then one traced pass, and
reports the per-layer metrics (see registry.py).  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks
import registry
import workloads
from reference import around, reference_time, scale
from registry import P50, TAIL, THROUGHPUT
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9


def measure_setup():
    """Median time for a fresh interpreter to import ptgsolve.cli: scaled
    to the reference speed, and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import ptgsolve.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes the bytecode cache
    refs, raw = [reference_time()], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
        refs.append(reference_time())
    scaled = [scale(dt, around(refs, i)) for i, dt in enumerate(raw)]
    return statistics.median(scaled), statistics.median(raw)


def load_cli():
    sys.path.insert(0, str(SRC))
    from ptgsolve import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported {cli.__file__}, not the tree under {SRC}")
    return cli


def solve(cli, doc, path: Path, out: Path):
    """Solve one document; a miss is returned as a reason, never raised."""
    argv = ["solve", str(path), "--out", str(out)]
    if doc.verify:
        argv.append("--verify")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return "raised:\n" + traceback.format_exc()
    if code != 0:
        return f"exit code {code}"
    return None


class Runner:
    def __init__(self, cli, docs, workdir: Path):
        self.cli = cli
        self.docs = docs
        self.workdir = workdir
        self.refs = []  # reference times, in the order measured
        # per document solved and checked in an untraced pass: (name,
        # solve s, solve+check s, index in refs of the reference before)
        self.solves = []
        self.attempted = 0
        self.failed = 0
        for doc in docs:
            (workdir / f"{doc.name}.json").write_text(doc.text)

    def _miss(self, doc, reason):
        self.failed += 1
        if self.failed <= 5:
            print(f"[miss] {doc.name}: {reason}", file=sys.stderr)

    def determinism(self):
        """Solve the smallest document twice; the outputs must be equal."""
        doc = min(self.docs, key=lambda d: len(d.text))
        path = self.workdir / f"{doc.name}.json"
        outs = [self.workdir / f"{doc.name}.twice{i}.out" for i in (1, 2)]
        self.attempted += 1
        reason = solve(self.cli, doc, path, outs[0]) or solve(self.cli, doc, path, outs[1])
        if reason is None and outs[0].read_bytes() != outs[1].read_bytes():
            reason = "two solves gave different bytes"
        if reason is not None:
            self._miss(doc, reason)

    def one_pass(self, tracer=None) -> float:
        """Solve and check every document once.  An untraced pass times
        the reference between documents and records each solve; a traced
        pass does neither.  Returns the wall time of the pass without
        the reference runs."""
        start = time.perf_counter()
        in_reference = 0.0 if tracer else self._reference()
        for doc in self.docs:
            path = self.workdir / f"{doc.name}.json"
            out = self.workdir / f"{doc.name}.out"
            if tracer is not None:
                tracer.doc = doc.name
            t0 = time.perf_counter()
            with _region(tracer, "bench.doc"):
                reason = solve(self.cli, doc, path, out)
                solve_s = time.perf_counter() - t0
                if reason is None:
                    with _region(tracer, "bench.check"):
                        reason = checks.check_result(doc, out.read_text())
            doc_s = time.perf_counter() - t0
            self.attempted += 1
            if reason is not None:
                self._miss(doc, reason)
            if tracer is None:
                if reason is None:
                    self.solves.append((doc.name, solve_s, doc_s, len(self.refs) - 1))
                in_reference += self._reference()
        return time.perf_counter() - start - in_reference

    def _reference(self) -> float:
        self.refs.append(reference_time())
        return self.refs[-1]

    def loop(self, seconds: float) -> list:
        """Whole passes until ``seconds`` have passed; pass wall times."""
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(self.one_pass())
        return walls


def _region(tracer, name):
    return nullcontext() if tracer is None else tracer.region(name)


def tail_percentile(n: int):
    """The highest integer percentile above the median with at least ten
    of ``n`` documents beyond it, by nearest rank; None if there is none."""
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10 and rank > math.ceil(n / 2):
            return p
    return None


def percentile(values, p: int):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def end_to_end(runner, walls, setup):
    """Times are scaled to the reference speed (see reference.py).  The
    latency percentiles are taken over every solve of the run; the
    throughput over each document's median time.  The notes give the
    figures as measured."""
    solve_s, raw_solve_s, doc_s = [], [], {}
    for name, solve, full, i in runner.solves:
        ref = around(runner.refs, i)
        solve_s.append(scale(solve, ref))
        raw_solve_s.append(solve)
        doc_s.setdefault(name, []).append(scale(full, ref))
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup[0],
    }
    if not doc_s:
        return metrics, {name: "absent: no document passed" for name in (THROUGHPUT, P50, TAIL)}
    metrics["docs_per_s"] = len(doc_s) / sum(statistics.median(v) for v in doc_s.values())
    metrics["doc_p50_s"] = statistics.median(solve_s)
    notes = {
        "docs_per_s": f"{len(doc_s)} documents, {len(walls)} passes; as measured "
        f"{len(runner.docs) / statistics.median(walls):.4g}/s over the median pass",
        "doc_p50_s": f"{len(solve_s)} solves; as measured {statistics.median(raw_solve_s):.4g} s",
        "setup_s": f"as measured {setup[1]:.4g} s",
    }
    p = tail_percentile(len(doc_s))
    if p is None:
        notes["doc_tail_s"] = f"absent: {len(doc_s)} documents leave no percentile above the median"
    else:
        metrics["doc_tail_s"] = percentile(solve_s, p)
        notes["doc_tail_s"] = (f"p{p}, at least ten of {len(doc_s)} documents beyond it; "
                               f"as measured {percentile(raw_solve_s, p):.4g} s")
    return metrics, notes


def per_layer(tracer, traced_wall, untraced_wall):
    summary = tracer.summary()
    bench = {"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - untraced_wall}
    probe_names = {p.name for p in registry.PROBES}
    metrics, notes = {}, {}
    for m in registry.PER_LAYER:
        deps = m.needs or tuple(x for x in m.how[1:] if x in probe_names)
        lost = [tracer.missing[d] for d in deps if d in tracer.missing]
        if lost:
            notes[m.name] = "absent: " + "; ".join(lost)
            continue
        kind, *args = m.how
        span = summary.get(args[0], {"calls": 0, "total": 0.0, "self": 0.0})
        if kind in ("self", "total", "calls"):
            value = span[kind]
        elif kind == "count":
            value = tracer.counts[args[0]]
        elif kind == "per":
            units = tracer.counts[args[1]]
            value = span["total"] / units if units else 0.0
            notes[m.name] = f"{span['total']:.4f} s over {units} {args[1]}"
        elif kind == "ratio":
            num, den = tracer.counts[args[0]], tracer.counts[args[1]]
            value = num / den if den else 0.0
            notes[m.name] = f"{num} {args[0]} / {den} {args[1]}"
        else:
            value = bench[args[0]]
        metrics[m.name] = value
    return metrics, notes, summary


def layer_shares(summary, wall):
    shares = {}
    for name, row in summary.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + row["self"]
    return {layer: (s, s / wall) for layer, s in sorted(shares.items(), key=lambda kv: -kv[1])}


def report(metrics, notes, units):
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:<30} {note}")
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<30} {value:.6g} {units[name]}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptgsolve" / "cli.py").is_file():
        print(f"no ptgsolve sources under {SRC}", file=sys.stderr)
        return 2
    cli = load_cli()
    setup = None if args.trace else measure_setup()

    docs = workloads.pool(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(cli, docs, workdir)
        runner.determinism()
        walls = runner.loop(args.seconds)
        units = {m.name: m.unit for m in registry.END_TO_END + registry.PER_LAYER}
        print(f"workload {args.workload}, seed {args.seed}: {len(docs)} documents, "
              f"{len(walls)} passes, closed loop, one document at a time")
        if args.trace:
            tracer = Tracer()
            tracer.install(registry.PROBES)
            try:
                traced_wall = runner.one_pass(tracer)
            finally:
                tracer.restore()
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics, notes, summary = per_layer(tracer, traced_wall, statistics.median(walls))
            report(metrics, notes, units)
            for layer, (s, share) in layer_shares(summary, traced_wall).items():
                print(f"self time {layer:<20} {s:.4f} s  {100 * share:.1f}% of traced wall")
        else:
            metrics, notes = end_to_end(runner, walls, setup)
            report(metrics, notes, units)
        report({"failed_frac": runner.failed / runner.attempted},
               {"failed_frac": f"{runner.failed} of {runner.attempted}; not gated"}, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
