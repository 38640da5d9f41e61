#!/usr/bin/env python3
"""Benchmark: authormine `analyze` and the query commands on Linux-shaped histories.

    python3 bench/run.py --workload kernel-series --seed 1 --seconds 38 --trace 0

The inputs for (workload, seed) are generated once by gen_history.py and
cached under bench/.cache/.  A run then repeats whole rounds as long as
one more round, as long as the last, still ends within --seconds.  With
--trace 0 a round is what a user runs, one process at a time:

    analyze   the full report over the whole release series
    authors   `authors FILE --release R` for a fixed list of files
    stats     `stats --release R`
    network   `network --release R --scope All --edges F --graph G`

Every command starts through launch.py, which notes when the command
first opens the log.  Before that moment is set-up (interpreter start,
`import authormine`, config validation), reported as setup_s; after it
is the command's work, reported per command.  Peak RSS is the VmHWM of
each command's own process, which launch.py reads as the command returns
(see there why not rusage).  Every output is checked against
reference.py outside the timed region; an output byte-identical to one
already checked is not checked again.  Each run also plants a wrong
number and a dropped row in a copy of the reports and requires the
checks to reject both.

With --trace 1 a round runs one untraced and one traced `analyze`
(tracer.py) and reports the per-layer self times and counters; one
extra traced `analyze` at the start takes the tracemalloc peaks.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Each metric is the median over the run's rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen_history
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RULES = SRC / "authormine" / "data" / "subsystem_rules.tsv"
CACHE = BENCH / ".cache"
WORK = BENCH / ".work"
MB = 1024.0  # VmHWM is in KiB


def cached_inputs(workload: str, seed: int) -> Path:
    """Generate the inputs for (workload, seed) once; later runs reuse them."""
    version = hashlib.sha256(Path(gen_history.__file__).read_bytes()).hexdigest()[:12]
    target = CACHE / f"{workload}-{seed}-{version}"
    if not (target / "meta.json").is_file():  # meta.json is written last
        shutil.rmtree(target, ignore_errors=True)
        gen_history.generate(workload, seed, target)
    return target


class Run:
    def __init__(self, inputs: Path, work: Path):
        self.work = work
        self.meta = json.loads((inputs / "meta.json").read_text(encoding="utf-8"))
        self.release = self.meta["query_release"]
        self.scope = gen_history.QUERY_SCOPE
        self.log = str(inputs / "history.ndjson")
        self.config = ["--log", self.log,
                       "--releases", str(inputs / "releases.txt"),
                       "--alias-map", str(inputs / "aliases.txt"),
                       "--exclude", gen_history.FIRMWARE]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ref = reference.build(inputs, RULES, [gen_history.FIRMWARE])
        self.checked: set[tuple] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []
        self.analyze_workload: list[str] = []
        self.analyze_network: list[str] = []

    # -- processes ---------------------------------------------------------

    def command(self, args: list[str], tag: str, trace: "list[str] | None" = None,
                ) -> "tuple[float, float] | None":
        """Run one CLI command as an operation: (seconds of work, peak RSS in MB).

        The work is the time from the command's first open of the log to
        its exit; the time before that is set-up and goes to self.setup.
        None when the command exits non-zero.
        """
        self.attempted += 1
        stamp = self.work / f"{tag}.stamp"
        argv = [str(BENCH / "launch.py"), str(stamp), self.log, *(trace or []), "--", *args]
        with open(self.work / f"{tag}.out", "wb") as out, \
                open(self.work / f"{tag}.err", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        if proc.returncode != 0:
            self.failed += 1
            err = (self.work / f"{tag}.err").read_text(encoding="utf-8", errors="replace")
            print(f"{tag}: exit {proc.returncode}: {err[-500:]}", file=sys.stderr)
            return None
        stamped = json.loads(stamp.read_text(encoding="utf-8"))
        opened = float(stamped["opened"])
        if trace is None:
            self.setup.append(opened - start)
        return end - opened, stamped["peak_kb"] / MB

    # -- commands and their checks ------------------------------------------

    def check(self, key: tuple, problems_of) -> None:
        if key in self.checked:
            return
        problems = problems_of()
        if problems:
            self.problems += problems
            print("\n".join(problems), file=sys.stderr)
        else:
            self.checked.add(key)

    def analyze(self, trace: "list[str] | None" = None) -> "tuple[float, float] | None":
        out = self.work / "report"
        shutil.rmtree(out, ignore_errors=True)
        args = ["analyze", *self.config, "-o", str(out)]
        if self.meta["json_mirror"]:
            args.append("--json")
        result = self.command(args, "analyze", trace)
        if result is not None:
            digest = tuple(sorted((p.name, _sha(p.read_bytes())) for p in out.iterdir()))
            self.check(("analyze", digest), lambda: reference.check_analyze(
                out, self.ref, self.meta["json_mirror"]))
            prefix = self.release + ","
            for name, store in (("workload", self.analyze_workload),
                                ("network", self.analyze_network)):
                lines = (out / f"{name}.csv").read_text(encoding="utf-8").splitlines()
                store[:] = [lines[0]] + [l for l in lines[1:] if l.startswith(prefix)]
        return result

    def authors(self, path: str, tag: str) -> "tuple[float, float] | None":
        result = self.command(["authors", *self.config, path, "--release", self.release],
                              tag)
        if result is not None:
            text = (self.work / f"{tag}.out").read_text(encoding="utf-8")
            self.check(("authors", path, _sha(text.encode())), lambda: reference.check_authors(
                text, self.ref, self.release, path))
        return result

    def stats(self) -> "tuple[float, float] | None":
        result = self.command(["stats", *self.config, "--release", self.release], "stats")
        if result is not None:
            text = (self.work / "stats.out").read_text(encoding="utf-8")
            self.check(("stats", _sha(text.encode())), lambda: self._query_problems(
                "stats", text, reference.check_workload, self.analyze_workload))
        return result

    def network(self) -> "tuple[float, float] | None":
        edges, graph = self.work / "edges.csv", self.work / "graph.net"
        result = self.command(["network", *self.config, "--release", self.release,
                               "--scope", self.scope, "--edges", str(edges),
                               "--graph", str(graph)], "network")
        if result is not None:
            text = (self.work / "network.out").read_text(encoding="utf-8")
            edges_text = edges.read_text(encoding="utf-8")
            graph_text = graph.read_text(encoding="utf-8")
            key = ("network", _sha(text.encode()), _sha(edges_text.encode()),
                   _sha(graph_text.encode()))
            self.check(key, lambda: (
                self._query_problems("network", text, reference.check_network,
                                     self.analyze_network)
                + reference.check_edges(edges_text, self.ref, self.release, self.scope)
                + reference.check_pajek(graph_text, self.ref, self.release, self.scope)))
        return result

    def _query_problems(self, what: str, text: str, checker, analyze_lines) -> list[str]:
        header, rows = reference.read_csv(text)
        problems = checker(rows, self.ref, releases={self.release}, header=header)
        if analyze_lines and text.splitlines() != analyze_lines:
            problems.append(f"{what} stdout differs from the analyze rows of {self.release}")
        return problems

    # -- self-test ------------------------------------------------------------

    def self_test(self) -> bool:
        """The checks must reject a corrupted number and a dropped row."""
        report = self.work / "report"
        header, rows = reference.read_csv((report / "workload.csv").read_text(encoding="utf-8"))
        corrupted = [list(r) for r in rows]
        row = next(r for r in corrupted if r[11] != "NA")
        row[11] = f"{float(row[11]) + 0.001:.6f}"
        n_header, n_rows = reference.read_csv(
            (report / "network.csv").read_text(encoding="utf-8"))
        dropped = n_rows[:len(n_rows) // 2] + n_rows[len(n_rows) // 2 + 1:]
        clean = (reference.check_workload(rows, self.ref, header=header)
                 + reference.check_network(n_rows, self.ref, header=n_header))
        return (not clean
                and bool(reference.check_workload(corrupted, self.ref, header=header))
                and bool(reference.check_network(dropped, self.ref, header=n_header)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _out_of_time(start: float, round_start: float, seconds: float) -> bool:
    """True when one more round, as long as the last, would end after `seconds`."""
    now = time.monotonic()
    return now - start + (now - round_start) > seconds


def timed_rounds(run: Run, seconds: float) -> dict:
    files = run.meta["authors_files"]
    samples: dict[str, list[float]] = {k: [] for k in (
        "analyze", "analyze_rss", "authors", "stats", "network", "query_rss")}
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        analyze = run.analyze()
        queries = [run.authors(path, f"authors{i}") for i, path in enumerate(files)]
        stats, network = run.stats(), run.network()
        if analyze:
            samples["analyze"].append(analyze[0])
            samples["analyze_rss"].append(analyze[1])
        if all(queries):
            samples["authors"].append(sum(q[0] for q in queries))
        for name, result in (("stats", stats), ("network", network)):
            if result:
                samples[name].append(result[0])
        done = [q for q in queries + [stats, network] if q]
        if done:
            samples["query_rss"].append(max(q[1] for q in done))
        print("round", {k: round(v[-1], 3) for k, v in samples.items() if v}, file=sys.stderr)
        if _out_of_time(start, round_start, seconds):
            break
    return {
        "setup_s": (_median(run.setup), "s"),
        "analyze_s": (_median(samples["analyze"]), "s"),
        "analyze_peak_rss_mb": (_median(samples["analyze_rss"]), "MB"),
        "authors_s": (_median(samples["authors"]), "s"),
        "stats_s": (_median(samples["stats"]), "s"),
        "network_edges_s": (_median(samples["network"]), "s"),
        "query_peak_rss_mb": (_median(samples["query_rss"]), "MB"),
    }


LAYER_TIMES = (
    "cli.validate_s", "cli.analyze_self_s",
    "ingest.parse_s", "ingest.alias_s", "ingest.filter_s",
    "snapshot.accumulate_s", "doa.score_s", "subsystems.partition_s",
    "workload.files_per_author_s", "workload.medcouple_s", "workload.gini_s",
    "workload.top_k_s", "profiles.s", "network.build_s", "network.metrics_s",
    "reports.rows_s", "reports.write_s", "reports.json_s", "reports.digest_s",
)
LAYER_COUNTS = (
    "ingest.records", "ingest.changes", "ingest.changes_excluded",
    "snapshot.files_frozen", "snapshot.live_files", "doa.scored_pairs",
    "workload.medcouple_calls", "profiles.members", "network.edges",
    "reports.bytes_written",
)
LAYER_PEAKS = ("workload.medcouple_peak_mb", "reports.json_peak_mb")


def layer_metrics(trace: dict, report: Path) -> dict[str, float]:
    """Self time per layer, plus the counters, from one traced analyze."""
    values = dict.fromkeys(LAYER_TIMES, 0.0)
    for name, _start, _end, _parent, busy, child in trace["spans"]:
        values[name] = values.get(name, 0.0) + busy - child
    counts = trace["counts"]
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    values["ingest.changes_excluded"] = (counts.get("ingest.changes", 0)
                                         - counts.get("ingest.changes_kept", 0))
    authorship = (report / "authorship.csv").read_bytes()
    values["doa.scored_pairs"] = authorship.count(b"\n") - 1
    values["reports.bytes_written"] = sum(p.stat().st_size for p in report.iterdir())
    return values


def traced_rounds(run: Run, seconds: float) -> dict:
    trace_file = str(run.work / "trace.json")
    untraced, traced, layers = [], [], []
    peaks = {}
    if run.analyze(trace=["--trace", trace_file, "--peaks"]):
        peaks = json.loads(Path(trace_file).read_text(encoding="utf-8"))["peaks"]
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        plain = run.analyze()
        if plain:
            untraced.append(plain[0])
        result = run.analyze(trace=["--trace", trace_file])
        if result:
            traced.append(result[0])
            trace = json.loads(Path(trace_file).read_text(encoding="utf-8"))
            layers.append(layer_metrics(trace, run.work / "report"))
        if _out_of_time(start, round_start, seconds):
            break
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name] = (_median([l[name] for l in layers]), "s")
    for name in LAYER_COUNTS:
        unit = "bytes" if name == "reports.bytes_written" else "count"
        metrics[name] = (_median([l[name] for l in layers]), unit)
    for name in LAYER_PEAKS:
        metrics[name] = (peaks.get(name, 0.0), "MB")
    traced_s = _median(traced)
    in_layers = _median([sum(l[n] for n in LAYER_TIMES if n != "cli.validate_s")
                         for l in layers])
    metrics["trace.analyze_s"] = (traced_s, "s")
    metrics["trace.unattributed_s"] = (traced_s - in_layers, "s")
    metrics["trace.overhead_s"] = (traced_s - _median(untraced), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen_history.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "authormine" / "cli.py").is_file() or not RULES.is_file():
        print(f"authormine sources not found under {SRC}", file=sys.stderr)
        return 2

    inputs = cached_inputs(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(inputs, work)
        if args.trace:
            metrics = traced_rounds(run, args.seconds)
        else:
            metrics = timed_rounds(run, args.seconds)
        self_test_ok = run.analyze_workload != [] and run.self_test()
        if not self_test_ok:
            print("self-test: the checks did not reject planted errors", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not run.problems and self_test_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
