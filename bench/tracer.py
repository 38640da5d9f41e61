"""Layer spans for one authormine command, recorded from outside the package.

`install` wraps each layer's public functions where their callers look
them up (`cli.parse_commit_log`, `reports.medcouple`, `workload.medcouple`,
...), so `cli.main` and `reports.release_report` still drive the run.  A
span is (name, start, end, parent, busy, child): busy is the time the
span was running and child the part of it spent in directly nested
spans, so busy - child is its self time.  Generators are resumed many
times; the resumes of one generator under one parent are folded into one
span, which is why busy is kept apart from end - start.  Spans, counters
and tracemalloc peaks stay in memory until `dump`.

tracemalloc slows every allocation it sees, which would inflate the times
of the spans it covers, so peaks are taken only when the tracer is made
with peaks=True, in a run whose times are not used.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
import tracemalloc
import types

from authormine import cli, reports, workload

clock = time.perf_counter


class Tracer:
    def __init__(self, peaks: bool) -> None:
        self.with_peaks = peaks
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.folded: dict[tuple[int, int], int] = {}
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, float] = {}
        self.serial = itertools.count()

    def open(self, name: str, fold: "int | None" = None) -> tuple[int, float]:
        parent = self.stack[-1] if self.stack else -1
        idx = None if fold is None else self.folded.get((fold, parent))
        now = clock()
        if idx is None:
            idx = len(self.spans)
            self.spans.append([name, now, now, parent, 0.0, 0.0])
            if fold is not None:
                self.folded[(fold, parent)] = idx
        self.stack.append(idx)
        return idx, now

    def close(self, idx: int, start: float) -> None:
        end = clock()
        span = self.spans[idx]
        span[2] = end
        span[4] += end - start
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - start

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, owner, attr: str, name: str, counter=None, peak: "str | None" = None):
        """Replace owner.attr by a wrapper that records one span per call."""
        fn = getattr(owner, attr)
        peak = peak if self.with_peaks else None

        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            idx, start = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, start)
                if peak:
                    size = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[peak] = max(self.peaks.get(peak, 0.0), size)
            if counter:
                counter(self, result)
            return result

        setattr(owner, attr, traced)

    def generator(self, owner, attr: str, name: str, counter=None):
        """Replace a generator function; every resume of its iterator is timed."""
        fn = getattr(owner, attr)
        tracer = self

        class Resumes:
            def __init__(self, inner):
                self.inner = iter(inner)
                self.key = next(tracer.serial)

            def __iter__(self):
                return self

            def __next__(self):
                idx, start = tracer.open(name, fold=self.key)
                try:
                    item = next(self.inner)
                finally:
                    tracer.close(idx, start)
                if counter:
                    counter(tracer, item)
                return item

        setattr(owner, attr, lambda *args, **kwargs: Resumes(fn(*args, **kwargs)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "peaks": self.peaks}, fh)


def _parsed(tracer: Tracer, record) -> None:
    tracer.count("ingest.records", 1)
    tracer.count("ingest.changes", len(record.changes))


def _kept(tracer: Tracer, record) -> None:
    tracer.count("ingest.changes_kept", len(record.changes))


def _frozen(tracer: Tracer, snapshot) -> None:
    tracer.count("snapshot.files_frozen", len(snapshot.files))
    tracer.count("snapshot.live_files", len(snapshot.live))


def install(tracer: Tracer) -> None:
    tracer.call(cli, "cmd_analyze", "cli.analyze_self_s")
    tracer.call(cli.RunConfig, "validate", "cli.validate_s")
    tracer.generator(cli, "parse_commit_log", "ingest.parse_s", _parsed)
    tracer.generator(cli, "resolve_aliases", "ingest.alias_s")
    tracer.generator(cli, "apply_path_filters", "ingest.filter_s", _kept)
    tracer.generator(cli, "iter_snapshots", "snapshot.accumulate_s", _frozen)
    tracer.call(reports, "compute_authorship", "doa.score_s")
    tracer.call(reports, "scope_partition", "subsystems.partition_s")
    tracer.call(reports, "build_graph", "network.build_s",
                lambda t, graph: t.count("network.edges", graph.n_edges))
    for owner in (reports, workload):
        tracer.call(owner, "medcouple", "workload.medcouple_s",
                    lambda t, _: t.count("workload.medcouple_calls", 1),
                    peak="workload.medcouple_peak_mb")
    tracer.call(reports, "files_per_author", "workload.files_per_author_s")
    tracer.call(reports, "gini", "workload.gini_s")
    tracer.call(reports, "top_k_share", "workload.top_k_s")
    tracer.call(reports, "profile_proportions", "profiles.s",
                lambda t, breakdown: t.count("profiles.members", breakdown.n_authors))
    for attr in ("mean_degree", "clustering_global", "clustering_avg_local",
                 "assortativity", "solitary_authors"):
        tracer.call(reports, attr, "network.metrics_s")
    for attr in ("authorship_rows", "workload_row", "profiles_row", "network_row"):
        tracer.call(reports, attr, "reports.rows_s")
    tracer.call(cli, "write_manifest", "reports.write_s")
    tracer.call(cli, "write_json_mirror", "reports.json_s", peak="reports.json_peak_mb")
    tracer.call(cli, "sha256_file", "reports.digest_s")

    # cmd_analyze streams rows through csv.writer objects it creates itself
    class Writer:
        def __init__(self, writer):
            self.writer = writer

        def writerow(self, row):
            return self.writer.writerow(row)

        def writerows(self, rows):
            return self.writer.writerows(rows)

    tracer.call(Writer, "writerow", "reports.write_s")
    tracer.call(Writer, "writerows", "reports.write_s")
    traced_csv = types.ModuleType("csv")
    traced_csv.__dict__.update(vars(csv))
    traced_csv.writer = lambda *args, **kwargs: Writer(csv.writer(*args, **kwargs))
    cli.csv = traced_csv
