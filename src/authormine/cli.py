"""Command-line interface: analyze, authors, network, stats, export-log-helper."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import logging
import os
import posixpath
import re
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import Iterator

from . import __version__
from .doa import DEFAULT_THRESHOLDS, DoaThresholds, score_file
from .errors import AuthormineError, ConfigError
from .ingest import (AliasMap, ReleaseTag, apply_path_filters, load_alias_map,
                     load_releases, parse_commit_log, resolve_aliases)
from .patterns import PathMatcher
from .reports import (EDGES_HEADER, NETWORK_HEADER, REPORTS, WORKLOAD_HEADER,
                      AuthorshipRenderer, advance, build_manifest, edge_rows,
                      end_json_mirror, fmt_float, network_row, release_report, scope_graph,
                      scope_name, sha256_file, workload_row, write_csv, write_csv_text,
                      write_json_mirror, write_manifest, write_pajek)
from .series import SeriesState
from .snapshot import ReleaseSnapshot, iter_snapshots
from .subsystems import SubsystemRules, default_rules, load_rules

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_CONFIG = 2

OUTPUT_DIR_ENV = "AUTHORMINE_OUTPUT_DIR"


class RunConfig:
    def __init__(self, log_paths: list[Path], releases_path: Path,
                 alias_map_path: "Path | None" = None, rules_path: "Path | None" = None,
                 exclusions: "list[str] | None" = None, follow_renames: bool = True,
                 thresholds: DoaThresholds = DEFAULT_THRESHOLDS,
                 output_dir: Path = Path("authormine-out"), json_mirror: bool = False):
        self.log_paths = log_paths
        self.releases_path = releases_path
        self.alias_map_path = alias_map_path
        self.rules_path = rules_path
        self.exclusions = [] if exclusions is None else exclusions
        self.follow_renames = follow_renames
        self.thresholds = thresholds
        self.output_dir = output_dir
        self.json_mirror = json_mirror
        # populated by validate()
        self.releases: list[ReleaseTag] = []
        self.alias_map: AliasMap = {}
        self.rules: "SubsystemRules | None" = None

    def validate(self) -> None:
        """Fail fast: every referenced file must exist and parse."""
        if not self.log_paths:
            raise ConfigError("at least one --log file is required")
        for path in self.log_paths:
            if not path.is_file():
                raise ConfigError(f"log file not found: {path}")
        if not self.releases_path.is_file():
            raise ConfigError(f"releases file not found: {self.releases_path}")
        self.releases = load_releases(self.releases_path)
        if not self.releases:
            raise ConfigError(f"releases file is empty: {self.releases_path}")
        if self.alias_map_path is not None:
            if not self.alias_map_path.is_file():
                raise ConfigError(f"alias map not found: {self.alias_map_path}")
            self.alias_map = load_alias_map(self.alias_map_path)
        if self.rules_path is not None:
            if not self.rules_path.is_file():
                raise ConfigError(f"rules file not found: {self.rules_path}")
            self.rules = load_rules(self.rules_path)
        else:
            self.rules = default_rules()
        PathMatcher(self.exclusions)  # compiles or raises ConfigError

    def settings_dict(self) -> dict:
        return {
            "follow_renames": self.follow_renames,
            "normalized_floor": self.thresholds.normalized_floor,
            "absolute_floor": self.thresholds.absolute_floor,
            "exclusions": list(self.exclusions),
            "json_mirror": self.json_mirror,
        }

    def input_descriptors(self) -> list[dict]:
        items = [{"role": "log", "name": p.name, "sha256": sha256_file(p)}
                 for p in self.log_paths]
        if self.alias_map_path is not None:
            items.append({"role": "alias_map", "name": self.alias_map_path.name,
                          "sha256": sha256_file(self.alias_map_path)})
        if self.rules_path is not None:
            items.append({"role": "rules", "name": self.rules_path.name,
                          "sha256": sha256_file(self.rules_path)})
        else:
            ref = resources.files("authormine.data").joinpath("subsystem_rules.tsv")
            with resources.as_file(ref) as path:
                items.append({"role": "rules", "name": "<bundled-default>",
                              "sha256": sha256_file(path)})
        items.append({"role": "releases", "name": self.releases_path.name,
                      "sha256": sha256_file(self.releases_path)})
        return items


@contextlib.contextmanager
def _snapshot_stream(config: RunConfig, releases: list[ReleaseTag],
                     ) -> Iterator[Iterator[ReleaseSnapshot]]:
    """Open the log files and yield the snapshot iterator over them."""
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(p, "rb")) for p in config.log_paths]

        def records():
            for handle in handles:
                yield from parse_commit_log(handle)

        stream = resolve_aliases(records(), config.alias_map)
        stream = apply_path_filters(stream, config.exclusions)
        yield iter_snapshots(stream, releases, follow_renames=config.follow_renames)


STAGE_PATTERN = re.compile(r"\.authormine-([1-9][0-9]*)-.*")


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):  # no process has that id
        return False
    except PermissionError:  # it exists, under another user
        pass
    return True


def _sweep_stages(out_dir: Path) -> None:
    """Remove the stages of earlier runs whose process is gone (killed before
    its cleanup ran); a stage's name carries the process id of its run."""
    for path in out_dir.iterdir():
        match = STAGE_PATTERN.fullmatch(path.name)
        if match and path.is_dir() and not _process_exists(int(match.group(1))):
            shutil.rmtree(path, ignore_errors=True)


def cmd_analyze(config: RunConfig) -> int:
    """Write every report once into a staging directory, then publish by rename.

    The stage sits inside the report directory, so each rename stays on one
    filesystem; a failed run removes the stage and leaves the directory as it was.
    One series state carries each release's results over to the next, so a
    release scores, classifies, counts and formats only the files that
    changed.  Each release is streamed to the CSVs, and under --json to
    their mirrors, one file's rows at a time in path order.
    """
    config.validate()
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _sweep_stages(out_dir)
    stage = Path(tempfile.mkdtemp(prefix=f".authormine-{os.getpid()}-", dir=out_dir))
    try:
        with contextlib.ExitStack() as stack:
            def create(name: str):
                return stack.enter_context(
                    open(stage / name, "w", encoding="utf-8", newline=""))

            tables = [create(f"{name}.csv") for name, _ in REPORTS]
            for fh, (_, header) in zip(tables, REPORTS):
                csv.writer(fh, lineterminator="\n").writerow(header)
            # each mirror's file and the opener of its next row
            mirrors = [[create(f"{name}.json"), "["] for name, _ in REPORTS] \
                if config.json_mirror else []
            state = SeriesState(config.rules, config.thresholds,
                                AuthorshipRenderer(config.json_mirror))
            with _snapshot_stream(config, config.releases) as snapshots:
                for snap in snapshots:
                    release = snap.release.name
                    report = release_report(snap, state)
                    for fh, groups in zip(tables, report):
                        write_csv_text(fh, release, groups)
                    for mirror, (_, header), groups in zip(mirrors, REPORTS, report):
                        mirror[1] = write_json_mirror(mirror[0], header, release, groups,
                                                      mirror[1])
                    logger.info("release %s done: %d of %d live files rescored",
                                release, state.rescored, len(snap.files))
            for fh, opener in mirrors:
                end_json_mirror(fh, opener)

        names = sorted(path.name for path in stage.iterdir())
        outputs = [{"name": name, "sha256": sha256_file(stage / name)} for name in names]
        manifest = build_manifest(__version__, config.settings_dict(),
                                  config.input_descriptors(), outputs)
        with open(stage / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            write_manifest(fh, manifest)
        for name in names:
            os.replace(stage / name, out_dir / name)
        for name, _ in REPORTS:  # a mirror this run did not write is stale
            if f"{name}.json" not in names:
                (out_dir / f"{name}.json").unlink(missing_ok=True)
        os.replace(stage / "manifest.json", out_dir / "manifest.json")
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return EXIT_OK


def _find_release(config: RunConfig, name: str) -> ReleaseTag:
    for tag in config.releases:
        if tag.name == name:
            return tag
    raise AuthormineError(f"unknown release {name!r} (not in {config.releases_path})")


def _releases(config: RunConfig, release_name: "str | None") -> list[ReleaseTag]:
    """The releases a query covers: all of them, or just the named one."""
    if release_name is None:
        return config.releases
    return [_find_release(config, release_name)]


def cmd_authors(config: RunConfig, file_path: str, release_name: str) -> int:
    config.validate()
    tag = _find_release(config, release_name)
    with _snapshot_stream(config, [tag]) as snapshots:
        snap = next(snapshots)
    # ingest stores every path normalised, so `./a/b` and `a//b` name `a/b`
    counters = snap.files.get(posixpath.normpath(file_path))
    if counters is None:
        raise AuthormineError(f"file {file_path!r} not live at {release_name}")
    scores, _ = score_file(counters, config.thresholds)
    authors = sorted((s for s in scores if s.is_author),
                     key=lambda s: (-s.doa_norm, s.developer))
    csv.writer(sys.stdout, lineterminator="\n").writerows(
        (s.developer, fmt_float(s.doa_abs), fmt_float(s.doa_norm)) for s in authors)
    return EXIT_OK


def cmd_stats(config: RunConfig, release_name: "str | None") -> int:
    config.validate()
    releases = _releases(config, release_name)
    rows = []
    state = SeriesState(config.rules, config.thresholds)
    with _snapshot_stream(config, releases) as snapshots:
        for snap in snapshots:
            advance(state, snap)
            rows.extend(workload_row(snap.release.name, scope, state.author_counts[scope],
                                     n_files)
                        for scope, n_files in state.sizes.items())
    write_csv(sys.stdout, WORKLOAD_HEADER, rows)
    return EXIT_OK


def cmd_network(config: RunConfig, release_name: "str | None",
                scope: "str | None", edges_path: "Path | None",
                graph_path: "Path | None") -> int:
    config.validate()
    releases = _releases(config, release_name)
    if (edges_path or graph_path) and release_name is None:
        raise ConfigError("--edges/--graph exports require --release")
    if scope is not None and scope != scope_name(None) \
            and scope not in config.rules.labels:
        raise ConfigError(f"unknown scope {scope!r}; expected one of "
                          f"{(scope_name(None),) + config.rules.labels}")
    if scope is not None and not (edges_path or graph_path):
        raise ConfigError("--scope requires an --edges or --graph export")
    rows = []
    state = SeriesState(config.rules, config.thresholds)
    with _snapshot_stream(config, releases) as snapshots:
        for snap in snapshots:
            advance(state, snap)
            graphs = {scope: scope_graph(state, scope) for scope in state.sizes}
            rows.extend(network_row(snap.release.name, key, graph)
                        for key, graph in graphs.items())
    if edges_path or graph_path:  # --release is set, so `graphs` is that release's
        graph = graphs[None if scope in (None, scope_name(None)) else scope]
        if edges_path:
            with open(edges_path, "w", encoding="utf-8", newline="") as fh:
                write_csv(fh, EDGES_HEADER, edge_rows(graph))
        if graph_path:
            with open(graph_path, "w", encoding="utf-8", newline="\n") as fh:
                write_pajek(fh, graph)
    write_csv(sys.stdout, NETWORK_HEADER, rows)
    return EXIT_OK


def cmd_export_log_helper() -> int:
    ref = resources.files("authormine.data").joinpath("export_log.sh")
    sys.stdout.write(ref.read_text(encoding="utf-8"))
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log", action="append", default=[], metavar="FILE",
                        help="NDJSON commit log, oldest first; repeatable, "
                             "files are concatenated in order")
    parser.add_argument("--releases", metavar="FILE", required=True,
                        help="release list: 'tag_name commit_id' per line, oldest first")
    parser.add_argument("--alias-map", metavar="FILE",
                        help="identity alias map: 'name <email> = name <email>' per line")
    parser.add_argument("--rules", metavar="FILE",
                        help="subsystem rules (pattern<TAB>label); bundled Linux-style "
                             "decomposition by default")
    parser.add_argument("--exclude", action="append", default=[], metavar="PATTERN",
                        help="drop changes under this path prefix or glob; repeatable")
    parser.add_argument("--no-follow-renames", dest="follow_renames",
                        action="store_false", default=True,
                        help="treat renames as delete plus fresh creation")
    parser.add_argument("--norm-floor", type=float, metavar="X",
                        default=DEFAULT_THRESHOLDS.normalized_floor,
                        help="normalized score floor, author rule is strictly above "
                             "(default %(default)s)")
    parser.add_argument("--abs-floor", type=float, metavar="X",
                        default=DEFAULT_THRESHOLDS.absolute_floor,
                        help="absolute score floor, inclusive (default %(default)s)")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    try:
        thresholds = DoaThresholds(args.norm_floor, args.abs_floor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    output_dir = getattr(args, "output_dir", None)
    if output_dir is None:
        output_dir = os.environ.get(OUTPUT_DIR_ENV, "authormine-out")
    return RunConfig(
        log_paths=[Path(p) for p in args.log],
        releases_path=Path(args.releases),
        alias_map_path=Path(args.alias_map) if args.alias_map else None,
        rules_path=Path(args.rules) if args.rules else None,
        exclusions=list(args.exclude),
        follow_renames=args.follow_renames,
        thresholds=thresholds,
        output_dir=Path(output_dir),
        json_mirror=getattr(args, "json", False),
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    a parser is cyclic, so one built per call would stay as garbage while
    the collector is off."""
    parser = argparse.ArgumentParser(
        prog="authormine",
        description="Mine commit logs for file authorship, workload and "
                    "collaboration analytics.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline and write report CSVs")
    _add_config_flags(p)
    p.add_argument("-o", "--output-dir", metavar="DIR",
                   help=f"report directory (default 'authormine-out'; "
                        f"overridable via ${OUTPUT_DIR_ENV})")
    p.add_argument("--json", action="store_true",
                   help="also write a JSON mirror of each CSV")

    p = sub.add_parser("authors", help="list the authors of one file at a release")
    _add_config_flags(p)
    p.add_argument("file", help="repo-relative path of the file")
    p.add_argument("--release", required=True, metavar="TAG")

    p = sub.add_parser("stats", help="print the workload statistics CSV to stdout")
    _add_config_flags(p)
    p.add_argument("--release", metavar="TAG", help="restrict to one release")

    p = sub.add_parser("network", help="print the network metrics CSV to stdout")
    _add_config_flags(p)
    p.add_argument("--release", metavar="TAG", help="restrict to one release")
    p.add_argument("--scope", metavar="LABEL",
                   help="scope for --edges/--graph exports (default All)")
    p.add_argument("--edges", metavar="FILE", help="write the edge list CSV here")
    p.add_argument("--graph", metavar="FILE",
                   help="write a plain-text vertex/edge list (Pajek format) here")

    sub.add_parser("export-log-helper",
                   help="print the shell script that exports a git history "
                        "to the NDJSON log format")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Run one command with the cyclic collector off and restore the caller's
    collector state on the way out; reference counting frees all that a run
    drops but a few cyclic objects of its start-up."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command == "export-log-helper":
            return cmd_export_log_helper()
        config = _config_from_args(args)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "authors":
            return cmd_authors(config, args.file, args.release)
        if args.command == "stats":
            return cmd_stats(config, args.release)
        if args.command == "network":
            return cmd_network(config, args.release, args.scope,
                               Path(args.edges) if args.edges else None,
                               Path(args.graph) if args.graph else None)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"authormine: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AuthormineError, ValueError, OSError) as exc:
        print(f"authormine: error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
