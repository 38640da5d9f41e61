#!/usr/bin/env python3
"""Seeded generator of Linux-shaped commit histories for the benchmark.

One call writes, into an output directory:

    history.ndjson  the commit log, oldest first, in the authormine format
    releases.txt    `tag commit_id` per line, oldest first
    aliases.txt     one `variant <email> = canonical <email>` line per
                    name variant of a developer
    meta.json       the queries the benchmark runs and the make-up of the
                    history (counts only; the program never reads it)

The model:

- developers drawn with Zipf weights; a share of them commit under name
  variants (another spelling, an old address, an upper-case address),
  and every variant is listed in the alias map, so each canonical email
  belongs to exactly one identity;
- a path tree covering every label of the bundled subsystem rules
  (Arch, Driver, Fs, Net, Core, Misc) plus a `firmware/` tree that the
  benchmark excludes at ingest;
- one bulk import commit by the top developer, then ordinary commits;
- modification locality: each developer has home directories and most
  commits stay in one of them;
- adds, renames (within the directory or to a sibling directory) and
  deletes, so dead files pile up under churn.

The history never triggers an ingest anomaly (no change to an unknown
path, no add onto a live path, no rename onto a live path, no rename
across the `firmware/` boundary), so the engine and the reference replay
agree without modelling warning paths.

Output depends only on (workload, seed): every random choice comes from
one `random.Random`, and nothing iterates a set or a hash-ordered
container, so the bytes are identical under any PYTHONHASHSEED.

    python3 bench/gen_history.py --workload kernel-series --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    """Size and mix of one workload's history."""

    devs: int              # canonical developers
    zipf_s: float          # Zipf exponent of commit shares (lower is flatter)
    dirs: int              # leaf directories of the tree
    import_files: int      # files added by the bulk import commit
    commits: int           # ordinary commits after the import
    releases: int          # evenly spaced; the last one ends the history
    mix: tuple[float, float, float, float]  # modify, add, delete, rename
    more_changes: float    # chance a commit touches one more file (up to 6)
    home_dirs: int         # leaf directories in a developer's home
    locality: float        # chance a commit stays in the author's home
    variant_share: float   # developers with a name variant
    json_mirror: bool      # analyze --json


WORKLOADS: dict[str, Shape] = {
    # the paper's case: a moderate tree followed through many releases
    "kernel-series": Shape(devs=450, zipf_s=1.0, dirs=170, import_files=2000,
                           commits=4500, releases=10, mix=(0.80, 0.12, 0.04, 0.04),
                           more_changes=0.45, home_dirs=3, locality=0.85,
                           variant_share=0.2, json_mirror=True),
    # many commits per file, heavy rename/delete churn, few releases
    "deep-history": Shape(devs=200, zipf_s=1.0, dirs=60, import_files=600,
                          commits=7000, releases=3, mix=(0.52, 0.16, 0.14, 0.18),
                          more_changes=0.45, home_dirs=3, locality=0.9,
                          variant_share=0.2, json_mirror=False),
    # thousands of developers with a flat head, so scopes have thousands of authors
    "crowd": Shape(devs=5000, zipf_s=0.2, dirs=1800, import_files=600,
                   commits=5000, releases=2, mix=(0.55, 0.41, 0.02, 0.02),
                   more_changes=0.4, home_dirs=1, locality=0.95,
                   variant_share=0.1, json_mirror=False),
}

# (top-level directory, share of the tree, sub-directories); the shares
# loosely follow the Linux tree, `firmware/` is excluded at ingest
TREE: tuple[tuple[str, float, tuple[str, ...]], ...] = (
    ("arch", 0.16, ("x86", "arm", "arm64", "powerpc", "mips", "s390", "riscv")),
    ("drivers", 0.42, ("net", "gpu", "usb", "scsi", "media", "staging", "i2c", "pci")),
    ("sound", 0.04, ("soc", "pci", "usb")),
    ("fs", 0.07, ("ext4", "btrfs", "xfs", "nfs", "proc")),
    ("net", 0.06, ("ipv4", "ipv6", "core", "wireless", "bridge")),
    ("kernel", 0.03, ("sched", "irq", "time", "locking")),
    ("mm", 0.015, ("slab", "vm")),
    ("ipc", 0.004, ("sem",)),
    ("init", 0.003, ("boot",)),
    ("lib", 0.015, ("crc", "zlib", "test")),
    ("security", 0.012, ("selinux", "keys")),
    ("crypto", 0.01, ("asym", "hash")),
    ("block", 0.008, ("partitions",)),
    ("virt", 0.003, ("kvm",)),
    ("include", 0.06, ("linux", "uapi", "net", "asm-generic")),
    ("tools", 0.03, ("perf", "testing")),
    ("scripts", 0.01, ("kconfig", "mod")),
    ("Documentation", 0.03, ("admin-guide", "driver-api", "filesystems")),
    ("samples", 0.005, ("bpf",)),
    ("firmware", 0.015, ("radeon", "intel")),
)

FIRMWARE = "firmware/"  # the benchmark runs every command with --exclude FIRMWARE
QUERY_SCOPE = "All"    # the scope of the benchmark's `network` query
SUFFIXES = (".c", ".c", ".c", ".h", ".S", ".txt")
FIRST_TS = 1117000000
RELEASE_MAJOR = 4
AUTHORS_QUERIES = 2  # `authors FILE --release R` queries per round


def _commit_id(workload: str, seed: int, index: int) -> str:
    return hashlib.sha1(f"{workload}:{seed}:{index}".encode()).hexdigest()


class _Tree:
    """Leaf directories with their live files, in creation order."""

    def __init__(self, rng: random.Random, shape: Shape):
        self.rng = rng
        self.dirs: list[str] = []
        self.by_top: dict[str, list[str]] = {}
        self.files: dict[str, list[str]] = {}
        self.serial: dict[str, int] = {}
        for top, share, subs in TREE:
            count = max(1, round(shape.dirs * share))
            for i in range(count):
                sub = subs[i % len(subs)]
                path = f"{top}/{sub}/m{i // len(subs)}"
                self.dirs.append(path)
                self.by_top.setdefault(top, []).append(path)
                self.files[path] = []
                self.serial[path] = 0

    def new_path(self, directory: str) -> str:
        n = self.serial[directory]
        self.serial[directory] = n + 1
        return f"{directory}/f{n}{SUFFIXES[n % len(SUFFIXES)]}"

    def sibling(self, directory: str) -> str:
        """Another directory under the same top-level directory, else itself."""
        candidates = [d for d in self.by_top[directory.split("/", 1)[0]] if d != directory]
        return self.rng.choice(candidates) if candidates else directory


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the history for (workload, seed) into out_dir; return meta."""
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    tree = _Tree(rng, shape)
    dirs = tree.dirs
    by_top = tree.by_top
    plain_dirs = [d for d in dirs if not d.startswith(FIRMWARE)]
    firmware_dirs = [d for d in dirs if d.startswith(FIRMWARE)]

    # developers: canonical identity, optional variant, home directories
    devs = []
    aliases = []
    for i in range(shape.devs):
        name = f"Dev{i:05d} Hacker"
        email = f"dev{i:05d}@kernel.example"
        variant = None
        if i > 0 and rng.random() < shape.variant_share:
            kind = rng.randrange(3)
            if kind == 0:
                variant = (f"D. {i:05d} Hacker", email)
            elif kind == 1:
                variant = (name, f"dev{i:05d}@oldcorp.example")
            else:
                variant = (f"dev{i:05d} hacker", email.upper())
            aliases.append(f"{variant[0]} <{variant[1]}> = {name} <{email}>")
        first = rng.choice(plain_dirs)
        home = [first]
        tops = list(by_top)
        for _ in range(shape.home_dirs - 1):
            if rng.random() < 0.3:  # generalist reach into another top-level tree
                home.append(rng.choice(by_top[rng.choice(tops)]))
            else:
                home.append(rng.choice(by_top[first.split("/", 1)[0]]))
        devs.append(((name, email), variant, home))
    weights = list(accumulate(1.0 / (r + 1) ** shape.zipf_s for r in range(shape.devs)))
    # shuffle which developer holds which Zipf rank, except the importer
    ranks = list(range(1, shape.devs))
    rng.shuffle(ranks)
    order = [0] + ranks

    lines: list[str] = []
    ts = FIRST_TS

    def emit(index: int, ident: tuple[str, str], changes: list[list[str]]) -> str:
        nonlocal ts
        ts += 60 + rng.randrange(3600)
        cid = _commit_id(workload, seed, index)
        lines.append(json.dumps({"id": cid, "an": ident[0], "ae": ident[1],
                                 "ts": ts, "ch": changes}, separators=(",", ":")))
        return cid

    # bulk import
    import_changes = []
    for _ in range(shape.import_files):
        d = rng.choice(dirs)
        path = tree.new_path(d)
        tree.files[d].append(path)
        import_changes.append(["A", path])
    commit_ids = [emit(0, devs[0][0], import_changes)]

    counts = {"A": len(import_changes), "M": 0, "D": 0, "R": 0}
    firmware_only: set[int] = set()
    kinds = ("M", "A", "D", "R")
    mix = list(accumulate(shape.mix))
    for index in range(1, shape.commits + 1):
        dev = devs[order[bisect.bisect(weights, rng.random() * weights[-1])]]
        ident, variant, home = dev
        if variant is not None and rng.random() < 0.35:
            ident = variant
        if rng.random() < 0.01:
            directory = rng.choice(firmware_dirs)
        elif rng.random() < shape.locality:
            directory = rng.choice(home)
        else:
            directory = rng.choice(plain_dirs)
        n_changes = 1
        while n_changes < 6 and rng.random() < shape.more_changes:
            n_changes += 1
        changes = []
        touched: list[str] = []
        for _ in range(n_changes):
            live = [p for p in tree.files[directory] if p not in touched]
            kind = kinds[bisect.bisect(mix, rng.random() * mix[-1])]
            if not live or len(tree.files[directory]) < 3 and kind in ("D", "R"):
                kind = "A"
            if kind == "A":
                path = tree.new_path(directory)
                tree.files[directory].append(path)
                changes.append(["A", path])
            else:
                path = rng.choice(live)
                if kind == "M":
                    changes.append(["M", path])
                elif kind == "D":
                    tree.files[directory].remove(path)
                    changes.append(["D", path])
                else:
                    target = directory
                    if rng.random() < 0.4 and not directory.startswith(FIRMWARE):
                        target = tree.sibling(directory)
                    new = tree.new_path(target)
                    tree.files[directory].remove(path)
                    tree.files[target].append(new)
                    touched.append(new)
                    changes.append(["R", new, path])
            touched.append(path)
            counts[kind] += 1
        if directory.startswith(FIRMWARE):
            firmware_only.add(index)
        commit_ids.append(emit(index, ident, changes))

    # a firmware-only commit is dropped at ingest, so it cannot end a release
    total = len(commit_ids)
    releases = []
    for k in range(shape.releases):
        b = total * (k + 1) // shape.releases - 1
        while b in firmware_only:
            b -= 1
        releases.append((f"v{RELEASE_MAJOR}.{k}", commit_ids[b]))

    live_last = sorted(p for d in plain_dirs for p in tree.files[d])
    queries = sorted(rng.sample(live_last, AUTHORS_QUERIES))
    meta = {
        "workload": workload,
        "seed": seed,
        "json_mirror": shape.json_mirror,
        "query_release": releases[-1][0],
        "authors_files": queries,
        "makeup": {
            "commits": total,
            "developers": shape.devs,
            "name_variants": len(aliases),
            "releases": shape.releases,
            "changes": dict(counts),
            "firmware_only_commits": len(firmware_only),
            "live_files_at_end": len(live_last),
        },
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "history.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "releases.txt").write_text(
        "".join(f"{name} {cid}\n" for name, cid in releases), encoding="utf-8")
    (out_dir / "aliases.txt").write_text(
        "# name variants -> canonical identity\n" + "".join(a + "\n" for a in aliases),
        encoding="utf-8")
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    meta = generate(args.workload, args.seed, args.out)
    print(json.dumps(meta["makeup"], sort_keys=True))


if __name__ == "__main__":
    main()
