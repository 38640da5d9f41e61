"""The traced benchmark path: every layer bench/tracer.py wraps records a span.

The tracer wraps functions where their callers look them up.  A refactor
that moves a call away from a wrapped name would otherwise show only as
a silent zero in `bench/run.py --trace 1`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from authormine import cli
from conftest import FIXTURE_LOG
from test_cli import base_args

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


class LayerNames:
    """Stands in for tracer.Tracer and only collects the layer names."""

    def __init__(self):
        self.names = set()

    def call(self, owner, attr, name, *args, **kwargs):
        self.names.add(name)

    generator = call


def test_traced_analyze_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(cli, "csv", cli.csv)  # install() replaces it
    import tracer

    layers = LayerNames()
    tracer.install(layers)
    assert layers.names

    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(tmp_path / "stamp.json"),
         str(FIXTURE_LOG), "--trace", str(trace), "--",
         "analyze", *base_args(), "-o", str(tmp_path / "out"), "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert layers.names - spans == set()
