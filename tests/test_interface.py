"""The names the benchmark in ``perfbench/`` drives must stay where it finds them.

``perfbench/run.py`` imports ``nsra`` and ``nsra.cli`` in a fresh module
state and then reads the layer modules out of ``sys.modules``;
``perfbench/tracing.py`` wraps the functions its ``LAYERS`` names.  A fresh
interpreter checks this, since the test session has imported every module
already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import nsra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PACKAGE_NAMES = (
    "compile_text",
    "load_profile",
    "builtin_crypto_profile",
    "normalize_ql",
    "halstead_nsra",
    "halstead_ql",
    "compare",
    "SourceError",
)
ROW_FIELDS = ("vocab_nsra", "length_nsra", "vocab_ql", "length_ql")

_PROBE = """
import json, sys
import nsra, nsra.cli
sys.path.insert(0, sys.argv[1])
from tracing import LAYERS
missing = [f"nsra.{m}" for m in sorted({m for m, _, _, _ in LAYERS}) if f"nsra.{m}" not in sys.modules]
missing += [f"nsra.{m}.{f}" for m, f, _, _ in LAYERS if not callable(getattr(sys.modules.get(f"nsra.{m}"), f, None))]
missing += [f"nsra.{n}" for n in json.loads(sys.argv[2]) if not hasattr(nsra, n)]
row = getattr(sys.modules.get("nsra.metrics"), "ComparisonRow", None)
fields = set(getattr(row, "__slots__", ()))
missing += [f"ComparisonRow.{f}" for f in json.loads(sys.argv[3]) if f not in fields]
print(json.dumps({"layers": len({m for m, _, _, _ in LAYERS}), "missing": missing}))
"""


def test_benchmark_interface_after_fresh_import():
    src = str(Path(nsra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    args = [str(PERFBENCH), json.dumps(PACKAGE_NAMES), json.dumps(ROW_FIELDS)]
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["layers"] == 6
    assert report["missing"] == []
