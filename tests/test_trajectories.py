"""Trajectory bit-identity: the benchmark's pinned runs still hash to the
digests kept in ``bench/digests.json``."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pinned_run_digests_match_bench_reference():
    # no bytecode is written, so the run leaves bench/ as it found it
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "bench/run.py", "--digests"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    reference = json.loads((ROOT / "bench" / "digests.json").read_text())
    assert json.loads(out.stdout) == reference
