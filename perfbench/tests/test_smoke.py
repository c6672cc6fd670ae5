"""Smoke test: the benchmark runs from a directory outside the
repository root (Ray workers must still import ``leidenalg_ray``) and
prints a correct result as its last line. Takes about half a minute.

    python3 -m pytest perfbench/tests/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "run.py")


def test_runs_from_outside_the_repository_root(tmp_path):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", "rmat-kernels", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 5 and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["dist.superstep.lp_supersteps"]["value"] > 0
    assert metrics["stages.extract.s"]["value"] == 0
    assert os.listdir(tmp_path) == []
