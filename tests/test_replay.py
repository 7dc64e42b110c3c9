"""The study benchmark's traced replay still finds and times every trial.

``studybench/replay.py`` wraps package names with ``getattr`` and times
each call, so a dropped name fails the replay and a trial that no longer
goes through its wrapped name reads as zero trials in ``trace.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpkmeans import cli

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 2


@pytest.mark.parametrize("study", ["selection", "rate", "sweep"])
def test_traced_replay_times_every_trial(tmp_path, study):
    config = ROOT / "tests" / "golden" / study / "study.cfg"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "studybench" / "replay.py"), "experiment",
         "--config", str(config), "--out", str(tmp_path), "--trials", str(TRIALS)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    n_grid = cli._parse_int_list(cli.read_config_file(config)["n_grid"][1])
    metrics = json.loads((tmp_path / "trace.json").read_text())["metrics"]
    assert metrics["experiments.trials"] == TRIALS * len(n_grid)
