"""Golden outputs of the README experiment configs at three trials each.

Each ``tests/golden/<study>/`` holds the config (``study.cfg``, the README
text), and the ``records.csv``, ``summary.csv`` and printed lines of

    cpkmeans experiment --config tests/golden/<study>/study.cfg \
        --out tests/golden/<study> --trials 3 --workers 1

recorded before the study pipeline was rewritten.  A change that moves any
byte of these files changes the studies' results, and must say why.
"""

from pathlib import Path

import pytest

from cpkmeans.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("study", ["selection", "rate", "sweep"])
def test_readme_config_outputs_match_golden(tmp_path, capsys, study):
    golden = GOLDEN / study
    args = ["experiment", "--config", str(golden / "study.cfg"), "--out", str(tmp_path),
            "--trials", "3", "--workers", "1"]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
    for name in ("records.csv", "summary.csv"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
