"""Golden outputs of the README experiment configs at three trials each.

Each ``tests/golden/<study>/`` holds the config (``study.cfg``, the README
text), and the ``records.csv``, ``summary.csv`` and printed lines of

    cpkmeans experiment --config tests/golden/<study>/study.cfg \
        --out tests/golden/<study> --trials 3 --workers 1

recorded before the study pipeline was rewritten.  A change that moves any
byte of these files changes the studies' results, and must say why.

``selection-as-sweep`` runs the selection config with ``study=sweep``.  A
sweep reads none of its ``t_star``, ``n_sub`` and ``frac``, so its outputs
are the sweep golden's byte for byte: a key a study does not read changes
nothing.
"""

from pathlib import Path

import pytest

from cpkmeans.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("study", ["selection", "rate", "sweep", "selection-as-sweep"])
def test_readme_config_outputs_match_golden(tmp_path, capsys, study):
    source, _, runs_as = study.partition("-as-")
    config = GOLDEN / source / "study.cfg"
    if runs_as:
        text = config.read_text().replace(f"study={source}\n", f"study={runs_as}\n")
        config = tmp_path / "study.cfg"
        config.write_text(text)
    golden = GOLDEN / (runs_as or source)
    args = ["experiment", "--config", str(config), "--out", str(tmp_path / "out"),
            "--trials", "3", "--workers", "1"]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
    for name in ("records.csv", "summary.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (golden / name).read_bytes(), name
