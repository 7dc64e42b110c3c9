"""The package's public names: each module's ``__all__`` is the one list of
them, and the console script pyproject.toml declares resolves."""

import importlib
from pathlib import Path

import pytest

import cpkmeans

MODULES = ["errors", "model", "estimator", "smoothing", "stats", "experiments"]

# The reference: the names the package exported before its list was built
# from the modules' own lists.
PUBLIC = [
    "ValidationError",
    "ModelSpec",
    "SignalMatrix",
    "generate_sample",
    "gap_squared",
    "rate_psi",
    "ChangePointFit",
    "estimate_tau",
    "sweep_estimate",
    "surrogate",
    "lepski_select",
    "method1_select",
    "method2_select",
    "estimate_adaptive",
    "SummaryStats",
    "gaussian_tail_bound",
    "chi_square_tail_bound",
    "chi_square_moderate_bound",
    "fit_line",
    "summarize",
    "MeanCase",
    "ExperimentConfig",
    "StudyResult",
    "derive_trial_seed",
    "sample_case_means",
    "draw_sample",
    "run_study",
]


def test_package_exports_the_reference_names():
    assert cpkmeans.__all__ == PUBLIC
    namespace = {}
    exec("from cpkmeans import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves_to_its_module_object(module):
    mod = importlib.import_module(f"cpkmeans.{module}")
    for name in mod.__all__:
        assert getattr(cpkmeans, name) is getattr(mod, name)


def test_each_name_is_listed_by_exactly_one_module():
    listed = [name for module in MODULES
              for name in importlib.import_module(f"cpkmeans.{module}").__all__]
    assert sorted(listed) == sorted(PUBLIC)


def test_console_script_target_is_callable():
    # CI runs ``python -m cpkmeans.cli``, never the installed ``cpkmeans``
    # command, so only this test notices a renamed entry point.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert set(scripts) == {"cpkmeans"}
    module, _, attr = scripts["cpkmeans"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
