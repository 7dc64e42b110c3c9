"""The input rules in ``cpkmeans.errors`` and the entry points that call them.

Every check site calls one of six rules, so each input is refused the
same way wherever it enters: an integer parameter refuses floats, even
integral ones; a real one refuses strings, NaN and infinity; a sequence
of integers refuses a bare integer; an array, vector or matrix alike,
refuses the wrong number of dimensions, complex entries, no entries and
NaN.
"""

import math

import numpy as np
import pytest

from cpkmeans import (
    ExperimentConfig,
    ModelSpec,
    SignalMatrix,
    ValidationError,
    chi_square_moderate_bound,
    chi_square_tail_bound,
    estimate_adaptive,
    fit_line,
    gap_squared,
    gaussian_tail_bound,
    generate_sample,
    lepski_select,
    method1_select,
    method2_select,
    rate_psi,
    run_study,
    sample_case_means,
    sweep_estimate,
)
from cpkmeans.errors import (
    check_array, check_fraction, check_integer, check_integers, check_real, check_sigma,
)

SPEC = ModelSpec(n=10, d=5, tau=0.3, theta_minus=np.zeros(5), theta_plus=np.ones(5), sigma=1.0)
SAMPLE = SignalMatrix(np.arange(40.0).reshape(10, 4))
CONFIG = dict(study="sweep", case="rate", n_grid=(20,), d=20, t_grid=(5,))


def test_rules_return_what_they_accept():
    assert check_integer("T", np.int64(3), 1, 3) == 3 and type(check_integer("T", 3)) is int
    assert check_integer("n", True, 1) == 1  # bool is an integer
    assert type(check_real("x", np.float32(0.5))) is float and check_real("x", 2) == 2.0
    assert check_sigma(0) == 0.0 and check_fraction("tau", 0.25) == 0.25
    for grid in ((3, 1), range(3, 0, -2), np.array([3, 1], dtype=np.uint8), [np.int32(3), True]):
        ints = check_integers("g", "every g", grid, 1, 3)
        assert ints.dtype == np.intp and ints.tolist() == [3, 1]
    for z in (np.arange(3.0), np.ones((4, 2))):
        assert check_array("z", z, z.ndim) is z  # no copy
    assert check_array("z", [1, 2]).dtype == np.float64
    assert check_array("values", [[1, 2]], ndim=2).dtype == np.float64


@pytest.mark.parametrize("call, message", [
    (lambda: check_integer("T", 3.0), "T must be an integer, got 3.0"),
    (lambda: check_integer("T", 0, 1, 5), "T must lie in [1, 5], got 0"),
    (lambda: check_integer("n", 3, 4), "n must be >= 4, got 3"),
    (lambda: check_real("x", "1"), "x must be finite and real, got '1'"),
    (lambda: check_real("x", math.inf), "x must be finite and real, got inf"),
    (lambda: check_real("x", -1.0, 0), "x must be finite and >= 0, got -1.0"),
    (lambda: check_sigma(math.nan), "sigma must be finite and >= 0, got nan"),
    (lambda: check_fraction("frac", 1.0), "frac must lie in (0, 1), got 1.0"),
    (lambda: check_integers("g", "every g", 3, 1), "g must be a sequence of integers, got 3"),
    (lambda: check_integers("g", "every g", (1, 0), 1), "every g must be >= 1, got 0"),
    (lambda: check_integers("g", "every g", [1, 2.0], 1), "every g must be an integer, got 2.0"),
    (lambda: check_integers("g", "every g", [[1]], 1), "every g must be an integer, got [1]"),
    # A ragged grid raised numpy's inhomogeneous-shape ValueError.
    pytest.param(lambda: check_integers("g", "every g", [[1], 2], 1),
                 "every g must be an integer, got [1]", id="ragged-first"),
    pytest.param(lambda: check_integers("g", "every g", [1, [2, 3]], 1),
                 "every g must be an integer, got [2, 3]", id="ragged-last"),
    (lambda: check_integers("g", "every g", [2**63], 1), f"every g must fit in intp, got {2**63}"),
    (lambda: check_integers("g", "every g", np.array([2**63], dtype=np.uint64), 1),
     f"every g must fit in intp, got {2**63}"),
    (lambda: check_array("z", np.zeros((1, 2))), "z must be 1-dimensional, got ndim=2"),
    (lambda: check_array("z", []), "z must be non-empty"),
    (lambda: check_array("z", [0.0, math.inf]), "z must be finite"),
    (lambda: check_array("z", ["1", "2"]), "z must be an array of reals"),
    (lambda: check_array("v", [[0.0, 1.0], [-math.inf, math.nan]], 2), "v must be finite"),
    (lambda: check_array("v", np.zeros((4, 2, 1)), 2), "v must be 2-dimensional, got ndim=3"),
    (lambda: check_array("v", np.zeros((0, 3)), 2), "v must be non-empty"),
    (lambda: check_array("v", np.ones((4, 2), dtype=complex), 2), "v must be an array of reals"),
    (lambda: check_array("rows", [[0.0, 1.0], [2.0]], 2), "rows must be an array of reals"),  # ragged
    (lambda: check_array("v", [[-3.0, 2.5]], 2, lambda shape: 2.5),
     "v must be finite and lie in [-2.5, 2.5] for a (1, 2) array, got [-3, 2.5]"),
])
def test_rules_refuse_with_the_parameter_name(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


# Each input slipped through a drifted copy of a rule, or raised a bare
# TypeError, before every check site called the rules.
@pytest.mark.parametrize("name, call", [
    ("T", lambda: gap_squared(SPEC, 3.0)),
    ("k", lambda: chi_square_tail_bound(3.0, 20)),
    ("k", lambda: chi_square_moderate_bound(3.0, 1.0)),
    ("d", lambda: sample_case_means("caseA", 5.0, np.random.default_rng(0))),
    ("sigma", lambda: rate_psi(100, 10, 1.0, math.nan)),
    ("delta_t_sq", lambda: rate_psi(100, 10, math.nan, 1.0)),
    ("n", lambda: rate_psi(100.5, 10, 1.0, 1.0)),
    ("c_lepski", lambda: lepski_select(np.full(5, 0.01), 10, 1.0, c_lepski=math.inf)),
    ("c_lepski", lambda: lepski_select(np.full(5, 0.01), 10, 1.0, c_lepski="16")),
    ("x", lambda: gaussian_tail_bound(math.nan)),
    ("tau", lambda: ExperimentConfig(**CONFIG, tau="0.5")),
    ("sigma", lambda: ExperimentConfig(**CONFIG, sigma="1")),
    ("frac", lambda: ExperimentConfig(**CONFIG, frac="0.8")),
    ("n_grid", lambda: ExperimentConfig(**{**CONFIG, "n_grid": 100})),
    ("every T", lambda: ExperimentConfig(**{**CONFIG, "t_grid": [[1], 2]})),
    ("tau", lambda: ModelSpec(**{**SPEC.__dict__, "tau": "0.3"})),
    ("sigma", lambda: ModelSpec(**{**SPEC.__dict__, "sigma": "1"})),
    ("frac", lambda: method2_select(SAMPLE, 5, "0.8", 0)),
    ("T_list", lambda: sweep_estimate(SAMPLE, 5)),
    ("z", lambda: lepski_select(np.ones((2, 3)), 10, 1.0)),
    ("z", lambda: method1_select(np.ones((2, 3)))),
    ("z", lambda: method1_select([1.0, math.nan, 2.0])),
    ("theta_minus", lambda: ModelSpec(**{**SPEC.__dict__, "theta_minus": np.zeros((1, 5))})),
    # SignalMatrix kept the real part of a complex matrix, warning only with
    # a ComplexWarning, and converted a matrix of numeric strings.
    ("values", lambda: SignalMatrix(np.ones((4, 2)) + 1j)),
    ("values", lambda: SignalMatrix([["1", "2"]] * 4)),
    ("values", lambda: SignalMatrix(np.array([[0.0, math.nan]] * 4))),
    # An int beyond the float range raised OverflowError.
    pytest.param("delta_t_sq", lambda: rate_psi(100, 10, 10**400, 1.0), id="delta_t_sq-overflow"),
    pytest.param("c_lepski", lambda: estimate_adaptive(SAMPLE, 1.0, c_lepski=10**400),
                 id="c_lepski-overflow"),
    pytest.param("z", lambda: chi_square_moderate_bound(3, 10**400), id="z-overflow"),
    pytest.param("n", lambda: rate_psi(10**400, 10, 1.0, 1.0), id="n-overflow"),
    pytest.param("T", lambda: rate_psi(100, 10**400, 1.0, 1.0), id="T-overflow"),
    pytest.param("k", lambda: chi_square_moderate_bound(10**400, 1.0), id="k-overflow"),
    pytest.param("n", lambda: lepski_select(np.full(5, 0.01), 10**400, 1.0),
                 id="lepski-n-overflow"),
    ("seed", lambda: generate_sample(SPEC, 1.5)),
    ("seed", lambda: method2_select(SAMPLE, 5, 0.8, 1.5)),
    ("workers", lambda: run_study(ExperimentConfig(**CONFIG), 1.5)),
    # fit_line flattened a 2-D xs, returning (1.3, -0.5), and fitted a NaN to (nan, nan).
    ("xs", lambda: fit_line([[1, 2], [3, 4]], [1, 2, 3, 5])),
    ("xs", lambda: fit_line([1, 2, math.nan], [1, 2, 3])),
], ids=lambda x: x if isinstance(x, str) else "")
def test_every_input_is_refused_by_its_rule(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must "):
        call()


def test_rules_keep_valid_values_as_stored_types():
    # The config and the spec keep the float their rule returns.
    config = ExperimentConfig(**CONFIG, tau=np.float64(0.25), sigma=1, frac=np.float32(0.5))
    assert (type(config.tau), type(config.sigma), type(config.frac)) == (float,) * 3
    assert (config.tau, config.sigma, config.frac) == (0.25, 1.0, 0.5)
    spec = ModelSpec(**{**SPEC.__dict__, "tau": np.float64(0.3), "sigma": 2})
    assert (type(spec.tau), type(spec.sigma), spec.sigma) == (float, float, 2.0)
