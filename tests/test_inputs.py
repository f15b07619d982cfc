"""The input rule of the Python API: every entry point reads an integer or a
real through capspec.errors' predicates, so numpy integers and floats pass
wherever Python ones do, and a bool, a str or a non-integral size is refused
with a one-line ValidationError instead of being read as a number."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from capspec.bounds import (
    EigenSequence,
    delta_bounds,
    evaluate_bounds,
    evaluate_families,
    evaluate_predicate,
    family,
    sphere_buckling_factor,
)
from capspec.errors import ValidationError, _is_int, _is_real, _real, _reals
from capspec.linalg import generalized_sym_eigen
from capspec.quadrature import gauss_jacobi_pair, gauss_jacobi_rule
from capspec.radial import multiplicity
from capspec.spectral import Problem, SolverConfig, convergence_study
from capspec.verify import compare_sharpness

CONFIG = dict(n=2, p=2, theta0=1.0, problem=Problem.BUCKLING, basis_size=12, requested_count=4)
VALUES = (6.0, 10.5, 17.0, 20.0)


def seq(**fields):
    return EigenSequence(**{**dict(n=2, p=2, problem=Problem.BUCKLING, values=VALUES), **fields})


SQRT = family("sphere-buckling-sqrt")


def short(value) -> str:
    """A test id: the value's repr, cut short."""
    text = repr(value)
    return text if len(text) <= 32 else text[:29] + "..."

# (entry point, argument) -> the call with that argument set to a value and
# every other argument valid
CALLS = {
    ("SolverConfig", "problem"): lambda v: SolverConfig(**{**CONFIG, "problem": v}),
    ("SolverConfig", "theta0"): lambda v: SolverConfig(**{**CONFIG, "theta0": v}),
    ("SolverConfig", "n"): lambda v: SolverConfig(**{**CONFIG, "n": v}),
    ("SolverConfig", "basis_size"): lambda v: SolverConfig(**{**CONFIG, "basis_size": v}),
    ("convergence_study", "basis_sizes"): lambda v: convergence_study(SolverConfig(**CONFIG), v),
    ("EigenSequence", "values"): lambda v: seq(values=v),
    ("EigenSequence", "problem"): lambda v: seq(problem=v),
    ("EigenSequence", "n"): lambda v: seq(n=v),
    ("family", "delta"): lambda v: family("sphere-buckling-delta", v),
    ("sphere_buckling_factor", "lam"): lambda v: sphere_buckling_factor(v, 3, 2),
    ("sphere_buckling_factor", "n"): lambda v: sphere_buckling_factor(5.0, v, 2),
    ("sphere_buckling_factor", "p"): lambda v: sphere_buckling_factor(5.0, 3, v),
    ("evaluate_predicate", "k"): lambda v: evaluate_predicate(SQRT, seq(), v, 21.0),
    ("evaluate_predicate", "candidate"): lambda v: evaluate_predicate(SQRT, seq(), 2, v),
    ("delta_bounds", "k"): lambda v: delta_bounds(seq(), v, [0.5, 2.0]),
    ("delta_bounds", "deltas"): lambda v: delta_bounds(seq(), 2, v),
    ("evaluate_families", "actuals"): lambda v: evaluate_families([SQRT], seq(), [1, 2, 3], v),
    ("evaluate_bounds", "actuals"): lambda v: evaluate_bounds(SQRT, seq(), [1, 2, 3], v),
    ("gauss_jacobi_rule", "gamma"): lambda v: gauss_jacobi_rule(v, 8),
    ("gauss_jacobi_rule", "m"): lambda v: gauss_jacobi_rule(0.0, v),
    ("gauss_jacobi_pair", "m"): lambda v: gauss_jacobi_pair(0.5, v),
    ("multiplicity", "l"): lambda v: multiplicity(v, 3),
    ("multiplicity", "n"): lambda v: multiplicity(3, v),
    ("multiplicity", "l, n"): lambda v: multiplicity(*v),
    ("compare_sharpness", "delta_grid"): lambda v: compare_sharpness(seq(), v),
    ("generalized_sym_eigen", "a_mat"): lambda v: generalized_sym_eigen(v, np.eye(2)),
}


@pytest.mark.parametrize("entry, argument, value", [
    # each was read as another number before the rule
    ("convergence_study", "basis_sizes", [8, 16.9]),  # as (8, 16)
    ("compare_sharpness", "delta_grid", (1e-3, 1e3, 4.7)),  # as 4 points
    ("family", "delta", True),  # as delta = 1
    ("gauss_jacobi_rule", "m", True),  # as a 1-node rule
    ("multiplicity", "l", True),  # as mode 1
    ("EigenSequence", "values", ("6", "10.5", "17", "20")),
    ("sphere_buckling_factor", "lam", "5"),
    ("delta_bounds", "deltas", ["1.0"]),
    ("generalized_sym_eigen", "a_mat", [["1", "0"], ["0", "1"]]),
    ("SolverConfig", "problem", "Buckling"),  # a raw ValueError
    ("evaluate_families", "actuals", [5.0]),  # one result for three prefixes
    ("evaluate_bounds", "actuals", [5.0, 6.0, 7.0, 8.0]),
    # and the same rule at every other entry point
    ("SolverConfig", "theta0", "1.0"),
    ("SolverConfig", "theta0", 10**400),
    ("SolverConfig", "basis_size", 12.0),
    ("convergence_study", "basis_sizes", [8, True]),
    ("convergence_study", "basis_sizes", ["8", "12"]),
    ("EigenSequence", "values", (True, 10.5)),  # numpy reads it as floats
    ("EigenSequence", "values", np.array([True, True])),
    ("EigenSequence", "values", (6.0, 10**400)),
    ("EigenSequence", "problem", "Clamped"),
    ("EigenSequence", "n", 2.0),
    ("family", "delta", "0.5"),
    ("family", "delta", np.True_),
    ("sphere_buckling_factor", "lam", True),
    ("sphere_buckling_factor", "n", 3.0),
    ("sphere_buckling_factor", "n", True),
    ("sphere_buckling_factor", "p", np.True_),
    ("evaluate_predicate", "k", 2.0),
    ("evaluate_predicate", "candidate", "21"),
    ("evaluate_predicate", "candidate", [21.0, True]),
    ("delta_bounds", "k", [2, True]),
    ("delta_bounds", "deltas", [0.5, True]),
    ("delta_bounds", "deltas", np.array(["0.5"])),
    ("gauss_jacobi_rule", "gamma", True),
    ("gauss_jacobi_rule", "gamma", "0.5"),
    ("gauss_jacobi_rule", "m", 8.0),
    ("gauss_jacobi_pair", "m", np.True_),
    ("multiplicity", "n", 3.0),
    ("compare_sharpness", "delta_grid", ("1e-3", 1e3, 32)),
    ("compare_sharpness", "delta_grid", (1e-3, 1e3, True)),
    ("generalized_sym_eigen", "a_mat", [[True, 0.0], [0.0, 1.0]]),
    ("generalized_sym_eigen", "a_mat", np.eye(2, dtype=bool)),
], ids=short)
def test_refused_with_one_line(entry, argument, value):
    with pytest.raises(ValidationError) as err:
        CALLS[entry, argument](value)
    assert str(err.value) and "\n" not in str(err.value)


def fields_of(result):
    """result as nested tuples of comparable leaves: arrays as their dtype
    and bytes, dataclasses (and their compare=False fields) by field."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return tuple(fields_of(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return tuple(fields_of(item) for item in result)
    if isinstance(result, float):
        return result.hex()
    return result


@pytest.mark.parametrize("entry, argument, python, numpy", [
    ("SolverConfig", "theta0", 1.0, np.float32(1.0)),
    ("SolverConfig", "theta0", 1.0, np.float64(1.0)),
    ("SolverConfig", "theta0", 1, np.int64(1)),
    ("SolverConfig", "n", 3, np.int64(3)),
    ("SolverConfig", "basis_size", 16, np.int32(16)),
    ("convergence_study", "basis_sizes", [8, 12], [np.int64(8), np.int64(12)]),
    ("convergence_study", "basis_sizes", [8, 12], np.array([8, 12])),
    ("EigenSequence", "values", VALUES, np.array(VALUES, dtype=np.float32)),
    ("EigenSequence", "values", (6, 10, 17), np.array([6, 10, 17])),
    ("EigenSequence", "values", VALUES, tuple(np.float64(v) for v in VALUES)),
    ("family", "delta", 0.5, np.float32(0.5)),
    ("family", "delta", 2, np.int64(2)),
    ("sphere_buckling_factor", "lam", 5.5, np.float32(5.5)),
    ("sphere_buckling_factor", "lam", 5, np.int64(5)),
    ("sphere_buckling_factor", "n", 3, np.int64(3)),
    ("sphere_buckling_factor", "p", 3, np.int16(3)),
    ("evaluate_predicate", "k", 2, np.int64(2)),
    ("evaluate_predicate", "k", [1, 2], np.array([1, 2])),
    ("evaluate_predicate", "candidate", 21.0, np.float32(21.0)),
    ("evaluate_predicate", "candidate", [21.0, 30.0], np.array([21.0, 30.0], dtype=np.float32)),
    ("delta_bounds", "k", 2, np.int64(2)),
    ("delta_bounds", "deltas", [0.5, 2.0], np.array([0.5, 2.0], dtype=np.float32)),
    ("delta_bounds", "deltas", [1, 2], np.array([1, 2])),
    ("evaluate_families", "actuals", [10.5, 17.0, 20.0], np.array([10.5, 17.0, 20.0])),
    ("gauss_jacobi_rule", "gamma", 0.5, np.float32(0.5)),
    ("gauss_jacobi_rule", "gamma", 2, np.int64(2)),
    ("gauss_jacobi_rule", "m", 8, np.int64(8)),
    ("gauss_jacobi_pair", "m", 8, np.uint16(8)),
    ("multiplicity", "l", 3, np.int64(3)),
    ("multiplicity", "n", 5, np.int8(5)),
    # C(10047, 10000) is past the int64 range
    ("multiplicity", "l, n", (10000, 50), (np.int64(10000), np.int64(50))),
    ("compare_sharpness", "delta_grid", (1e-3, 1e3, 32),
     (np.float64(1e-3), np.float64(1e3), np.int64(32))),
    ("compare_sharpness", "delta_grid", (0.5, 2.0, 8), (np.float32(0.5), np.float32(2.0), 8)),
    ("generalized_sym_eigen", "a_mat", [[2.0, 1.0], [1.0, 3.0]],
     np.array([[2.0, 1.0], [1.0, 3.0]], dtype=np.float32)),
    ("generalized_sym_eigen", "a_mat", [[2, 1], [1, 3]], np.array([[2, 1], [1, 3]])),
], ids=short)
def test_numpy_numbers_accepted(entry, argument, python, numpy):
    # the same value as a numpy integer or float gives the same bits
    call = CALLS[entry, argument]
    assert fields_of(call(numpy)) == fields_of(call(python))


def test_predicates():
    ints = [0, -3, 10**400, np.int8(1), np.uint64(2**64 - 1)]
    floats = [0.5, math.inf, math.nan, np.float16(1.5), np.float32(0.1), np.float64(2.0)]
    others = [True, False, np.True_, "1", np.str_("1"), b"1", None, 1j, Fraction(1, 2),
              [1], np.array(1), np.array([1.0])]
    assert [_is_int(v) for v in ints + floats + others] == [True] * 5 + [False] * 18
    assert [_is_real(v) for v in ints + floats + others] == [True] * 11 + [False] * 12


def test_conversions():
    # a real keeps its value exactly as a float; one past the float range is
    # refused like any other non-real
    assert _real(np.float32(0.1), "m") == float(np.float32(0.1))
    assert type(_real(np.int64(3), "m")) is float
    for value in (10**400, -(10**400), "1", True, None):
        with pytest.raises(ValidationError, match="^m$"):
            _real(value, "m")
    assert _reals([[1, 2.5], [np.float32(3.0), 4]], "m").tolist() == [[1.0, 2.5], [3.0, 4.0]]
    assert _reals((), "m").shape == (0,)
    array = np.arange(3.0)
    assert _reals(array, "m") is array
    for values in ([1.0, True], [[1.0], ["2"]], np.array([1.0, None], dtype=object),
                   np.array([1j]), [[1.0, 2.0], [3.0]], [10**400]):
        with pytest.raises(ValidationError, match="^m$"):
            _reals(values, "m")
