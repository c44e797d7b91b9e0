"""What `import logalg` loads, and the names the package exports.

The package loads its layers on first use, so the step-function verbs run
without numpy. Each check that depends on what is loaded runs in a fresh
interpreter, because this one has every layer loaded already.
"""
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import logalg
from logalg import InvalidParameterError, MalformedInputError, StructureError
from test_cli import GOLDEN

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NUMPY_FREE_VERBS = {"norm", "dist", "orlicz", "rearrange", "witness", "cauchy"}
NUMPY_FREE = [(argv, digest) for argv, digest in GOLDEN if argv[0] in NUMPY_FREE_VERBS]
NUMPY = [(argv, digest) for argv, digest in GOLDEN if argv[0] not in NUMPY_FREE_VERBS]
# what `from logalg import *` bound when the package imported every layer eagerly
EXPORTS = [
    "Add", "Binary", "BlaschkeFactor", "CauchyReport", "ConvexSplit", "Div",
    "DomainMismatchError", "HoloFunction", "InvalidParameterError", "InvariantError",
    "LogAlgError", "MalformedInputError", "MatrixOperator", "Mul", "Polynomial",
    "SafeRational", "SeparationSequence", "SingularInner", "SingularStep", "SingularityError",
    "SpectralSplit", "StepFunction", "StructureError", "Sub", "UnboundednessWitness",
    "approximate_in_l1", "boundary_norm", "cauchy_limit", "class_norm", "constant",
    "convex_split", "d_N", "decreasing_rearrangement", "dlog", "dlog_op", "dtau",
    "embed_diagonal", "errors", "evaluate", "fk_determinant", "holo", "l1norm", "lognorm",
    "lognorm_op", "measure_above", "operators", "orlicz_fnorm", "pointwise",
    "radial_mean", "restrict", "scale", "separation_sequence", "singular_numbers",
    "smirnov_defect", "spectral_project", "split_at", "stepfn", "sweep_radii", "truncate",
    "unboundedness_witness", "witnesses",
]
# constructor calls of the value types on invalid data, and the error each raises
REFUSED = {
    "step beyond its measure": (lambda: logalg.StepFunction(((0.0, 2.0, 1), (1.0, 3.0, 1)), 1.0),
                                MalformedInputError),
    "step of negative measure": (lambda: logalg.StepFunction.zero(-1.0), MalformedInputError),
    "increasing heights": (lambda: logalg.SingularStep(((1.0, 1.0), (1.0, 5.0))),
                           MalformedInputError),
    "zero step width": (lambda: logalg.SingularStep(((0.0, 1.0),)), MalformedInputError),
    "nan height": (lambda: logalg.SingularStep(((1.0, float("nan")),)), MalformedInputError),
    "inf height": (lambda: logalg.SingularStep(((1.0, float("inf")),)), MalformedInputError),
    "blaschke outside the disk": (lambda: logalg.BlaschkeFactor(2.0), InvalidParameterError),
    "negative singular weight": (lambda: logalg.SingularInner(-1.0), InvalidParameterError),
    "nan singular weight": (lambda: logalg.SingularInner(float("nan")), InvalidParameterError),
    "inf singular weight": (lambda: logalg.SingularInner(float("inf")), InvalidParameterError),
    "inf coefficient": (lambda: logalg.Polynomial([float("inf")]), InvalidParameterError),
    "coefficient of infinite modulus": (lambda: logalg.Polynomial([1.7e308 + 1.7e308j]),
                                        InvalidParameterError),
    "blaschke of infinite modulus": (lambda: logalg.BlaschkeFactor(1.7e308 + 1.7e308j),
                                     InvalidParameterError),
    "step of infinite modulus": (lambda: logalg.StepFunction([(0, 1, 1.7e308 + 1.7e308j)], 1),
                                 MalformedInputError),
    "matrix entry of infinite modulus": (lambda: logalg.MatrixOperator([[1.7e308 + 1.7e308j]]),
                                         MalformedInputError),
    "rational with a pole at 1": (lambda: logalg.SafeRational([1], [1, -1]), StructureError),
}

STEP = logalg.StepFunction([(0.0, 0.5, 2.0)], 1.0)
ONE = lambda: logalg.constant(1.0)  # noqa: E731  # a tree, built when a row runs
IPE = InvalidParameterError
# calls with a parameter out of its range, the error each raises, and its message
OUT_OF_RANGE = {
    "pointwise div": (lambda: logalg.pointwise(STEP, STEP, "div"), IPE, "unknown pointwise op"),
    "l1 approximation at eps 0": (lambda: logalg.approximate_in_l1(STEP, 0), IPE, "eps must"),
    "cauchy of one member": (lambda: logalg.cauchy_limit([STEP], 1e-9), IPE, "at least two"),
    "cauchy at tol 0": (lambda: logalg.cauchy_limit([STEP, STEP], 0), IPE, "tol must"),
    "class norm at tol 0": (lambda: logalg.class_norm(ONE(), 0), IPE, "tol must"),
    "smirnov at tol 0": (lambda: logalg.smirnov_defect(ONE(), 0), IPE, "tol must"),
    "measure above 0": (lambda: logalg.measure_above(logalg.MatrixOperator([[1.0]]), 0), IPE,
                        "delta must"),
    "embed at n 0": (lambda: logalg.embed_diagonal(STEP, 0), IPE, "n must"),
    "embed of measure 2": (lambda: logalg.embed_diagonal(logalg.StepFunction.zero(2.0), 1), IPE,
                           "requires total_measure 1"),
    "separation at k 0": (lambda: logalg.separation_sequence(0), IPE, "k must"),
    "separation past 2^16": (lambda: logalg.separation_sequence(2 ** 16 + 1), IPE,
                             "k must be at most 65536"),
    "radial mean on a float grid": (lambda: logalg.radial_mean(ONE(), 0.5, 64.0), IPE,
                                    "grid size must be an int, not 64.0"),
    "boundary norm on a fractional grid": (lambda: logalg.boundary_norm(ONE(), 64.5), IPE,
                                           "grid size must be an int, not 64.5"),
    "d_N on a string grid": (lambda: logalg.d_N(ONE(), ONE(), "64"), IPE,
                             "grid size must be an int, not '64'"),
    "binary pow": (lambda: logalg.Binary("pow", ONE(), ONE()), StructureError,
                   "unknown expression op 'pow'"),
    "radial mean at a string radius": (lambda: logalg.radial_mean(ONE(), "0.5", 64), IPE,
                                       "radius must be a real number, not '0.5'"),
    "radial mean at no radius": (lambda: logalg.radial_mean(ONE(), None, 64), IPE,
                                 "radius must be a real number, not None"),
    "class norm at a string tol": (lambda: logalg.class_norm(ONE(), "1e-4"), IPE,
                                   "tol must be a real number, not '1e-4'"),
    "smirnov at a string tol": (lambda: logalg.smirnov_defect(ONE(), "1e-3"), IPE,
                                "tol must be a real number, not '1e-3'"),
    "sweep to a fractional k": (lambda: logalg.sweep_radii(6.5), IPE, "k-max must be an int, not 6.5"),
    "sweep to a string k": (lambda: logalg.sweep_radii("6"), IPE, "k-max must be an int, not '6'"),
    "evaluation at a string": (lambda: logalg.evaluate(ONE(), "0.5"), IPE,
                               "evaluation point must be a number, not '0.5'"),
}
# main(), then whether numpy was loaded, on stderr
VIA_MAIN = """
import sys
from logalg.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def ids(table):
    return [" ".join(argv[:2] if argv[0] == "witness" else argv[:1]) for argv, _ in table]


def digest(proc):
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


@pytest.mark.parametrize("argv, golden", NUMPY_FREE, ids=ids(NUMPY_FREE))
def test_step_function_verbs_never_import_numpy(argv, golden):
    proc = python("-X", "importtime", "-m", "logalg.cli", *argv)
    assert digest(proc) == golden
    assert "numpy" not in {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    proc = python("-c", VIA_MAIN, *argv)
    assert digest(proc) == golden
    assert proc.stderr == "False\n"


@pytest.mark.parametrize("argv, golden", NUMPY, ids=ids(NUMPY))
def test_numpy_verbs_load_their_layers_on_first_use(argv, golden):
    assert digest(python("-m", "logalg.cli", *argv)) == golden


def test_selftest_verb_loads_its_layer_on_first_use():
    proc = python("-m", "logalg.cli", "selftest", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("[selftest] all suites passed\n")


def test_a_bare_import_loads_no_layer():
    proc = python("-c", "import sys, logalg; print(sorted(m for m in sys.modules if 'logalg' in m))")
    assert proc.stdout == "['logalg', 'logalg.errors']\n"


def test_one_numpy_layer_loads_all_of_them():
    # bench/spans.py wraps every layer after `import logalg.cli` and `logalg.holo`
    proc = python("-c", "import sys, logalg.cli; logalg.holo; "
                        "print(sorted(m for m in sys.modules if 'logalg' in m))")
    layers = ["cli", "errors", "holo", "jsonio", "operators", "selftest", "stepfn", "witnesses"]
    assert proc.stdout == f"{['logalg'] + [f'logalg.{m}' for m in layers]}\n"


def test_dir_and_star_import_see_every_export_in_a_fresh_interpreter():
    proc = python("-c", "import logalg; assert set(logalg.__all__) <= set(dir(logalg)); "
                        "from logalg import *; "
                        "assert all(globals()[n] is getattr(logalg, n) for n in logalg.__all__)")
    assert proc.returncode == 0, proc.stderr


def test_the_exports_are_those_of_the_eager_package():
    assert sorted(logalg.__all__) == EXPORTS
    namespace = {}
    exec("from logalg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert all(namespace[name] is getattr(logalg, name) for name in EXPORTS)
    assert set(EXPORTS) <= set(dir(logalg))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        logalg.no_such_name
    with pytest.raises(ImportError):
        from logalg import no_such_name  # noqa: F401


@pytest.mark.parametrize("build, error", REFUSED.values(), ids=REFUSED.keys())
def test_each_constructor_refuses_invalid_data(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("call, error, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_each_function_refuses_a_parameter_out_of_range(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_numpy_scalars_are_numbers_to_the_holo_entry_points():
    f = logalg.constant(1.0)
    assert logalg.radial_mean(f, np.float64(0.5), np.int64(64)) == logalg.radial_mean(f, 0.5, 64)
    assert logalg.evaluate(f, np.complex128(0.5)) == logalg.evaluate(f, 0.5)
    assert logalg.sweep_radii(np.int32(2)) == logalg.sweep_radii(2)
    assert logalg.class_norm(f, np.float32(1e-2)).converged


def test_the_only_make_methods_are_aliases_of_two_constructors():
    types = [getattr(logalg, name) for name in EXPORTS]
    assert [t.__name__ for t in types if isinstance(t, type) and "make" in vars(t)] == [
        "MatrixOperator", "StepFunction"]
    pieces = [(0.5, 1.0, 2.0), (0.0, 0.5, 2.0)]
    assert logalg.StepFunction.make(pieces, 1.0) == logalg.StepFunction(pieces, 1.0)
    assert logalg.MatrixOperator.make([[1.0]]).entries.tolist() == [[1.0]]
