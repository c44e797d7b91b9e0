"""Numerics for algebras of log-integrable functions and operators.

Four layers:

* :mod:`logalg.stepfn` -- step functions under the log F-norm and its metric
* :mod:`logalg.operators` -- the matrix analogue under the normalized trace
* :mod:`logalg.holo` -- disk-holomorphic expression trees and boundary norms
* :mod:`logalg.witnesses` -- counterexample and completeness constructions

Only :mod:`logalg.errors` loads with the package.  Every other name loads
from its layer on first use (PEP 562), so step-function work never imports
numpy.
"""
from .errors import (DomainMismatchError, InvalidParameterError, InvariantError,
                     LogAlgError, MalformedInputError, SingularityError,
                     StructureError)

_EXPORTS = {
    "holo": "Add Binary BlaschkeFactor Div HoloFunction Mul Polynomial SafeRational "
            "SingularInner Sub boundary_norm class_norm constant d_N evaluate radial_mean "
            "smirnov_defect sweep_radii",
    "operators": "MatrixOperator SpectralSplit dlog_op dtau embed_diagonal fk_determinant "
                 "lognorm_op measure_above singular_numbers spectral_project split_at",
    "stepfn": "SingularStep StepFunction approximate_in_l1 decreasing_rearrangement dlog l1norm "
              "lognorm orlicz_fnorm pointwise restrict scale truncate",
    "witnesses": "CauchyReport ConvexSplit SeparationSequence UnboundednessWitness cauchy_limit "
                 "convex_split separation_sequence unboundedness_witness",
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in (layer, *names.split())}
__all__ = ["DomainMismatchError", "InvalidParameterError", "InvariantError", "LogAlgError",
           "MalformedInputError", "SingularityError", "StructureError", "errors", *_LAYER]
_LAYER["selftest"] = "selftest"  # loads on use; not exported
# numpy comes with these three, and they load together, so that whoever
# touches one (a tracer, say) finds all three in sys.modules.
_NUMPY_LAYERS = ("holo", "operators", "selftest")

__version__ = "0.1.0"


def __getattr__(name):
    layer = _LAYER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not `from . import` (which calls back here) and not
    # importlib.import_module (which -X importtime does not report)
    for owner in _NUMPY_LAYERS if layer in _NUMPY_LAYERS else (layer,):
        __import__(f"{__name__}.{owner}")
    module = globals()[layer]  # the import bound it
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
