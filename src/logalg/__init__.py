"""Numerics for algebras of log-integrable functions and operators.

Four layers:

* :mod:`logalg.stepfn` -- step functions under the log F-norm and its metric
* :mod:`logalg.operators` -- the matrix analogue under the normalized trace
* :mod:`logalg.holo` -- disk-holomorphic expression trees and boundary norms
* :mod:`logalg.witnesses` -- counterexample and completeness constructions
"""
from .errors import (DomainMismatchError, InvalidParameterError, InvariantError,
                     LogAlgError, MalformedInputError, SingularityError,
                     StructureError)
from .holo import (Add, Binary, BlaschkeFactor, CircleSample, Div, HoloFunction,
                   Mul, Polynomial, SafeRational, SingularInner, Sub,
                   boundary_norm, class_norm, constant, d_N, evaluate,
                   phi_sample, radial_mean, smirnov_defect)
from .operators import (MatrixOperator, SpectralSplit, dlog_op, dtau,
                        embed_diagonal, fk_determinant, lognorm_op,
                        measure_above, singular_numbers, spectral_project,
                        split_at)
from .stepfn import (SingularStep, StepFunction, approximate_in_l1,
                     decreasing_rearrangement, dlog, l1norm, lognorm,
                     orlicz_fnorm, pointwise, restrict, scale, truncate)
from .witnesses import (CauchyReport, ConvexSplit, SeparationSequence,
                        UnboundednessWitness, cauchy_limit, convex_split,
                        separation_sequence, unboundedness_witness)

__version__ = "0.1.0"
