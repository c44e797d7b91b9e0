"""Seeded input generator and reference values for the benchmark workloads.

``generate(workload, seed, outdir, smoke)`` writes the program inputs as
JSON files under ``outdir/inputs`` and the reference values the checks need
to ``outdir/refs.json``.  References are computed here from the raw numbers
with numpy and scipy, never with logalg, so the checks do not trust the
program's own results.  The same seed always gives the same files.
"""
from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np
from scipy import integrate, linalg

WORKLOADS = ("cli-verbs", "stepfn-refine", "operators-svd", "holo-quadrature")

# sizes per workload; smoke mode keeps the shape of every workload but
# shrinks the inputs so that all checks run in a few seconds
SIZES = {
    "stepfn_pieces": (100, 400, 1600),
    "stepfn_cauchy_pieces": (100, 400),
    "matrix_n": (8, 64, 512),
    "embed_n": (8, 64),
    "batches": 2,           # of 128 4x4 matrices each
    "batch": 128,
    "holo_grid_log2": (12, 14, 16, 18, 20),
}
SMOKE_SIZES = {
    "stepfn_pieces": (10, 20, 40),
    "stepfn_cauchy_pieces": (10, 20),
    "matrix_n": (4, 8, 16),
    "embed_n": (4, 8),
    "batches": 2,
    "batch": 4,
    "holo_grid_log2": (12, 13, 14),
}

TRUNC_LEVELS = 9          # truncations of a base at M = 2^0 .. 2^8
MAX_ABS = 60.0            # piece values stay below 2^6, so the last three truncations equal the base
SWEEP_K = (1, 2, 3, 4, 5, 6)
INV_SINGULAR_K = (2, 4, 6)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


# --------------------------------------------------------------------- step functions

def step_arrays(rng, pieces: int):
    """(left, right, value) arrays of `pieces` disjoint pieces in [0, 1)."""
    while True:
        cuts = np.sort(rng.uniform(0.0, 1.0, 2 * pieces))
        if np.all(np.diff(cuts) > 0) and cuts[0] > 0:
            break
    v = rng.normal(0, 10, pieces) + 1j * rng.normal(0, 10, pieces)
    big = np.abs(v) > MAX_ABS
    v[big] *= MAX_ABS / np.abs(v[big]) * 0.999
    return cuts[0::2], cuts[1::2], v


def grid_step_arrays(rng, n: int):
    """Pieces on the 1/n grid of [0, 1), some slots left at zero."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, max(1, n // 2)), replace=False))
    edges = np.concatenate(([0], cuts, [n]))
    left, right = edges[:-1] / n, edges[1:] / n
    v = rng.normal(0, 5, left.size) + 1j * rng.normal(0, 5, left.size)
    v[rng.uniform(size=left.size) < 0.25] = 0
    keep = v != 0
    return left[keep], right[keep], v[keep]


def step_json(left, right, values, total_measure=1.0) -> dict:
    return {"total_measure": total_measure,
            "pieces": [{"l": float(l), "r": float(r), "re": float(v.real), "im": float(v.imag)}
                       for l, r, v in zip(left, right, values)]}


def truncations(left, right, values) -> list:
    out = []
    for k in range(TRUNC_LEVELS):
        keep = np.abs(values) <= 2.0 ** k
        out.append(step_json(left[keep], right[keep], values[keep]))
    return out


# --------------------------------------------------------------------- matrices

def random_matrix(rng, n: int) -> np.ndarray:
    return rng.normal(0, 3, (n, n)) + 1j * rng.normal(0, 3, (n, n))


def matrix_json(a: np.ndarray) -> dict:
    return {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def _gap_threshold(sv: np.ndarray, j: int) -> float:
    """A cut midway between the j-th and (j+1)-th largest singular values."""
    return float(0.5 * (sv[j] + sv[j + 1]))


def matrix_refs(a: np.ndarray, b: np.ndarray) -> dict:
    sv = linalg.svdvals(a)
    n = a.shape[0]
    _, logabsdet = np.linalg.slogdet(a)
    return {"sv": sv.tolist(), "sv_diff": linalg.svdvals(a - b).tolist(),
            "logabsdet": float(logabsdet),
            "delta": _gap_threshold(sv, n // 3), "a": _gap_threshold(sv, n // 2),
            "K": _gap_threshold(sv, n // 4)}


# --------------------------------------------------------------------- holomorphic trees

def cjson(c: complex) -> dict:
    return {"re": float(c.real), "im": float(c.imag)}


def poly_json(coeffs) -> dict:
    return {"op": "poly", "coeffs": [cjson(complex(c)) for c in coeffs]}


def blaschke_json(a: complex) -> dict:
    return {"op": "blaschke", "a": cjson(a)}


def product_json(factors: list) -> dict:
    tree = factors[0]
    for f in factors[1:]:
        tree = {"op": "mul", "lhs": tree, "rhs": f}
    return tree


def inv_singular_json(s: float) -> dict:
    return {"op": "div", "lhs": poly_json([1]), "rhs": {"op": "singular", "s": s}}


def disk_point(rng, rmax: float) -> complex:
    return complex(rmax * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))


def circle_mean(g, r: float) -> float:
    """Mean of g(theta) over the circle by adaptive quadrature, split near theta = 0."""
    w = max(1.0 - r, 1e-3)
    pts = [(-math.pi, -w), (-w, 0.0), (0.0, w), (w, math.pi)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total = sum(integrate.quad(g, a, b, limit=500, epsabs=1e-13, epsrel=1e-13)[0]
                    for a, b in pts)
    return total / (2 * math.pi)


def inv_singular_mean(s: float, r: float) -> float:
    """Circle mean of log(1 + |1/S_s|) at radius r: log(1 + exp(s P_r))."""
    def g(t):
        return float(np.logaddexp(0.0, s * (1 - r * r) / (1 - 2 * r * math.cos(t) + r * r)))
    return circle_mean(g, r)


def blaschke_poly_value(a: complex, coeffs, z):
    """(z - a)/(1 - conj(a) z) * sum c_k z^k, straight from the formula."""
    z = np.asarray(z, dtype=complex)
    p = sum(c * z ** k for k, c in enumerate(coeffs))
    return (z - a) / (1 - np.conj(a) * z) * p


def blaschke_rational_value(a: complex, num, den, z):
    z = np.asarray(z, dtype=complex)
    pn = sum(c * z ** k for k, c in enumerate(num))
    pd = sum(c * z ** k for k, c in enumerate(den))
    return (z - a) / (1 - np.conj(a) * z) * pn / pd


# corpus members of logalg.selftest.nevanlinna_corpus(), in order, as
# boundary-value formulas; singular inner atoms are unimodular a.e.
def _corpus_boundary() -> list:
    def mean_abs(fn):
        return circle_mean(lambda t: math.log1p(abs(fn(complex(math.cos(t), math.sin(t))))), 1.0)
    log2 = math.log(2)
    return [
        0.0,
        math.log1p(abs(2 + 1j)),
        log2,
        mean_abs(lambda z: 1 + z + 0.5j * z * z),
        mean_abs(lambda z: 1 / (1 - 0.9 * z)),
        log2, log2, log2, log2,
        mean_abs(lambda z: (z - 0.5) / (1 - 0.5 * z) * (1 + z)),
        log2,
    ]


# --------------------------------------------------------------------- workloads

def _gen_cli(rng, inp: str, sizes) -> dict:
    fl, fr, fv = step_arrays(rng, 32)
    gl, gr, gv = step_arrays(rng, 24)
    el, er, ev = grid_step_arrays(rng, 16)
    bl, br, bv = step_arrays(rng, 20)
    a16, b16 = random_matrix(rng, 16), random_matrix(rng, 16)
    ha = disk_point(rng, 0.3)
    hc = [complex(2 + rng.uniform(), rng.uniform()), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
    hz = disk_point(rng, 0.95)
    eps = float(rng.choice([0.05, 0.1, 0.2]))
    files = {
        "f": step_json(fl, fr, fv), "g": step_json(gl, gr, gv), "e": step_json(el, er, ev),
        "A": matrix_json(a16), "B": matrix_json(b16),
        "h": product_json([blaschke_json(ha), poly_json(hc)]),
        "seq": truncations(bl, br, bv),
        # fault inputs: fixed, independent of the seed
        "tiny": matrix_json(1e-310 * np.eye(2)), "zero": matrix_json(np.zeros((2, 2))),
        "huge": poly_json([1e308, 1e308]),
    }
    for name, obj in files.items():
        _write(os.path.join(inp, name + ".json"), obj)

    def h_abs(z):
        return abs(complex(blaschke_poly_value(ha, hc, z)))

    return {
        "A": matrix_refs(a16, b16),
        "eps": eps, "N": int(rng.integers(2, 11)), "k": int(rng.integers(8, 17)),
        "selftest_seed": int(rng.integers(0, 1000)),
        "h_z": [hz.real, hz.imag],
        "h_value": cjson(complex(blaschke_poly_value(ha, hc, hz))),
        "sweep_means": [circle_mean(lambda t, r=r: math.log1p(h_abs(r * complex(math.cos(t), math.sin(t)))), r)
                        for r in (1 - 2.0 ** -k for k in SWEEP_K)],
        "h_boundary": circle_mean(lambda t: math.log1p(h_abs(complex(math.cos(t), math.sin(t)))), 1.0),
    }


def _gen_stepfn(rng, inp: str, sizes) -> dict:
    for p in sizes["stepfn_pieces"]:
        for name in ("f", "g"):
            _write(os.path.join(inp, f"{name}{p}.json"), step_json(*step_arrays(rng, p)))
    for p in sizes["stepfn_cauchy_pieces"]:
        _write(os.path.join(inp, f"seq{p}.json"), truncations(*step_arrays(rng, p)))
    return {"eps": 0.1}


def _gen_operators(rng, inp: str, sizes) -> dict:
    refs = {}
    for n in sizes["matrix_n"]:
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        _write(os.path.join(inp, f"A{n}.json"), matrix_json(a))
        _write(os.path.join(inp, f"B{n}.json"), matrix_json(b))
        refs[f"n{n}"] = matrix_refs(a, b)
    for n in sizes["embed_n"]:
        _write(os.path.join(inp, f"e{n}.json"), step_json(*grid_step_arrays(rng, n)))
    for j in range(sizes["batches"]):
        batch = [random_matrix(rng, 4) for _ in range(sizes["batch"])]
        _write(os.path.join(inp, f"batch4-{j}.json"), [matrix_json(a) for a in batch])
        refs[f"batch4-{j}"] = [matrix_refs(a, b) for a, b in zip(batch, batch[1:] + batch[:1])]
    return refs


def _gen_holo(rng, inp: str, sizes) -> dict:
    s = float(rng.uniform(0.5, 1.5))
    blaschke_zeros = [[disk_point(rng, 0.9) for _ in range(j)] for j in (1, 2, 3, 4)]
    ea = disk_point(rng, 0.9)
    num = [complex(rng.normal(), rng.normal()) for _ in range(3)]
    den = [1.0, -disk_point(rng, 0.9)]
    points = [disk_point(rng, 0.95) for _ in range(4)]
    _write(os.path.join(inp, "z.json"), poly_json([0, 1]))
    _write(os.path.join(inp, "inv_singular.json"), inv_singular_json(s))
    # fault input, independent of the seed: 1/z is not in the Nevanlinna class
    _write(os.path.join(inp, "inv_z.json"),
           {"op": "div", "lhs": poly_json([1]), "rhs": blaschke_json(0)})
    for j, zeros in enumerate(blaschke_zeros):
        _write(os.path.join(inp, f"blaschke{j}.json"), product_json([blaschke_json(a) for a in zeros]))
    _write(os.path.join(inp, "eval.json"),
           {"op": "mul", "lhs": blaschke_json(ea),
            "rhs": {"op": "rational", "num": [cjson(c) for c in num], "den": [cjson(c) for c in den]}})
    return {
        "s": s,
        "z_k": list(SWEEP_K),
        "inv_singular_means": {str(k): inv_singular_mean(s, 1 - 2.0 ** -k) for k in INV_SINGULAR_K},
        "points": [[z.real, z.imag] for z in points],
        "values": [cjson(complex(blaschke_rational_value(ea, num, den, z))) for z in points],
        "corpus_boundary": _corpus_boundary(),
    }


_GENERATORS = {"cli-verbs": _gen_cli, "stepfn-refine": _gen_stepfn,
               "operators-svd": _gen_operators, "holo-quadrature": _gen_holo}


def generate(workload: str, seed: int, outdir: str, smoke: bool = False) -> None:
    sizes = SMOKE_SIZES if smoke else SIZES
    inp = os.path.join(outdir, "inputs")
    os.makedirs(inp, exist_ok=True)
    refs = _GENERATORS[workload](_rng(workload, seed), inp, sizes)
    _write(os.path.join(outdir, "refs.json"),
           {"workload": workload, "seed": seed, "smoke": smoke, "sizes": sizes, "refs": refs})
