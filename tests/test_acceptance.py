"""Acceptance gate: one test per criterion, each printing a pass line.

Every criterion runs the checks of `logalg.selftest.CRITERIA` at the gate's
sizes below, on a generator seeded with the criterion's number.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion status lines.
"""
import numpy as np

from logalg import selftest

GATE = selftest.Sizes(step_trials=10_000, trials=1_000, radial_k=20, smirnov_tol=1e-4)


def _gate(num):
    name, checks = selftest.CRITERIA[num - 1]
    rng = np.random.default_rng(num)
    for check in checks:
        check.run(rng, GATE)
    print(f"[acceptance] criterion {num} ({name}): pass")


def test_criterion_1_fnorm_axioms():
    _gate(1)


def test_criterion_2_multiplication_bounds():
    _gate(2)


def test_criterion_3_orlicz_equivalence():
    _gate(3)


def test_criterion_4_embedding_consistency():
    _gate(4)


def test_criterion_5_dtau_correctness():
    _gate(5)


def test_criterion_6_nevanlinna_suite():
    _gate(6)


def test_criterion_7_witness_suite():
    _gate(7)


def test_criterion_8_completeness_mechanics():
    _gate(8)
