"""Shared parameter sets and helpers for the test suite."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg

from kg_hierarchy import Branch, PotentialParams

# The three canonical Hermitian parameter sets used throughout the suite.
SET_A = dict(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
SET_B = dict(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0)
SET_C = dict(V0=0.3, S0=0.5, lam=0.25, q=0.8, m=1.0)


def params(base: dict, branch: Branch = Branch.HERMITIAN, VI: float = 0.0) -> PotentialParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PotentialParams(**base, VI=VI, branch=branch)


def eig_banded_reference(op, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The k_max + 1 lowest eigenpairs of a BandedOperator by LAPACK's full banded
    reduction (scipy.linalg.eig_banded, O(N^2)): a reference that shares no code
    with the library's shift-invert kernel."""
    return scipy.linalg.eig_banded(op.bands, lower=False, select="i", select_range=(0, k_max))


def complex_branch_grid(p: PotentialParams, n: int = 2001) -> np.ndarray:
    # First pole-free window of the oscillatory deformation factor.
    period = 2.0 * np.pi / p.lam
    return np.linspace(0.05 * period, 0.95 * period, n)


@pytest.fixture
def set_a() -> PotentialParams:
    return params(SET_A)


@pytest.fixture
def set_b() -> PotentialParams:
    return params(SET_B)


@pytest.fixture
def set_c() -> PotentialParams:
    return params(SET_C)
