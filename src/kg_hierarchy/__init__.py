"""Bound states of the 1-D Klein-Gordon equation with the q-deformed Hulthen potential.

The solver factorizes the energy-dependent effective Hamiltonian with an ansatz
superpotential, iterates the partner-Hamiltonian hierarchy to enumerate levels,
and solves the implicit energy condition eps_n(E) = E^2 - m^2 per level on the
Hermitian, PT-symmetric and non-Hermitian deformation branches.  An independent
finite-difference eigensolver cross-checks the Hermitian spectra.

The namespace is lazy (PEP 562), so that ``import kg_hierarchy.cli`` loads only
what a command needs: importing the package loads no submodule, and the first
access of a public name (or of a submodule name) imports every submodule and
binds all of ``__all__`` at once, leaving any name already bound as it is.
``kg.X`` is then the namespace an eager package would have.
"""

__all__ = [
    "Branch",
    "PotentialParams",
    "GridFunction",
    "Superpotential",
    "EnergyLevel",
    "LevelFlag",
    "OracleConfig",
    "OracleResult",
    "BandedOperator",
    "CompareReport",
    "CompareRow",
    "WAVEFORM_NOTE",
    "compare",
    "discretize",
    "effective_potential",
    "ground_state_from_W",
    "level",
    "node_count",
    "riccati_check",
    "solve_level",
    "solve_nu1",
    "solve_selfconsistent",
    "spectrum",
    "ComplexLevelError",
    "ConfigError",
    "DegenerateRootError",
    "DomainError",
    "GammaPositivityWarning",
    "KGHierarchyError",
    "NoBoundStateError",
    "NonConvergenceError",
    "NonNormalizableError",
    "NoRootError",
    "ParameterError",
    "ZeroNuError",
]

__version__ = "0.1.0"

_SUBMODULES = ("errors", "potential", "hierarchy", "spectra", "wavefunctions", "oracle")


def __getattr__(name: str):
    if name not in __all__ and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    modules = [importlib.import_module(f"{__name__}.{sub}") for sub in _SUBMODULES]
    namespace = globals()
    # Each name from the first submodule that has it; a re-export is the same object.
    for key in __all__:
        if key not in namespace:
            namespace[key] = next(getattr(m, key) for m in modules if hasattr(m, key))
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
