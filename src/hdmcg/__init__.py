"""Exact-arithmetic invariants of mapping class groups of g-fold connected
sums of S^n x S^n for odd n >= 3.

The package namespace is lazy (PEP 562): ``import hdmcg`` loads no
submodule, and ``hdmcg.X`` imports the one submodule that defines ``X`` on
first use, so a CLI verb pays only for the modules it calls.  A submodule
is an attribute once it is imported (``from hdmcg import mcg`` or
``import hdmcg.mcg``).
"""

from importlib import import_module

# each submodule with the names it lends the package; ``__all__`` holds both
_EXPORTS = {
    "abgroups": "FinAbGroup GroupElement direct_sum element_order "
                "quotient_by subgroup_iso",
    "cocycles": "SurfaceClass chi2_of_class divided_eval meyer_tau "
                "signature_of_class surface_two_cycle",
    "cohomology": "GModule Presentation abelianization coinvariants "
                  "fox_derivative h1 invariants",
    "inputs": "",
    "linalg": "IntMatrix SNFResult exact_signature kernel_basis snf",
    "mcg": "MCGParams MCGReport coinvariants_closed extension_descriptor "
           "full_report h1_Gg h1_mcg h1_torelli haut_report reproduce_table3 "
           "s_pi_n_so splitting_decisions",
    "reference": "",
    "spheres": "AlmostClosedInvariants SphereData bernoulli "
               "boundary_of_plumbing bp_order coker_j minimal_signature "
               "omega_tau theta_data",
    "symplectic": "GroupFamily is_member j_matrix standard_generators "
                  "theta_index",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    # an unknown name, a submodule's included, raises AttributeError, so
    # that ``from hdmcg import mcg`` falls back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
