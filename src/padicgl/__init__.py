"""Exact local Langlands data for GL(n) over p-adic fields.

The public names are imported from their modules on first use (PEP 562), so
``import padicgl`` loads no submodule and a CLI call loads only the half of
the library its subcommand runs.
"""

from importlib import import_module

_EXPORTS = {
    "qexact": (
        "ExactScalar", "GaussianRational", "LFactor", "LocalFieldContext", "equals_one",
        "render_lfactor", "render_scalar",
    ),
    "bzclass": (
        "Atom", "ClassData", "InertialLabel", "LabelRegistry", "Segment", "dualize", "linked",
        "load_registry", "precedes", "standard_order", "unramified_atom",
    ),
    "weildeligne": ("WDBlock", "WDRep", "clebsch_gordan", "sp_rep", "wd_dual"),
    "factors": ("EpsValue", "conductor", "tate_char", "wd_eps", "wd_l_factor", "wd_pair_l"),
    "langlands": ("dictionary_report", "rec_forward", "rec_inverse", "satake_class_data"),
    "wittring": ("GFRing", "IntegerRing", "ModRing", "RationalField", "WittContext"),
    "cyclicalg": ("CyclicAlgebra", "UnramifiedContext", "brauer_invariant", "dieudonne_standard"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # padicgl.qexact and its siblings need no import of their own
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
