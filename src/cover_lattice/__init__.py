"""Sensor covers over finite feature sets.

Covers model abstract sensors by the pre-images of their readings.  The
package provides the subsumption meet-semilattice, the star-closure
quotient and the combined ordering, a worst-case nondeterministic
belief-space planner giving covers their operational meaning, privacy
stipulations, exhaustive desk-scale enumeration, and a CLI with canonical
JSON/DOT formats.

``import cover_lattice`` loads no submodule.  The first access to a public
name (a name of ``__all__``) imports only the layer that defines it, with
the layers that layer imports itself, and binds that layer's public names:
``cover_lattice.solvable`` loads ``core``, ``errors``, ``_kernel`` and
``planning``, and ``cover_lattice.KERNEL_BACKEND`` loads ``_kernel`` alone.
Any other first access (a submodule such as ``cover_lattice.planning``
that is not loaded yet, ``dir()``, ``from cover_lattice import *`` or an
unknown name) imports every layer and binds the whole namespace.  Each
name is bound to the object its layer defines, so library code sees the
same objects as an eager import would give.  ``python -m cover_lattice``
never touches this namespace: it imports ``cli``, which imports only the
layers the chosen subcommand calls.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Every public name by the layer that defines it, but ``KERNEL_BACKEND``, which
# ``_bind_backend`` binds to ``_kernel.BACKEND``.  A first access to one of these
# names imports that layer alone.
_EXPORTS = {
    "core": (
        "Cover", "FeatureUniverse", "RelationTag", "SensorMap", "invert_sensor_map",
        "make_cover", "make_universe",
    ),
    "enumeration": (
        "all_classes", "all_covers", "all_partitions", "class_count", "cover_count",
        "hasse_edges", "iter_antichain_covers", "iter_cover_masks", "iter_covers",
        "partition_count", "partition_masks",
    ),
    "errors": (
        "CoverLatticeError", "CycleError", "SchemaError", "SizeGuardError",
        "UniverseMismatchError", "UnsolvableError", "ValidationError",
    ),
    "formats": ("belief_text", "cover_text", "export_dot", "parse_document", "serialize_document"),
    "order": (
        "compare", "iter_u_inflation", "join", "meet", "subsumes", "u_inflation", "upper_covers",
    ),
    "planning": (
        "Belief", "PlanningProblem", "Policy", "PolicyFailure", "TraceStep", "extract_policy",
        "find_policy_counterexample", "make_problem", "maximal_solvable_covers", "solvable",
        "verify_policy", "winning_beliefs",
    ),
    "star": (
        "OrderDiagram", "StarClass", "canonical_rep", "class_members", "is_partition",
        "partition_slice", "proceeds", "quotient_meet", "refines", "star_class", "star_closure",
        "star_equivalent", "star_subsumes",
    ),
    "stipulations": ("ComplianceReport", "Stipulation", "class_compliance_report", "complies"),
    "cli": ("run_cli",),
}

__all__ = sorted(["KERNEL_BACKEND", *(name for names in _EXPORTS.values() for name in names)])


_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}


def _bind(layer: str) -> None:
    """Import one layer and bind its public names in this namespace."""
    module = _import_module(f"{__name__}.{layer}")
    globals().update((name, getattr(module, name)) for name in _EXPORTS[layer])


def _bind_backend() -> None:
    globals()["KERNEL_BACKEND"] = _import_module(f"{__name__}._kernel").BACKEND


def _load() -> None:
    """Import every layer and bind the whole public namespace."""
    for layer in _EXPORTS:
        _bind(layer)
    _bind_backend()


def __getattr__(name: str):
    if name in _LAYER_OF:
        _bind(_LAYER_OF[name])
    elif name == "KERNEL_BACKEND":
        _bind_backend()
    else:
        _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
