"""Sensor covers over finite feature sets.

Covers model abstract sensors by the pre-images of their readings.  The
package provides the subsumption meet-semilattice, the star-closure
quotient and the combined ordering, a worst-case nondeterministic
belief-space planner giving covers their operational meaning, privacy
stipulations, exhaustive desk-scale enumeration, and a CLI with canonical
JSON/DOT formats.

``import cover_lattice`` loads no submodule.  The first access to a name
the package does not hold yet (a name of ``__all__``, a submodule such as
``cover_lattice.planning``, ``dir()`` or ``from cover_lattice import *``)
imports every layer at once and binds the whole namespace, so library code
sees the same package as an eager import would give.  ``python -m
cover_lattice`` never touches this namespace: it imports ``cli``, which
imports only the layers the chosen subcommand calls.
"""

__version__ = "0.1.0"

# Every public name by the layer that defines it, but ``KERNEL_BACKEND``, which
# ``_load`` binds to ``_kernel.BACKEND``.
_EXPORTS = {
    "core": (
        "Cover", "FeatureUniverse", "RelationTag", "SensorMap", "invert_sensor_map",
        "make_cover", "make_universe",
    ),
    "enumeration": (
        "all_classes", "all_covers", "all_partitions", "canonical_masks", "class_count",
        "cover_count", "hasse_edges", "iter_antichain_covers", "iter_covers",
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


def _load() -> None:
    """Import every layer and bind its public names in this namespace."""
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        layer = import_module(f"{__name__}.{module}")
        namespace.update((name, getattr(layer, name)) for name in names)
    namespace["KERNEL_BACKEND"] = import_module(f"{__name__}._kernel").BACKEND


def __getattr__(name: str):
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
