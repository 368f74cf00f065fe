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

__all__ = [
    "Belief",
    "ComplianceReport",
    "Cover",
    "CoverLatticeError",
    "CycleError",
    "FeatureUniverse",
    "KERNEL_BACKEND",
    "OrderDiagram",
    "PlanningProblem",
    "Policy",
    "PolicyFailure",
    "RelationTag",
    "SchemaError",
    "SensorMap",
    "SizeGuardError",
    "StarClass",
    "Stipulation",
    "TraceStep",
    "UniverseMismatchError",
    "UnsolvableError",
    "ValidationError",
    "all_classes",
    "all_covers",
    "all_partitions",
    "belief_text",
    "canonical_masks",
    "canonical_rep",
    "class_compliance_report",
    "class_members",
    "compare",
    "complies",
    "cover_count",
    "cover_text",
    "export_dot",
    "extract_policy",
    "find_policy_counterexample",
    "hasse_edges",
    "invert_sensor_map",
    "is_partition",
    "iter_antichain_covers",
    "iter_covers",
    "iter_u_inflation",
    "join",
    "make_cover",
    "make_problem",
    "make_universe",
    "maximal_solvable_covers",
    "meet",
    "parse_document",
    "partition_slice",
    "proceeds",
    "quotient_meet",
    "refines",
    "run_cli",
    "serialize_document",
    "solvable",
    "star_class",
    "star_closure",
    "star_equivalent",
    "star_subsumes",
    "subsumes",
    "u_inflation",
    "upper_covers",
    "verify_policy",
    "winning_beliefs",
]


def _load() -> None:
    """Import every layer and bind its public names in this namespace."""
    from ._kernel import BACKEND as KERNEL_BACKEND
    from .core import (
        Cover,
        FeatureUniverse,
        RelationTag,
        SensorMap,
        invert_sensor_map,
        make_cover,
        make_universe,
    )
    from .enumeration import (
        all_classes,
        all_covers,
        all_partitions,
        canonical_masks,
        class_count,
        cover_count,
        hasse_edges,
        iter_antichain_covers,
        iter_covers,
    )
    from .errors import (
        CoverLatticeError,
        CycleError,
        SchemaError,
        SizeGuardError,
        UniverseMismatchError,
        UnsolvableError,
        ValidationError,
    )
    from .formats import (
        belief_text,
        cover_text,
        export_dot,
        parse_document,
        serialize_document,
    )
    from .order import compare, iter_u_inflation, join, meet, subsumes, u_inflation, upper_covers
    from .planning import (
        Belief,
        PlanningProblem,
        Policy,
        PolicyFailure,
        TraceStep,
        extract_policy,
        find_policy_counterexample,
        make_problem,
        maximal_solvable_covers,
        solvable,
        verify_policy,
        winning_beliefs,
    )
    from .star import (
        OrderDiagram,
        StarClass,
        canonical_rep,
        class_members,
        is_partition,
        partition_slice,
        proceeds,
        quotient_meet,
        refines,
        star_class,
        star_closure,
        star_equivalent,
        star_subsumes,
    )
    from .stipulations import ComplianceReport, Stipulation, class_compliance_report, complies
    from .cli import run_cli
    globals().update(locals())


def __getattr__(name: str):
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
