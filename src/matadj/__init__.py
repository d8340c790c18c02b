"""Matroid adjoint maps: verification, minor constructions, and search."""

from .adjoint import (
    AdjointMap,
    VerificationReport,
    Violation,
    check_chain_independence,
    check_modular_pairs,
    check_rank_complement,
    contract_adjoint,
    delete_adjoint,
    full_verification,
    induced_map,
    minor_adjoint,
    vanishing_hyperplanes,
    verify_adjoint,
)
from .catalog import CatalogEntry, by_name, catalog, uniform
from .errors import (
    ConstructionError,
    InputError,
    MatadjError,
    PreconditionError,
    StructureError,
)
from .files import (
    load_adjoint,
    load_matroid,
    save_adjoint,
    save_matroid,
    write_catalog_fixtures,
)
from .lattice import FlatLattice, hyperplane_chain
from .linalg import Representation, adjoint_from_representation
from .matroid import Matroid, MinorSpec, apply_minor, minor_normal_form
from .search import SearchResult, search_adjoint
from .sets import ElementSet

__all__ = [
    "AdjointMap",
    "CatalogEntry",
    "ConstructionError",
    "ElementSet",
    "FlatLattice",
    "InputError",
    "MatadjError",
    "Matroid",
    "MinorSpec",
    "PreconditionError",
    "Representation",
    "SearchResult",
    "StructureError",
    "VerificationReport",
    "Violation",
    "adjoint_from_representation",
    "apply_minor",
    "by_name",
    "catalog",
    "check_chain_independence",
    "check_modular_pairs",
    "check_rank_complement",
    "contract_adjoint",
    "delete_adjoint",
    "full_verification",
    "hyperplane_chain",
    "induced_map",
    "load_adjoint",
    "load_matroid",
    "minor_adjoint",
    "minor_normal_form",
    "save_adjoint",
    "save_matroid",
    "search_adjoint",
    "uniform",
    "vanishing_hyperplanes",
    "verify_adjoint",
    "write_catalog_fixtures",
]
