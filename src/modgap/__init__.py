"""Congruence transfer measures and spectral gaps on SL2(Z/q)."""

__version__ = "0.1.0"

from .errors import Guards
from .measures import GroupMeasure, MeasureParams, build_mu, build_mu1, build_nu, cocycle
from .modgroup import (
    GroupTable,
    ModMatrix,
    NewSpaceProjector,
    get_group,
    group_order,
    level_average,
    new_space_dimension,
)
from .spectral import ConvOperator, main_sweep, operator_norm, zariski_check
from .symdyn import (
    SystemSpec,
    Word,
    build_system,
    estimate_contraction,
    estimate_delta,
    evaluate_branch,
    schottky_system,
    word,
    zaremba_system,
)

__all__ = [
    "GroupMeasure",
    "MeasureParams",
    "GroupTable",
    "Guards",
    "ModMatrix",
    "NewSpaceProjector",
    "ConvOperator",
    "SystemSpec",
    "Word",
    "build_mu",
    "build_mu1",
    "build_nu",
    "build_system",
    "cocycle",
    "estimate_contraction",
    "estimate_delta",
    "evaluate_branch",
    "get_group",
    "group_order",
    "level_average",
    "main_sweep",
    "new_space_dimension",
    "operator_norm",
    "schottky_system",
    "word",
    "zaremba_system",
    "zariski_check",
]
