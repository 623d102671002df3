"""Monodromy pairings of degenerating Jacobians, from dual graphs.

The package computes, in exact arithmetic: the cycle space of a metrized
dual graph, the monoid-valued monodromy pairing and its integer
specializations, component groups, the torsion / Betti / Hodge shadows of
the weight filtration with their unipotent monodromy operators, and a
brute-force-verifiable calculus of (variegated) extensions of finite abelian
groups.
"""

from .errors import (
    BudgetExceededError,
    DegeneratePairingError,
    InputFormatError,
    InvalidCurveError,
    MonopairError,
)
from .graphs import (
    CycleBasis,
    Edge,
    MonoidVector,
    TropicalCurve,
    betti_number,
    curve_from_dict,
    curve_to_dict,
    cycle_basis,
    validate,
)
from .pairing import (
    IntSymMatrix,
    PairingMatrix,
    component_group,
    curve_component_group,
    edge_pairing,
    is_positive_definite,
    pairing_matrix,
    specialize,
)
from .realizations import (
    HodgeTable,
    MonodromyOperator,
    WeightDims,
    hodge_table,
    monodromy_weight_check,
    picard_lefschetz,
    torsion_dims,
    weight_dims,
)
from .extpan import (
    Cocycle,
    ExtClass,
    FinAbGroup,
    TwistedGroup,
    VariegatedClass,
    act,
    baer_sum,
    class_of,
    difference,
    ext1_classes,
    ext1_order,
    extpan_fiber,
    parse_group_spec,
    pushforward,
    split_class,
    torsor_report,
)

__version__ = "0.1.0"
