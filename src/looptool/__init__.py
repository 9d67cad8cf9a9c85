"""Exact loop invariants of cyclic covers from twisted gluing data."""

from .numberfield import ComplexBall, FieldElement, NumberField, QQ
from .laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from .circulant import BlockCirculant, block_diagonalize_check, \
    cover_blocks_from_symbolic
from .nzdata import PeripheralRows, TwistedNZData, normalize_unit
from .diagrams import (FeynmanDiagram, FlowAssignment, VertexFactorTable,
                       connected_multigraphs, enumerate_flows, loop_invariant,
                       weight_direct, weight_flow)
from .rootsum import (TorusSumSpec, av_exact, cyclic_resultant,
                      delta_basis_inverse, delta_power_sums, torus_sum_oracle)
from .powersum import (CoverPolynomial, asymptotic_fit_check, leading_asymptotic,
                       quad_to_delta_form, reconstruct_p)
from .knots import TaggedValue, fixture

__version__ = "0.1.0"

__all__ = [
    "BlockCirculant", "ComplexBall", "CoverPolynomial", "FeynmanDiagram",
    "FieldElement", "FlowAssignment", "LaurentMatrix", "LaurentPolynomial",
    "NumberField", "PeripheralRows", "QQ", "RationalFunction", "TaggedValue",
    "TorusSumSpec", "TwistedNZData", "VertexFactorTable",
    "asymptotic_fit_check", "av_exact", "block_diagonalize_check",
    "connected_multigraphs", "cover_blocks_from_symbolic", "cyclic_resultant",
    "delta_basis_inverse", "delta_power_sums", "enumerate_flows", "fixture",
    "leading_asymptotic", "loop_invariant", "normalize_unit",
    "quad_to_delta_form", "reconstruct_p", "torus_sum_oracle",
    "weight_direct", "weight_flow",
]
