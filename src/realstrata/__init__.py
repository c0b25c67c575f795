"""Exact-arithmetic detector for real members of equisingular strata of
polarized K3 models with ADE singularities.

The package decides, for a polarization square h^2 and a configuration of
ADE singularities, whether the corresponding stratum contains a real
representative, by searching for involutive skew-automorphisms acting as
a sign on the transcendental side.  All arithmetic is exact: the engine
computes in integers (each form held at the scale of its exponent),
fractions appear only at the display and JSON boundary and in the
independent oracle, and no floats enter any decision.

Main entry points:
  detect            -- run the full decision pipeline for one stratum
  polarized_disc    -- discriminant form of the polarized ADE lattice
  FiniteQuadraticForm / RootSpec -- the core data types
"""

from __future__ import annotations

from .detector import (DetectionReport, KernelCandidate, check_candidate,
                       detect, enumerate_a_squares, kernel_candidates,
                       model_name, parse_model)
from .fqf import (FiniteQuadraticForm, Subgroup, cyclic_form, direct_sum_all,
                  homogeneous_decomposition, trivial_form, u_block, v_block)
from .isotropy import (GluingCase, SplitDecomposition, classify_gluing_case,
                       is_isotropic, split_off_cyclic, subquotient)
from .lattices import (DiscAutomorphism, PolarizedForm, RootSpec,
                       binary_autos, cartan_matrix, disc_involutions,
                       disc_of_gram, disc_root, maximizing_has_skew,
                       polarized_disc)
from .nikulin import (SquareClass, ambient_with_a_block, det_p,
                      embedding_clauses, embeds_into_big_L, theta_vector)

__version__ = "1.0.0"

__all__ = [
    "DetectionReport", "DiscAutomorphism", "FiniteQuadraticForm",
    "GluingCase", "KernelCandidate", "PolarizedForm", "RootSpec",
    "SplitDecomposition", "SquareClass", "Subgroup",
    "ambient_with_a_block", "binary_autos", "cartan_matrix",
    "check_candidate", "classify_gluing_case", "cyclic_form", "det_p",
    "detect", "direct_sum_all", "disc_involutions", "disc_of_gram",
    "disc_root", "embedding_clauses", "embeds_into_big_L",
    "enumerate_a_squares", "homogeneous_decomposition", "is_isotropic", "kernel_candidates",
    "maximizing_has_skew", "model_name", "parse_model", "polarized_disc",
    "split_off_cyclic", "subquotient", "theta_vector", "trivial_form",
    "u_block", "v_block", "__version__",
]
