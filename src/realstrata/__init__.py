"""Exact-arithmetic detector for real members of equisingular strata of
polarized K3 models with ADE singularities.

The package decides, for a polarization square h^2 and a configuration of
ADE singularities, whether the corresponding stratum contains a real
representative, by searching for involutive skew-automorphisms acting as
a sign on the transcendental side.  All arithmetic is exact: the engine
computes in integers (each form held at the scale of its exponent),
fractions appear only at the display and JSON boundary and in the
independent oracle, and no floats enter any decision.

Importing the package loads none of its modules; import the entry points
from them:
  realstrata.detector.detect          -- the full decision for one stratum
  realstrata.lattices.polarized_disc  -- discriminant form of the polarized
                                         ADE lattice
  realstrata.lattices.RootSpec        -- ADE configurations
  realstrata.fqf.FiniteQuadraticForm  -- finite quadratic forms
  realstrata.oracle                   -- independent brute-force checks
  realstrata.cli.main                 -- the `realstrata` command
"""

__version__ = "1.0.0"
