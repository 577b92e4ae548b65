"""Numerical engine for metric connections with skew torsion on oriented
cohomogeneity-one 4-manifolds: curvature decomposition in the self-dual
splitting, Einstein-with-torsion and Einstein-Weyl residuals, curvature
integrals for the Euler characteristic and signature, and instanton
diagnostics on the bundle of self-dual 2-forms."""

from .frame import KForm, hodge_star, ricci_contraction
from .charts import (
    ChartError, InvariantChart, InvariantForm, bonneau_chart, chart_and_torsion,
    flat_torsion, flat_torus_chart, product_chart, random_chart,
    random_one_form, random_torsion, round_s4_chart,
)
from .connections import (
    AffineConnection, curvature, curvature_via_eq1,
    exterior_ops, identity_suite, levi_civita, with_skew_torsion,
)
from .evaluation import ConnectionData, Evaluation, Grids
from .decomposition import decompose_point, einstein_residual, einstein_tensor_point
from .weyl import einstein_weyl_residual, torsion_weyl_roundtrip, weyl_connection
from .topology import TopologyReport, hitchin_thorpe_report, integrate_invariant, report_grids
from .instanton import (
    GaugeProbeReport, InducedConnection, gauge_equivalence_probe,
    induced_lambda_plus, killing_residual, self_duality_residual,
    yang_mills_density_check,
)
from .moduli import InvariantACS, asymptotic_check, nijenhuis_norm, r_coordinate

__version__ = "0.1.0"
