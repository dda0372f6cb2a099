"""Douglas-Rachford splitting with matrix-inequality convergence certificates.

The library has three layers: a small proximal-operator toolbox and the DRS /
relaxed-ADMM iterations (``prox``, ``splitting``), the certificate algebra for
the three function-class regimes (``funclass``, ``certify``), and a validated
LAPACK-backed symmetric eigensolver plus the linear-rate optimizer
(``sdplite``).  ``cli`` exposes problem generators and a command-line harness.
"""

from .funclass import FunctionClass, qc_matrix, prox_qc_matrix, estimate_class_quadratic
from .prox import (
    ProxOperator,
    prox_l1,
    prox_affine_indicator,
    prox_quadratic,
    prox_zero,
    recover_subgradient,
)
from .splitting import (
    DrsParams,
    Trace,
    TraceRecord,
    drs_run,
    admm_run,
    lyapunov_series,
    solve_reference,
    write_trace_csv,
)
from .certify import (
    CertCase,
    Certificate,
    build_W0,
    build_W1,
    build_Q1,
    build_Q2,
    build_Qk,
    check_certificate,
    make_certificate,
    analytic_params_case1,
    analytic_params_case2,
    suggest_lambda_case2,
    rate_bound,
    kron_quadratic_form,
)
from .sdplite import (
    SweepCell,
    eig_sym,
    max_eig,
    optimize_rate,
    sweep_heatmap,
    write_heatmap_csv,
)

__all__ = [
    "FunctionClass", "qc_matrix", "prox_qc_matrix", "estimate_class_quadratic",
    "ProxOperator", "prox_l1", "prox_affine_indicator", "prox_quadratic",
    "prox_zero", "recover_subgradient",
    "DrsParams", "Trace", "TraceRecord", "drs_run", "admm_run",
    "lyapunov_series", "solve_reference", "write_trace_csv",
    "CertCase", "Certificate", "build_W0", "build_W1", "build_Q1", "build_Q2",
    "build_Qk", "check_certificate", "make_certificate",
    "analytic_params_case1", "analytic_params_case2", "suggest_lambda_case2",
    "rate_bound", "kron_quadratic_form",
    "SweepCell", "eig_sym", "max_eig", "optimize_rate",
    "sweep_heatmap", "write_heatmap_csv",
]

__version__ = "0.1.0"
