"""Sparse-classifier recovery with l1-constrained support vector machines.

The package fits a sparse separating direction from sign-labelled Gaussian
samples three ways (hinge loss over the l1 ball, hinge loss over the l1/l2
intersection, and a closed-form linear maximizer over that intersection),
evaluates the matching non-asymptotic error and sample-size bounds, and wraps
both in a seeded sweep harness with CSV output.
"""

from .model import (RngSeed, SparseClassifier, TrainingSet, as_generator, benchmark_classifier,
                    generate_training_set, hinge_objective, load_classifier, load_training_set,
                    make_random_classifier, save_classifier, save_training_set)
from .geometry import ConstraintSet, max_linear_l1_l2, project_l1, project_l1_l2, project_l2
from .solvers import (RecoveryError, SolverConfig, SolverResult, recovery_error,
                      solve_l1_l2_svm, solve_l1_svm, solve_one_bit_cs)
from .theory import (BoundReport, ConcentrationBound, HypothesisWarning, OverlapCoords,
                     bound_report, expected_fa_a, expected_fa_w, gaussian_max_norm_bounds,
                     hinge_gaussian_integral, monte_carlo_fa, proof_constant_057,
                     thm1_bound, thm2_lower_bound, thm3_error_bound, thm3_failure_prob,
                     thm3_sample_size, thm8_bound, write_bound_reports)
from .sweeps import (METHODS, SweepRow, SweepSpec, default_d_sweep_spec, default_m_sweep_spec,
                     default_r_sweep_spec, emit_bound_overlay, enumerate_sweep_points, run_sweep,
                     write_sweep_rows)

__version__ = "0.1.0"

__all__ = [
    "RngSeed", "SparseClassifier", "TrainingSet", "ConstraintSet", "as_generator",
    "benchmark_classifier", "make_random_classifier",
    "generate_training_set", "hinge_objective", "save_training_set", "load_training_set",
    "save_classifier", "load_classifier",
    "project_l1", "project_l2", "project_l1_l2",
    "max_linear_l1_l2",
    "SolverConfig", "SolverResult", "RecoveryError", "solve_l1_svm", "solve_l1_l2_svm",
    "solve_one_bit_cs", "recovery_error",
    "OverlapCoords", "ConcentrationBound", "BoundReport", "HypothesisWarning",
    "expected_fa_a", "expected_fa_w", "hinge_gaussian_integral", "thm2_lower_bound",
    "proof_constant_057", "thm1_bound", "thm3_sample_size", "thm3_error_bound",
    "thm3_failure_prob", "thm8_bound", "monte_carlo_fa", "gaussian_max_norm_bounds",
    "bound_report", "write_bound_reports",
    "METHODS", "SweepSpec", "SweepRow", "default_r_sweep_spec",
    "default_m_sweep_spec", "default_d_sweep_spec", "run_sweep", "enumerate_sweep_points",
    "emit_bound_overlay", "write_sweep_rows",
]
