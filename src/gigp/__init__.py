"""Count-data model with a generalized inverse Gaussian mixing law.

Distribution evaluation and sampling, Young-diagram empirical processes,
limit-shape scaling and convergence diagnostics, fluctuation statistics,
Poisson approximation in the bounded-B regime, parameter fitting and
goodness of fit, and a Boltzmann integer-partition demo.
"""

from .chaotic import (PoissonApprox, increment_rates, integrated_rate,
                      poisson_gof_experiment, poisson_rate)
from .diagram import (FrequencyTable, martingale_w, scaled_y, table_from_sample,
                      young_y)
from .distribution import (GigpParams, ccdf, cdf, gig_density, log_pmf,
                           mean_asymptotic, mean_exact, pmf, sample,
                           sample_values, tail_pmf_asymptotic,
                           theta_from_mean, validate)
from .fitgof import (GofReport, TailFit, alpha_from_b, estimate_theta,
                     fit_tail_line, ks_normality, pearson_chi2,
                     pointwise_z_test)
from .partition import (KAPPA, PartitionConfig, calibrate, partition_shape,
                        sample_partition)
from .shape import (ScalingPair, ShapeReport, boundary_moments, classify_regime,
                    expected_shape_deviation, limit_cov, limit_shape, scaling_a,
                    scaling_b, sup_distance, tail_transform, upsilon)
from .specfun import (bessel_k_ratio, chi2_sf, log_bessel_k, normal_cdf,
                      regularized_gamma_q, upper_incomplete_gamma)

__version__ = "0.1.0"

__all__ = [
    "GigpParams", "validate", "pmf", "log_pmf", "cdf", "ccdf",
    "mean_exact", "mean_asymptotic", "theta_from_mean", "gig_density",
    "tail_pmf_asymptotic", "sample", "sample_values",
    "FrequencyTable", "table_from_sample", "young_y",
    "scaled_y", "boundary_moments", "martingale_w",
    "ScalingPair", "ShapeReport", "scaling_a", "scaling_b",
    "classify_regime", "limit_shape", "upsilon", "limit_cov",
    "tail_transform", "sup_distance", "expected_shape_deviation",
    "PoissonApprox", "poisson_rate", "increment_rates", "integrated_rate",
    "poisson_gof_experiment",
    "TailFit", "GofReport", "fit_tail_line", "alpha_from_b",
    "estimate_theta", "pearson_chi2", "pointwise_z_test", "ks_normality",
    "KAPPA", "PartitionConfig", "calibrate", "sample_partition",
    "partition_shape",
    "log_bessel_k", "bessel_k_ratio", "upper_incomplete_gamma",
    "regularized_gamma_q", "normal_cdf", "chi2_sf",
    "__version__",
]
