"""Count-data model with a generalized inverse Gaussian mixing law.

Distribution evaluation and sampling, Young-diagram empirical processes,
limit-shape scaling and convergence diagnostics, fluctuation statistics,
Poisson approximation in the bounded-B regime, parameter fitting and
goodness of fit, and a Boltzmann integer-partition demo.

`import gigp` loads no submodule: each public name is imported from its
submodule the first time it is read, so a process pays only for the
submodules it uses.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "distribution": ("GigpParams", "validate", "pmf", "log_pmf", "ccdf", "mean_exact",
                     "mean_asymptotic", "theta_from_mean", "sample", "sample_values"),
    "diagram": ("FrequencyTable", "table_from_sample", "young_y"),
    "shape": ("ScalingPair", "ShapeReport", "scaling_a", "scaling_b", "classify_regime",
              "limit_shape", "upsilon", "limit_cov", "tail_transform", "sup_distance",
              "expected_shape_deviation"),
    "chaotic": ("PoissonApprox", "poisson_rate", "increment_rates", "integrated_rate",
                "poisson_gof_experiment"),
    "fitgof": ("TailFit", "GofReport", "fit_tail_line", "alpha_from_b", "pearson_chi2",
               "pointwise_z_test", "ks_normality"),
    "partition": ("KAPPA", "PartitionConfig", "calibrate", "sample_partition",
                  "partition_shape"),
    "specfun": ("log_bessel_k", "bessel_k_ratio", "upper_incomplete_gamma",
                "regularized_gamma_q", "normal_cdf", "chi2_sf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
