"""Statistical anomalies of directly calibrated measurements.

Fits calibration lines, evaluates the exact mixture laws of calibrated
sample means, variances and t statistics, computes corrected probability
regions and power tables, verifies the theory by seeded Monte Carlo, and
demonstrates the blindness of conventional diagnostics to
calibration-induced dependence.
"""

from .errors import AccuracyError, CalibmixError, DataError, ParamError
from .model import (
    CalibrationData,
    CalibrationFit,
    CovarianceStructure,
    DerivedParams,
    MixtureParams,
    calibration_data_from_csv,
    correlation_params,
    covariance_structure,
    derive_params,
    fit_calibration,
    unconditional_mean_cov,
)
from .quadrature import QuadSpec
from .mixtures import (
    MeanMixture,
    SignedTMixture,
    TsqMixture,
    VarianceMixture,
    mean_mixture,
    signed_t_mixture,
    tsq_mixture,
    variance_mixture,
)
from .special import nc_chisq1_pdf, ncf_cdf
from .moments import (
    MomentSummary,
    ProbRegion,
    SampleVarianceMoments,
    expected_sample_variance,
    interval_coverage,
    mean_moment_rows,
    mean_moments,
    probability_region,
)
from .power import (
    OrderingReport,
    PowerCell,
    operating_characteristics,
    ordering_probe,
    power_table,
    power_table_payload,
    tsq_critical,
)
from .simulate import (
    CalibrationDesign,
    McConfig,
    McSummary,
    draw_calibrated_sample,
    draw_calibrated_samples,
    ks_band,
    ks_distance,
    ks_distance_two_sample,
    ks_two_sample_band,
    mc_config_from_json,
    mc_config_to_json,
    mc_inconsistency_curve,
    mc_statistic_distribution,
    substream,
)
from .diagnostics import (
    BlindnessReport,
    DiagnosticReport,
    ResidualSet,
    blindness_suite,
    blom_weights,
    diagnostic_report,
    moment_ratios,
    residual_diagnostics,
    shapiro_type_w,
    von_neumann_ratio,
)
from .oneway import (
    AnovaDecomposition,
    FPower,
    GroupVarianceBias,
    HomoscedasticityCheck,
    OneWayDesign,
    VarianceTests,
    decompose,
    f_power,
    group_variance_bias,
    grouped_data_from_csv,
    homoscedasticity_condition,
    variance_tests,
)

__version__ = "0.1.0"
