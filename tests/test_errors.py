"""Bad caller input raises ParamError, which the CLI maps to exit code 2."""

import pytest

from calibmix import (ParamError, interval_coverage, nc_chisq1_pdf, ncf_cdf,
                      ordering_probe, probability_region, variance_mixture,
                      von_neumann_ratio)

SITES = {
    "interval_prob-order": lambda: variance_mixture(5, 1.0).interval_prob(2.0, 1.0),
    "probability_region-coverage": lambda: probability_region(
        variance_mixture(5, 1.0), 1.5),
    "interval_coverage-order": lambda: interval_coverage(
        variance_mixture(5, 1.0), 2.0, 1.0),
    "ordering_probe-family": lambda: ordering_probe("nope", [1.0], [1.0], nu=5),
    "ordering_probe-grid": lambda: ordering_probe(
        "tsq-in-lambda", [2.0, 1.0], [1.0], nu=5),
    "ordering_probe-u_grid": lambda: ordering_probe(
        "tsq-in-lambda", [1.0], [], nu=5),
    "nc_chisq1_pdf-noncentrality": lambda: nc_chisq1_pdf(1.0, -1.0),
    "ncf_cdf-noncentrality": lambda: ncf_cdf(1.0, 1, 5, -1.0),
    "von_neumann_ratio-b_kind": lambda: von_neumann_ratio(
        [1.0, -1.0, 0.5], b_kind="nope"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_caller_input_error_is_param_error(site):
    with pytest.raises(ParamError):
        SITES[site]()
