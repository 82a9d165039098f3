"""The package's public names, part of its behaviour contract."""

import inspect

import rfso_secrecy

EXPORTS = {
    # channels
    "DggLink", "EtaMuLink", "RngStream", "TURBULENCE_PRESETS", "dgg_cdf",
    "dgg_from_preset", "dgg_pdf", "dgg_sample", "dgg_sample_inverse_cdf",
    "eta_mu_cdf", "eta_mu_pdf", "eta_mu_sample", "special_case",
    # dualhop
    "DualHopChannel", "instantaneous_sc_scenario1",
    "instantaneous_sc_scenario2", "min_combine_cdf", "min_combine_pdf",
    # errors
    "AccuracyError", "ClampExcessWarning", "ConfigError",
    "DegenerateParameterError", "ParameterError", "PoleCollisionError",
    "RfsoError", "UnsupportedCaseError",
    # montecarlo
    "MCEstimate", "estimate_sop1", "estimate_sop2", "estimate_spsc1",
    "estimate_spsc2",
    # presets
    "FigurePreset", "SweepSpec", "figure_preset",
    # secrecy
    "Scenario1Config", "Scenario2Config", "sop1_asymptotic",
    "sop1_exact_quadrature", "sop1_lower", "sop2_asymptotic",
    "sop2_exact_quadrature", "sop2_lower", "spsc1", "spsc2",
    # specfun
    "EvalOptions", "MeijerGSpec", "MellinBarnesIntegral", "delta_expand",
    "delta_expand_list", "log_gamma_complex", "meijer_g",
}


def test_package_exports_are_frozen():
    """No public name is added to or dropped from the package namespace
    (submodules aside), whether or not the package itself calls it."""
    public = {name for name, value in vars(rfso_secrecy).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == EXPORTS
