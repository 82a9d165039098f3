"""Decode-and-forward combination of the two hops.

The end-to-end SNR of a DF relay is the minimum of the hop SNRs, so its
CDF is 1 - S_rf S_fso and its density f_rf S_fso + f_fso S_rf, S the hop
survivals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DggLink, EtaMuLink, dgg_pdf, dgg_survival, eta_mu_pdf
from .errors import ParameterError

__all__ = [
    "DualHopChannel",
    "min_combine_cdf",
    "min_combine_pdf",
    "instantaneous_sc_scenario1",
    "instantaneous_sc_scenario2",
]


@dataclass(frozen=True)
class DualHopChannel:
    """Source-relay (eta-mu) and relay-destination (DGG) pair."""

    rf: EtaMuLink
    fso: DggLink


def min_combine_cdf(channel: DualHopChannel, gamma) -> np.ndarray:
    """CDF of min(rf SNR, fso SNR), evaluated in the expanded form
    1 - survival_rf * survival_fso."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if np.any(g < 0):
        raise ParameterError("gamma must be >= 0")
    out = 1.0 - channel.rf.survival(g) * dgg_survival(channel.fso, g)
    return out if np.ndim(gamma) else float(out[0])


def min_combine_pdf(channel: DualHopChannel, gamma) -> np.ndarray:
    """Density of min(rf SNR, fso SNR):
    f_rf * survival_fso + f_fso * survival_rf."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if np.any(g <= 0):
        raise ParameterError("gamma must be > 0")
    out = (eta_mu_pdf(channel.rf, g) * dgg_survival(channel.fso, g)
           + dgg_pdf(channel.fso, g) * channel.rf.survival(g))
    return out if np.ndim(gamma) else float(out[0])


def instantaneous_sc_scenario1(gamma_d, gamma_re) -> np.ndarray:
    """Secrecy rate of the combined link against an RF-side eavesdropper:
    [log2(1+gamma_d) - log2(1+gamma_re)]^+ in bits/s/Hz."""
    gd = np.asarray(gamma_d, dtype=float)
    ge = np.asarray(gamma_re, dtype=float)
    if not (np.all(gd >= 0) and np.all(ge >= 0)):
        raise ParameterError("SNRs must be >= 0 (and not NaN)")
    return np.maximum(0.0, np.log2(1.0 + gd) - np.log2(1.0 + ge))


def instantaneous_sc_scenario2(gamma_r0, gamma_d0, gamma_de) -> np.ndarray:
    """Secrecy rate with an FSO-side eavesdropper: the worse of the clean
    first hop's rate and the wiretapped second hop's secrecy rate (the 1/2
    accounts for the two-slot relaying), in bits/s/Hz."""
    gr = np.asarray(gamma_r0, dtype=float)
    gd = np.asarray(gamma_d0, dtype=float)
    ge = np.asarray(gamma_de, dtype=float)
    if not (np.all(gr >= 0) and np.all(gd >= 0) and np.all(ge >= 0)):
        raise ParameterError("SNRs must be >= 0 (and not NaN)")
    t_s = 0.5 * np.log2(1.0 + gr)
    t_r = np.maximum(0.0, 0.5 * (np.log2(1.0 + gd) - np.log2(1.0 + ge)))
    return np.minimum(t_s, t_r)
