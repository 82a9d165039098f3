"""Monte Carlo estimators for every secrecy metric.

These are the independent oracles for the closed forms: the event logic goes
through the instantaneous secrecy-capacity functions (scenario 2) or the raw
SNR comparison (scenario 1), never through the secrecy module's algebra.

An estimator is data: its steps (sampler, data, fold), in the order its
stream draws them.  A step draws a link's SNRs (a channels._Sampler: its
generator calls, then its map of data, the link or the link's inverse-CDF
table) and folds them into the cell's partial output, which the fold of
the last step turns into the hit count.  A table is built with the steps,
so a link no table spans fails there, and the walk cannot fail.
_count_hits walks any number of cells that start from one stream as a
prefix tree: cells whose next steps make the same generator calls from the
same state share one draw, and data with the same key share one map, so
every distinct call is made once and every value is the one the cell gets
alone.  The public estimators are this walk on one cell.

Counting is Bernoulli, so splitting a run across k disjoint sub-streams and
summing the integer event counts reproduces the concatenated run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .channels import (_DGG, _DGG_INVERSE_CDF, _ETA_MU, RngStream,
                       _cdf_table, _draw)
from .dualhop import instantaneous_sc_scenario2
from .errors import ParameterError
from .secrecy import Scenario1Config, Scenario2Config

__all__ = [
    "MCEstimate",
    "estimate_sop1",
    "estimate_sop2",
    "estimate_spsc1",
    "estimate_spsc2",
]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MCEstimate:
    """A Bernoulli estimate with its standard error and 95% interval."""

    value: float
    std_error: float
    n_samples: int
    ci95_low: float
    ci95_high: float

    @classmethod
    def from_counts(cls, hits: int, n: int) -> "MCEstimate":
        p = hits / n
        se = sqrt(p * (1.0 - p) / n)
        if hits < 10 or n - hits < 10:
            # Wilson interval: the normal interval collapses near 0 and 1
            z2 = _Z95 * _Z95
            mid = (p + z2 / (2 * n)) / (1 + z2 / n)
            half = (_Z95 * sqrt(p * (1 - p) / n + z2 / (4 * n * n))
                    / (1 + z2 / n))
            lo, hi = mid - half, mid + half
        else:
            lo, hi = p - _Z95 * se, p + _Z95 * se
        return cls(value=p, std_error=se, n_samples=n,
                   ci95_low=max(0.0, min(lo, p)),
                   ci95_high=min(1.0, max(hi, p)))


def _split(n: int, streams: int):
    base, extra = divmod(n, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def _first(_, snr):
    return snr


def _hits(event) -> int:
    return int(np.count_nonzero(event))


def _fso(link, inverse_cdf: bool) -> tuple:
    """The sampler and data of an FSO step: the physical draw of the link,
    or the inverse-CDF draw of its table, built here."""
    if inverse_cdf:
        return _DGG_INVERSE_CDF, _cdf_table(link)
    return _DGG, link


def _sop1(cfg: Scenario1Config, exact_event: bool = False,
          inverse_cdf_fso: bool = False) -> tuple:
    phi1 = cfg.phi1
    shift = (phi1 - 1.0) if exact_event else 0.0
    return ((_ETA_MU, cfg.rf_main, _first),
            (*_fso(cfg.fso_main, inverse_cdf_fso), np.minimum),
            (_ETA_MU, cfg.rf_eve,
             lambda g_d, g_re: _hits(g_d <= phi1 * g_re + shift)))


def _sop2(cfg: Scenario2Config, exact_event: bool = False,
          inverse_cdf_fso: bool = False) -> tuple:
    phi2, rate = cfg.phi2, cfg.target_rate
    main = _fso(cfg.fso_main, inverse_cdf_fso)
    eve = _fso(cfg.fso_eve, inverse_cdf_fso)
    if exact_event:
        return ((_ETA_MU, cfg.rf_main, _first),
                (*main, lambda g_r0, g_d0: (g_r0, g_d0)),
                (*eve, lambda hop, g_de: _hits(
                    instantaneous_sc_scenario2(*hop, g_de) < rate)))
    return ((_ETA_MU, cfg.rf_main, lambda _, g_r0: g_r0 <= phi2 - 1.0),
            (*main, lambda rf_out, g_d0: (rf_out, g_d0)),
            (*eve, lambda hop, g_de: _hits(
                hop[0] | (hop[1] <= phi2 * g_de))))


def _spsc1(cfg: Scenario1Config, inverse_cdf_fso: bool = False) -> tuple:
    return ((_ETA_MU, cfg.rf_main, _first),
            (*_fso(cfg.fso_main, inverse_cdf_fso), np.minimum),
            (_ETA_MU, cfg.rf_eve, lambda g_d, g_re: _hits(g_d > g_re)))


def _spsc2(cfg: Scenario2Config, inverse_cdf_fso: bool = False) -> tuple:
    return ((*_fso(cfg.fso_main, inverse_cdf_fso), _first),
            (*_fso(cfg.fso_eve, inverse_cdf_fso),
             lambda g_d0, g_de: _hits(g_d0 > g_de)))


def _walk(gen: np.random.Generator, n: int, cells: list, depth: int,
          results: list):
    """Take each cell (index, steps, partial output) through steps[depth],
    then on depth first, with gen where the cells' earlier draws left it.

    The cells are grouped by the generator calls of their next step; each
    group's calls are made once, every group but the first from the state
    saved before the first, and its draw is mapped once per distinct key
    of the steps' data.  A cell's fold drops the partial output it
    consumed, and the SNRs are freed before the walk descends.  A finished
    cell's count lands in results[index]."""
    branches = {}
    for cell in cells:
        sampler, data, _ = cell[1][depth]
        branches.setdefault((sampler.draws, sampler.shape(data)),
                            []).append(cell)
    cells.clear()   # the branches now hold the only partial outputs
    state = gen.bit_generator.state if len(branches) > 1 else None
    for k, (draws, shape) in enumerate(list(branches)):
        if k:
            gen.bit_generator.state = state
        branch = branches.pop((draws, shape))
        maps = {}
        for _, steps, _ in branch:
            sampler, data, _ = steps[depth]
            key = sampler.snr, sampler.key(data)
            if key not in maps:
                maps[key] = sampler.snr, data
        snrs = _draw(gen, draws, shape, n, maps)
        deeper = []
        for index, steps, partial in branch:
            sampler, data, fold = steps[depth]
            snr = snrs[sampler.snr, sampler.key(data)]
            if depth + 1 == len(steps):
                results[index] = fold(partial, snr)
            else:
                deeper.append((index, steps, fold(partial, snr)))
        del branch, snrs, partial, snr
        if deeper:
            _walk(gen, n, deeper, depth + 1, results)


def _count_hits(cells, n: int, rng: RngStream) -> list:
    """Each cell's hit count on n >= 1 draws from rng's stream; a cell is
    an estimator's steps (_sop1, _sop2, _spsc1, _spsc2), and every cell
    gets the count it gets alone."""
    results = [None] * len(cells)
    _walk(rng.generator, n, [(i, steps, None)
                             for i, steps in enumerate(cells)], 0, results)
    return results


def _estimate(cell, args: tuple, n: int, rng: RngStream,
              n_streams: int) -> MCEstimate:
    """The estimate over n_streams substreams of rng of the cell whose
    steps cell(*args) builds, once the counts are checked; the substreams
    share the steps, so each table is built once."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if n_streams < 1:
        raise ParameterError("n_streams must be >= 1")
    steps = cell(*args)
    hits = sum(_count_hits([steps], ni, sub)[0] for sub, ni in
               zip(rng.substreams(n_streams), _split(n, n_streams)) if ni)
    return MCEstimate.from_counts(hits, n)


def estimate_sop1(cfg: Scenario1Config, n: int, rng: RngStream,
                  exact_event: bool = False, n_streams: int = 1,
                  inverse_cdf_fso: bool = False) -> MCEstimate:
    """Outage frequency for scenario 1.

    exact_event=False counts the lower-bound event (no additive shift),
    which is what the closed-form bound computes; True counts the true
    outage event.  inverse_cdf_fso switches the FSO draw to the analytic
    inverse CDF to separate sampler defects from secrecy-algebra defects.
    """
    return _estimate(_sop1, (cfg, exact_event, inverse_cdf_fso), n, rng,
                     n_streams)


def estimate_sop2(cfg: Scenario2Config, n: int, rng: RngStream,
                  exact_event: bool = False, n_streams: int = 1,
                  inverse_cdf_fso: bool = False) -> MCEstimate:
    """Outage frequency for scenario 2.

    The exact event evaluates the instantaneous secrecy capacity of the DF
    pair directly; the lower-bound event drops the additive shift on both
    component comparisons.
    """
    return _estimate(_sop2, (cfg, exact_event, inverse_cdf_fso), n, rng,
                     n_streams)


def estimate_spsc1(cfg: Scenario1Config, n: int, rng: RngStream,
                   n_streams: int = 1, inverse_cdf_fso: bool = False
                   ) -> MCEstimate:
    """Frequency of strictly positive secrecy capacity for scenario 1."""
    return _estimate(_spsc1, (cfg, inverse_cdf_fso), n, rng, n_streams)


def estimate_spsc2(cfg: Scenario2Config, n: int, rng: RngStream,
                   n_streams: int = 1, inverse_cdf_fso: bool = False
                   ) -> MCEstimate:
    """Frequency of strictly positive secrecy capacity for scenario 2."""
    return _estimate(_spsc2, (cfg, inverse_cdf_fso), n, rng, n_streams)
