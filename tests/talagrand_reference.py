"""The transport-entropy constants written out in full, term by term, as
they stood before :func:`graphfp.talagrand_constants` was built on the
invariant-set constants. The tests hold the library to this formula."""

import math

import numpy as np

from graphfp.graph import estimate_tail_cutoff, min_weight_prefix
from graphfp.inequalities import TalagrandConstants


def _exp_safe(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def talagrand_constants(mu, cls, delta=0.5):
    weights = mu.weights
    phi = -np.log(mu.rho)
    phin = float(np.abs(phi).max())
    sup_mu, inf_mu = mu.sup, mu.inf

    norm_bound = (
        4.0 * (sup_mu / inf_mu) * cls.nu_sup**2
        + 4.0 * sup_mu
        + 2.0 * float(np.dot(weights.m, mu.rho * mu.rho))
    )
    n0 = estimate_tail_cutoff(weights, norm_bound, delta)
    mw = min_weight_prefix(weights, n0)

    c3 = min(
        0.5 * cls.nu_inf,
        0.25 * _exp_safe(-4.0 * phin / mw),
        mw / (4.0 * (2.0 * phin + 1.0)),
    )
    exp_term = _exp_safe(2.0 * phin / (c3 * mw)) / (2.0 * mw) if c3 > 0.0 else math.inf
    c4 = max(2.0 * cls.nu_sup, exp_term, (2.0 * phin + 2.0) / mw, 2.0 / mw)

    c5 = sup_mu / inf_mu
    c6 = (c3 / c4) * (inf_mu / sup_mu) if math.isfinite(c4) and c3 > 0.0 else 0.0
    big_t = math.log(4.0 * c5) / c6 if c6 > 0.0 else math.inf
    ratio = c4 / c3 if c3 > 0.0 else math.inf
    kappa = 2.0 * big_t * (1.0 + 2.0 * ratio * ratio)
    return TalagrandConstants(
        class_lower=float(c3),
        class_upper=float(c4),
        condition_ratio=float(c5),
        mixing_rate=float(c6),
        mixing_time=float(big_t),
        kappa=float(kappa),
        tail_cutoff=n0,
        min_prefix_weight=mw,
        norm_bound=float(norm_bound),
    )
