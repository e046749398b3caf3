"""Empirical complexity estimation: polynomial orders from measurements.

The paper's Table 1 reports asymptotic round bounds; the shape
certificate (``tests/test_reproduction_certificate.py``) checks our
measured rounds *grow like* those bounds by fitting ``rounds ≈ c·n^α``
on log–log axes and comparing α against the stated exponent.  Ordinary
least squares on ``log`` values is entirely adequate at simulation scale
(prefer the simple correct method, then profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = ["PowerFit", "fit_power_law"]


@dataclass(frozen=True)
class PowerFit:
    """Result of fitting ``y = c·x^alpha`` by log–log least squares.

    ``r2`` is the coefficient of determination in log space — how much of
    the variance a pure power law explains.
    """

    alpha: float
    log_c: float
    r2: float

    def predict(self, x: float) -> float:
        """Model prediction at ``x``."""
        return math.exp(self.log_c) * x**self.alpha


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerFit:
    """Fit exponent ``alpha`` of ``y ~ x^alpha`` from positive samples."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigurationError("need at least two (x, y) samples")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ConfigurationError("power-law fitting needs positive values")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    alpha, log_c = np.polyfit(lx, ly, 1)
    pred = alpha * lx + log_c
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerFit(alpha=float(alpha), log_c=float(log_c), r2=r2)

