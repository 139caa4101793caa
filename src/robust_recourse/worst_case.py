"""Closed-form worst-case probabilities of the unfavorable outcome.

The future classifier parameters are a random vector with nominal mean
``m``, nominal covariance ``S`` and an ambiguity radius ``rho`` measured in
the Gelbrich (Bures-Wasserstein) metric on moment pairs.  For a candidate
action ``x``, everything reduces to three scalars:

    a = -m^T x,   b = sqrt(x^T S x),   c = rho * ||x||_2.

Two ambiguity regimes are supported:

* nonparametric: all distributions whose moments lie in the Gelbrich ball
  (a Chebyshev/Cantelli-type bound governs the tail), and
* gaussian: only Gaussian distributions with such moments.

Both worst-case probabilities follow from inverting the corresponding
worst-case value-at-risk curve in the risk level beta (the curves live with
the test oracles).  closed_form is the one copy of the formulas from
(a, b, c) to value and partials.  objective._component_stats computes
(a, b, c) at the rows of a block and applies the chain rule; where
a + c >= 0 the closed forms do not apply, and the evaluator reports
InfeasibleMargin instead of a value.
"""

import math

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])  # NumPy has no erfc


def closed_form(a, b, c, gaussian: bool):
    """Worst-case probability at a + c < 0 and its partials in (a, b, c),
    elementwise over arrays (or plain floats) a, b, c.

    Returns (value, outer, d_a, d_b, d_c); the derivative of the value along
    any direction is outer * (d_a*a' + d_b*b' + d_c*c').  With
    s = sqrt(a^2 + b^2 - c^2):

    * nonparametric: value t^2, clamped to at most 1 against roundoff, and
      outer 2t, where t = (-a*c + b*s) / (a^2 + b^2) and d_* are t's partials;
    * gaussian: value 1 - Phi(g), evaluated through erfc so deep tails keep
      their magnitude, and outer -pdf(g), where g = (a^2 - c^2) / (-a*b + c*s)
      and d_* are g's partials.
    """
    # a + c < 0 implies a^2 >= c^2, so analytically a^2 + b^2 - c^2 >= b^2 > 0;
    # clamp against roundoff only
    s = np.sqrt(np.maximum(a * a + b * b - c * c, 0.0))
    if gaussian:
        Ng = a * a - c * c
        Dg = -a * b + c * s
        g = Ng / Dg
        dg_da = (2.0 * a * Dg - Ng * (-b + a * c / s)) / (Dg * Dg)
        dg_db = -Ng * (-a + b * c / s) / (Dg * Dg)
        dg_dc = (-2.0 * c * Dg - Ng * (s - c * c / s)) / (Dg * Dg)
        pdf = np.exp(-0.5 * g * g) / _SQRT2PI
        return 0.5 * _erfc(g / math.sqrt(2.0)), -pdf, dg_da, dg_db, dg_dc
    D = a * a + b * b
    N = -a * c + b * s
    t = N / D
    dN_da = -c + a * b / s
    dN_db = s + b * b / s
    dN_dc = -a - b * c / s
    dt_da = (dN_da * D - 2.0 * a * N) / (D * D)
    dt_db = (dN_db * D - 2.0 * b * N) / (D * D)
    dt_dc = dN_dc / D
    return np.minimum(t * t, 1.0), 2.0 * t, dt_da, dt_db, dt_dc
