"""The engine against classic LMS theory, independently of its own step loop.

On a plant in the span of the filter's own frozen bank, y = w*.z(x) + v,
with weights started at w*, LMS settles at the excess mean-square error

    EMSE = mu sigma_v^2 tr(R) / (2 - mu tr(R)),   R = E[z z^T]

(Haykin, *Adaptive Filter Theory*; for RFF-KLMS, Bouboulis, Pougkakiotis and
Theodoridis, arXiv:1606.03685). Starting at w* leaves no transient to wait
out, so the second half of a short stream is already steady state.
"""

import math

import numpy as np
import pytest

from oracles import make_rng, span_plant
from rfflms import AdaptiveRffLms, sample_feature_bank

RUNS, FEATURES, BANDWIDTH, NOISE_VAR = 32, 48, 0.95, 0.1
HORIZON, WINDOW = 8000, 4000


# the larger step size makes the denominator 2 - mu tr(R) matter: there
# mu tr(R) is about 0.7
@pytest.mark.parametrize("mu", [0.01, 0.03])
def test_steady_state_emse_matches_lms_misadjustment(mu):
    banks = [sample_feature_bank(BANDWIDTH, FEATURES, 2, seed=1000 + r) for r in range(RUNS)]
    filt = AdaptiveRffLms(banks, mu, 0.0, 0.0)
    w_star = make_rng(7, "w_star").standard_normal((RUNS, FEATURES)) / math.sqrt(FEATURES)
    filt.weights[:] = w_star
    inputs, targets, clean, trace = span_plant(filt, w_star, NOISE_VAR, HORIZON, seed=11)
    preds, _ = filt.run(inputs, targets)
    assert not filt.diverged_at.any()
    measured = np.mean((clean - preds)[:, -WINDOW:] ** 2, axis=1)
    theory = mu * NOISE_VAR * trace / (2.0 - mu * trace)
    ratios = measured / theory
    ratio = ratios.mean()
    se = ratios.std(ddof=1) / math.sqrt(RUNS)
    assert abs(ratio - 1.0) < 4.0 * se, (ratio, se)
