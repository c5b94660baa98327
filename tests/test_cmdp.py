"""The offline optimum against an independent ground truth: the slot-level CMDP.

``cmdp.cmdp_optimum`` optimizes over every policy of the primary-backlog
chain, backlog-dependent ones included, by a linear program; the oracle
optimizes over stationary (q, p) mixing in closed form or on a grid. The
tolerance is fixed from the solver's: feasibility to 1e-10 on constraints of
order one leaves the optimum within 1e-7. The random models keep
``lambda_pu`` at most 0.8 ``phi_nc``, so the chance of a backlog at the
truncation K = 300 is below 0.8**300 and cannot show at that tolerance.
"""

import numpy as np
import pytest

from coopsim import ModelParams, PowerSet, grid_search, optimal_two_point

pytest.importorskip("scipy")
from cmdp import cmdp_optimum  # imports scipy

TOL = 1e-7


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_model(g, n_levels):
    p_max = float(g.uniform(0.5, 2.0))
    phi_nc = float(g.uniform(0.2, 0.9))
    phi = np.sort(g.uniform(phi_nc, min(phi_nc + 0.5, 1.0), n_levels - 1))
    levels = [0.0, *np.sort(g.uniform(0.05, 1.0, n_levels - 2)) * p_max, p_max]
    mu = [0.0, *np.sort(g.uniform(0.1, 1.0, n_levels - 1))]
    return ModelParams(
        lambda_pu=float(g.uniform(0.02, 0.8 * phi_nc)),
        lambda_su=float(g.uniform(0.05, 1.0)),
        a_max=1,
        phi=dict(zip(levels, [phi_nc, *phi.tolist()])),
        mu_su=dict(zip(levels, mu)),
        p_avg=float(g.uniform(0.05, 1.0)) * p_max,
        power_set=(PowerSet.make_two_point(p_max) if n_levels == 2
                   else PowerSet.make_grid(levels)),
    )


def test_cmdp_reference_point():
    ref = ModelParams.two_point(0.5, 0.5, 0.6, 0.8, 0.5)
    assert cmdp_optimum(ref) == pytest.approx(0.25, abs=TOL)


def test_cmdp_equals_closed_form_on_two_point_models():
    g = rng(41)
    for _ in range(16):
        params = random_model(g, 2)
        assert cmdp_optimum(params) == pytest.approx(
            optimal_two_point(params).upsilon, abs=TOL), params


def test_cmdp_at_or_above_grid_search_on_grids():
    # grid_search mixes over {0, p_max} only, one of the policies the LP spans
    g = rng(42)
    for i in range(12):
        params = random_model(g, 3 + i % 2)
        assert cmdp_optimum(params) >= grid_search(params, step=0.01).upsilon - TOL, params
