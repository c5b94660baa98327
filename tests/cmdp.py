"""The slot-level constrained MDP of the primary queue, solved as an LP.

An independent ground truth for the best secondary throughput over all
policies, stationary randomized or backlog-dependent (Altman, *Constrained
Markov Decision Processes*, 1999: the occupation-measure LP). The state is
the primary backlog ``q_pu`` in 0..K and the action is a power level. In the
idle state the secondary transmits its own data at rate ``mu_su(p)``; it is
taken to be backlogged, as the offline oracle assumes, so the optimum is
capped at ``lambda_su`` afterwards. In a busy state power ``p`` serves the
primary with probability ``phi(p)``; departures come before arrivals, and an
arrival at backlog K is lost, which moves the optimum by about the chance of
reaching K. The variables are the long-run fractions ``x[q, level]`` of
slots; the constraints are the flow balance of every state, total mass one
and average power at most ``p_avg``.

Test-only: it needs scipy, which nothing in ``src/`` imports.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

# HiGHS's default feasibility tolerance (1e-7) shows in the optimum's 6th
# digit, so every solve tightens it.
TOLERANCE = 1e-10


def cmdp_optimum(params, K: int = 300) -> float:
    """Best long-run secondary throughput over all policies, K-truncated."""
    levels = params.power_set.levels
    L = len(levels)
    lam = params.lambda_pu
    q = np.repeat(np.arange(K + 1), L)              # state of each variable
    power = np.tile(levels, K + 1)
    phi = np.tile([params.phi[p] for p in levels], K + 1)
    s = np.where(q > 0, phi, 0.0)                   # primary departure
    cols = np.arange(len(q))
    # balance row j: slots in state j equal the flow into j
    balance = np.zeros((K + 1, len(q)))
    balance[q, cols] = 1.0
    np.subtract.at(balance, (np.maximum(q - 1, 0), cols), s * (1 - lam))
    np.subtract.at(balance, (q, cols), s * lam + (1 - s) * (1 - lam))
    np.subtract.at(balance, (np.minimum(q + 1, K), cols), (1 - s) * lam)
    reward = np.where(q == 0, np.tile([params.mu_su[p] for p in levels], K + 1), 0.0)
    res = linprog(
        -reward,
        A_ub=power[None, :],
        b_ub=[params.p_avg],
        A_eq=np.vstack([balance, np.ones(len(q))]),
        b_eq=np.r_[np.zeros(K + 1), 1.0],
        method="highs",
        options={
            "primal_feasibility_tolerance": TOLERANCE,
            "dual_feasibility_tolerance": TOLERANCE,
        },
    )
    if res.status != 0:
        raise RuntimeError(res.message)
    return min(-res.fun, params.lambda_su)
