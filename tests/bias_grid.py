"""Shared test helper: a seeded random grid of n-frame device biases."""

import numpy as np


def random_bias_grid(n: int = 2000, seed: int = 2027):
    """``(vgs, vds)`` drawn uniformly from VGS in [-0.2, 0.8] V and VDS
    in [0, 0.8] V, a window around the paper's Fig. 6/7 biases, where
    the Laplace hint misses the root's region pair on a few percent of
    the points."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.2, 0.8, n), rng.uniform(0.0, 0.8, n)
