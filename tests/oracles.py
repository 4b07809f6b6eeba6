"""Independent reference solutions the tests check the package against."""

from __future__ import annotations

import math

import numpy as np

from maxvariety import (CovarianceInput, DegenerateDataError, ParameterError,
                        WeightVector)


def _lattice_blocks(m: int, ticks: int):
    """Yield integer composition blocks of ``ticks`` into ``m`` parts."""
    if m == 1:
        yield np.array([[ticks]])
        return
    if m == 2:
        first = np.arange(ticks + 1)
        yield np.column_stack([first, ticks - first])
        return
    if m == 3:
        for first in range(ticks + 1):
            second = np.arange(ticks - first + 1)
            block = np.column_stack([
                np.full(second.size, first), second, ticks - first - second])
            yield block
        return
    for first in range(ticks + 1):
        for second in range(ticks - first + 1):
            third = np.arange(ticks - first - second + 1)
            yield np.column_stack([
                np.full(third.size, first), np.full(third.size, second),
                third, ticks - first - second - third])


def brute_force_vr(sigma, step: float) -> WeightVector:
    """Best simplex lattice point for the variety ratio at the given
    spacing; an exhaustive search, so small m only."""
    cov = CovarianceInput.from_covariance(sigma)
    m = cov.sigma.shape[0]
    if m > 4:
        raise ParameterError(
            f"exhaustive search supports at most 4 assets, got {m}")
    if not 0.0 < step <= 1.0:
        raise ParameterError(f"step must lie in (0, 1], got {step}")
    ticks = round(1.0 / step)
    n_points = math.comb(ticks + m - 1, m - 1)
    if n_points > 20_000_000:
        raise ParameterError(
            f"grid of {n_points} points is too large; coarsen the step")

    best_w = None
    best_value = -np.inf
    for block in _lattice_blocks(m, ticks):
        grid = block.astype(float) / ticks
        lin = grid @ cov.vols
        quad = np.einsum("ij,jk,ik->i", grid, cov.sigma, grid)
        valid = quad > 0.0
        if not np.any(valid):
            continue
        ratios = np.where(valid, lin / np.sqrt(np.where(valid, quad, 1.0)),
                          -np.inf)
        top = int(np.argmax(ratios))
        if ratios[top] > best_value:
            best_value = float(ratios[top])
            best_w = grid[top].copy()
    if best_w is None:
        raise DegenerateDataError("no lattice point had positive variance")
    return WeightVector(best_w)
