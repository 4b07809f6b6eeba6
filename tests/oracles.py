"""Independent reference solutions the tests check the package against."""

from __future__ import annotations

import math

import numpy as np

from maxvariety import (ConvergenceError, CovarianceInput, DegenerateDataError,
                        ParameterError, WeightVector)
from maxvariety.allocation import _face_minimizer


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
    cov = CovarianceInput(sigma)
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


def active_set_lstsq(corr: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimizer of ``z' R z`` on the simplex and its step count: the
    active-set walk of ``allocation._active_set`` with every face system
    solved by least squares (an SVD solve).  The walk crash-starts from a
    full face of full rank and then enters every undercutting asset at
    once.  ``_active_set`` crash-starts only where LU solves the full face;
    the two rules agree on every input but the nearly singular ones, which
    the tests give to ``active_set_from_full_support`` instead."""
    m = corr.shape[0]
    z = np.full(m, 1.0 / m)
    free = np.ones(m, dtype=bool)
    crashed = False
    cap = 8 * m + 16
    for step in range(1, cap + 1):
        idx = np.flatnonzero(free)
        f = idx.size
        kkt = np.ones((f + 1, f + 1))
        kkt[:f, :f] = corr[np.ix_(idx, idx)]
        kkt[f, f] = 0.0
        rhs = np.zeros(f + 1)
        rhs[f] = 1.0
        target, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
        target = target[:f]
        blocked = np.flatnonzero(target < 0.0)
        if step == 1 and rank == f + 1 and 0 < blocked.size < f:
            z = np.maximum(target, 0.0)
            z /= z.sum()
            free = z > 0.0
            crashed = True
            continue
        if blocked.size:
            current = z[idx]
            shares = current[blocked] / (current[blocked] - target[blocked])
            first = int(np.argmin(shares))
            z[idx] = np.maximum(
                current + shares[first] * (target - current), 0.0)
            z[idx[blocked[first]]] = 0.0
            free[idx[blocked[first]]] = False
            continue
        z[idx] = target
        gradient = corr @ z
        multiplier = float(z @ gradient)
        entering = np.flatnonzero(~free & (gradient < multiplier - 1e-12))
        if entering.size == 0:
            return z, step
        free[entering if crashed else entering[0]] = True
    raise ConvergenceError(
        f"active-set solve did not settle within {cap} steps", iterate=z)


def active_set_from_full_support(corr: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimizer of ``z' R z`` on the simplex and its step count by the
    plain walk from the uniform full support: one asset dropped or entered
    per step, the lowest undercutting index entering, each face solved by
    ``allocation._face_minimizer``.  ``allocation._active_set`` crash-starts
    and enters assets in blocks, but must end on the same face, so its
    minimizer is bit for bit this one."""
    m = corr.shape[0]
    probe = np.sin(np.arange(1.0, m + 2.0))
    z = np.full(m, 1.0 / m)
    free = np.ones(m, dtype=bool)
    cap = 8 * m + 16
    for step in range(1, cap + 1):
        idx = np.flatnonzero(free)
        f = idx.size
        kkt = np.ones((f + 1, f + 1))
        kkt[:f, :f] = corr[np.ix_(idx, idx)]
        kkt[f, f] = 0.0
        target = _face_minimizer(kkt, probe)[0][:f]
        blocked = np.flatnonzero(target < 0.0)
        if blocked.size:
            current = z[idx]
            shares = current[blocked] / (current[blocked] - target[blocked])
            first = int(np.argmin(shares))
            z[idx] = np.maximum(
                current + shares[first] * (target - current), 0.0)
            z[idx[blocked[first]]] = 0.0
            free[idx[blocked[first]]] = False
            continue
        z[idx] = target
        gradient = corr @ z
        multiplier = float(z @ gradient)
        entering = np.flatnonzero(~free & (gradient < multiplier - 1e-12))
        if entering.size == 0:
            return z, step
        free[entering[0]] = True
    raise ConvergenceError(
        f"active-set solve did not settle within {cap} steps", iterate=z)
