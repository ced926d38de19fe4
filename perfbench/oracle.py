"""Reference computations the benchmark checks the program against.

Nothing here imports ``repro``: every number is computed from the raw
arrays of an instance (locations ``(n, z, d)``, probabilities ``(n, z)``,
candidates ``(m, d)``) by code that shares no kernel with the program.

* :func:`emax_rows` — ``E[max_i X_i]`` of independent discrete variables by
  one merged sort of their supports, batched over rows.
* :func:`expected_distances` — the ``(n, m)`` matrix ``E[d(P_i, c)]``.
* :func:`best_subset_costs` — the minimum over all ``C(m, k)`` candidate
  subsets, for the restricted objective under the expected-distance (ED)
  assignment and for the unassigned objective.  Its search order uses only
  the Jensen bound ``max_i E[X_i] <= E[max_i X_i]``.
* :func:`pairwise_draw_bound` — ``max_i 1/2 E[d(X_i, X_i')]`` over two
  independent draws of ``P_i``.  By the triangle inequality
  ``d(X, X') <= d(X, c) + d(X', c)`` for every center ``c``, so it bounds
  from below the cost of every *assigned* solution (each point served by one
  center).  It is no bound for the unassigned objective, where a point's
  nearest center may change with its realization.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

#: Subset rows scored per batch by :func:`best_subset_costs`.
BATCH_ROWS = 2048


def distances(locations: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``(n, z, m)`` Euclidean distances from every location to every candidate."""
    diff = locations[:, :, None, :] - candidates[None, None, :, :]
    return np.sqrt(np.einsum("nzmd,nzmd->nzm", diff, diff))


def _gather_last(array: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(array, index, axis=-1)`` through one flat take."""
    width = array.shape[-1]
    offsets = np.arange(0, array.size, width).reshape(array.shape[:-1] + (1,))
    return np.take(array.reshape(-1), index + offsets)


def emax_rows(values: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """``E[max_i X_i]`` per row for ``values`` of shape ``(B, n, z)``.

    Point ``i`` of row ``b`` takes value ``values[b, i, j]`` with probability
    ``probabilities[i, j]``, independently of the other points.  All ``n z``
    support values of a row are merged in one sort; walking them upward,
    ``P(max <= t) = prod_i F_i(t)`` changes only where some ``F_i`` steps, and
    ``E[max] = sum_t t * (P(max <= t) - P(max < t))``.  The product is kept
    as a sum of logs plus a count of points whose CDF is still zero, so
    neither underflow at large ``n`` nor zero-probability entries upset it.
    """
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim == 2:
        values = values[None]
    rows, n, z = values.shape
    probabilities = np.broadcast_to(np.asarray(probabilities, dtype=float), (n, z))
    # Per point: CDF before and after each of its own support values.
    order = np.argsort(values, axis=2, kind="stable")
    sorted_values = _gather_last(values, order)
    sorted_probs = _gather_last(np.ascontiguousarray(np.broadcast_to(probabilities, values.shape)), order)
    cdf_after = np.cumsum(sorted_probs, axis=2)
    cdf_before = cdf_after - sorted_probs
    cdf_before[:, :, 0] = 0.0
    with np.errstate(divide="ignore"):
        log_after = np.where(cdf_after > 0.0, np.log(np.maximum(cdf_after, 1e-300)), 0.0)
        log_before = np.where(cdf_before > 0.0, np.log(np.maximum(cdf_before, 1e-300)), 0.0)
    appears = (cdf_before <= 0.0) & (cdf_after > 0.0)
    step = log_after - log_before
    # Merge every point's steps into one ascending sequence per row.
    flat_values = sorted_values.reshape(rows, n * z)
    merge = np.argsort(flat_values, axis=1, kind="stable")
    merged_values = _gather_last(flat_values, merge)
    log_cdf = np.cumsum(_gather_last(step.reshape(rows, n * z), merge), axis=1)
    present = np.cumsum(_gather_last(appears.reshape(rows, n * z), merge), axis=1)
    cdf = np.where(present == n, np.exp(log_cdf), 0.0)
    increments = np.diff(cdf, axis=1, prepend=0.0)
    return np.einsum("bt,bt->b", merged_values, increments)


def emax(values: list[np.ndarray], probabilities: list[np.ndarray]) -> float:
    """``E[max]`` of ragged independent discrete variables (zero-padded)."""
    width = max(len(v) for v in values)
    padded_values = np.zeros((1, len(values), width))
    padded_probs = np.zeros((len(values), width))
    for index, (vals, probs) in enumerate(zip(values, probabilities)):
        padded_values[0, index, : len(vals)] = vals
        padded_probs[index, : len(probs)] = probs
    return float(emax_rows(padded_values, padded_probs)[0])


def expected_distances(
    locations: np.ndarray, probabilities: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """``(n, m)`` matrix of ``E[d(P_i, candidates[c])]``."""
    return np.einsum("nz,nzm->nm", probabilities, distances(locations, candidates))


def assigned_cost(
    locations: np.ndarray, probabilities: np.ndarray, centers: np.ndarray, labels: np.ndarray
) -> float:
    """Exact cost when point ``i`` is served by ``centers[labels[i]]``."""
    dist = distances(locations, centers)
    values = np.take_along_axis(dist, np.asarray(labels)[:, None, None], axis=2)[:, :, 0]
    return float(emax_rows(values[None], probabilities)[0])


def ed_cost(locations: np.ndarray, probabilities: np.ndarray, centers: np.ndarray) -> float:
    """Exact restricted cost of ``centers`` under the ED assignment."""
    labels = expected_distances(locations, probabilities, centers).argmin(axis=1)
    return assigned_cost(locations, probabilities, centers, labels)


def unassigned_cost(locations: np.ndarray, probabilities: np.ndarray, centers: np.ndarray) -> float:
    """Exact cost when every realized location goes to its nearest center."""
    values = distances(locations, centers).min(axis=2)
    return float(emax_rows(values[None], probabilities)[0])


def _subset_rows(m: int, k: int):
    """All ``C(m, k)`` subsets in lexicographic order, in ``(B, k)`` batches."""
    subsets = combinations(range(m), k)
    remaining = comb(m, k)
    while remaining:
        size = min(BATCH_ROWS, remaining)
        remaining -= size
        yield np.fromiter(
            (c for subset in (next(subsets) for _ in range(size)) for c in subset),
            dtype=np.intp,
            count=size * k,
        ).reshape(size, k)


def _subset_values(by_candidate: np.ndarray, expected: np.ndarray, rows: np.ndarray):
    """Per-subset realized-distance supports, ``(B, n, z)`` per objective.

    ``by_candidate`` is the ``(m, n, z)`` distance tensor.  Unassigned: each
    location's distance to its nearest center of the subset.  Restricted:
    the distances to the subset center with the least expected distance.
    """
    nearest = by_candidate[rows[:, 0]]
    for column in range(1, rows.shape[1]):
        nearest = np.minimum(nearest, by_candidate[rows[:, column]])
    chosen = np.take_along_axis(rows, expected[:, rows].argmin(axis=2).T, axis=1)  # (B, n)
    served = by_candidate[chosen, np.arange(expected.shape[0])[None, :]]  # (B, n, z)
    return {"restricted": served, "unassigned": nearest}


def best_subset_costs(
    locations: np.ndarray,
    probabilities: np.ndarray,
    candidates: np.ndarray,
    k: int,
    *,
    exhaustive: bool = False,
) -> dict[str, float]:
    """Minimum cost over all ``C(m, k)`` candidate subsets, both objectives.

    Every subset gets the Jensen bound ``max_i E[X_i] <= E[max_i X_i]`` of
    its realized distances; ``E[max]`` is then computed exactly for every
    subset in ascending-bound order until the next bound exceeds the best
    cost found, so the minimum is exact.  ``exhaustive=True`` computes
    ``E[max]`` of every subset instead (the reference the bounded search is
    tested against).
    """
    by_candidate = distances(locations, candidates).transpose(2, 0, 1).copy()  # (m, n, z)
    expected = np.einsum("nz,mnz->nm", probabilities, by_candidate)
    best = {"restricted": np.inf, "unassigned": np.inf}
    kept: dict[str, list] = {"restricted": [], "unassigned": []}
    for rows in _subset_rows(candidates.shape[0], k):
        for objective, values in _subset_values(by_candidate, expected, rows).items():
            if exhaustive:
                costs = emax_rows(values, probabilities)
                best[objective] = min(best[objective], float(costs.min()))
            else:
                bounds = np.einsum("bnz,nz->bn", values, probabilities).max(axis=1)
                kept[objective].append((bounds, rows))
    if exhaustive:
        return best
    for objective, parts in kept.items():
        bounds = np.concatenate([part[0] for part in parts])
        rows = np.concatenate([part[1] for part in parts])
        order = np.argsort(bounds, kind="stable")
        for start in range(0, order.size, BATCH_ROWS):
            batch = order[start : start + BATCH_ROWS]
            if bounds[batch[0]] > best[objective] * (1.0 + 1e-9):
                break
            values = _subset_values(by_candidate, expected, rows[batch])[objective]
            best[objective] = min(best[objective], float(emax_rows(values, probabilities).min()))
    return best


def pairwise_draw_bound(locations: np.ndarray, probabilities: np.ndarray) -> float:
    """``max_i 1/2 E[d(X_i, X_i')]`` for two independent draws of ``P_i``."""
    diff = locations[:, :, None, :] - locations[:, None, :, :]
    dist = np.sqrt(np.einsum("nabd,nabd->nab", diff, diff))
    return float(0.5 * np.einsum("na,nab,nb->n", probabilities, dist, probabilities).max())
