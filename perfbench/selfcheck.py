"""Self-check of the benchmark: the oracle against brute enumeration, the
checks against wrong answers, and a tiny pass of every workload.

    python3 perfbench/selfcheck.py

Runs in well under a minute and exits non-zero on the first failure.  The
oracle is tested against direct enumeration of every realization of tiny
instances, which shares no code with either the oracle or the program.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def enumerate_emax(values: list[np.ndarray], probabilities: list[np.ndarray]) -> float:
    """``E[max]`` by walking every joint realization."""
    total = 0.0
    for choice in itertools.product(*(range(len(v)) for v in values)):
        weight = 1.0
        for point, index in enumerate(choice):
            weight *= probabilities[point][index]
        total += weight * max(values[point][index] for point, index in enumerate(choice))
    return total


def random_variables(rng: np.random.Generator) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Ragged supports with ties, repeated values and zero-probability entries."""
    n = int(rng.integers(1, 5))
    values, probabilities = [], []
    for _ in range(n):
        z = int(rng.integers(1, 4))
        vals = rng.integers(0, 4, size=z).astype(float) * rng.choice([1.0, 0.5])
        probs = rng.random(z)
        if z > 1 and rng.random() < 0.3:
            probs[int(rng.integers(0, z))] = 0.0
        values.append(vals)
        probabilities.append(probs / probs.sum())
    return values, probabilities


def tiny_instance(rng: np.random.Generator, n: int, z: int, m: int):
    locations = rng.normal(size=(n, z, 2))
    probabilities = rng.dirichlet(np.ones(z), size=n)
    candidates = rng.normal(size=(m, 2))
    return locations, probabilities, candidates


def realized_cost(locations, probabilities, centers, serve) -> float:
    """Cost by enumerating realizations; ``serve(i, x)`` is point i's distance."""
    n, z, _ = locations.shape
    total = 0.0
    for choice in itertools.product(range(z), repeat=n):
        weight = float(np.prod([probabilities[i, j] for i, j in enumerate(choice)]))
        total += weight * max(serve(i, locations[i, j]) for i, j in enumerate(choice))
    return total


def check_oracle(rng: np.random.Generator) -> None:
    for _ in range(300):
        values, probabilities = random_variables(rng)
        expected = enumerate_emax(values, probabilities)
        got = oracle.emax(values, probabilities)
        assert abs(got - expected) <= 1e-12 * max(1.0, expected), (values, probabilities, got, expected)

    for _ in range(20):
        locations, probabilities, candidates = tiny_instance(rng, 4, 2, 6)
        loops = np.array(
            [
                [
                    sum(
                        probabilities[i, j] * float(np.linalg.norm(locations[i, j] - c))
                        for j in range(2)
                    )
                    for c in candidates
                ]
                for i in range(4)
            ]
        )
        assert np.allclose(oracle.expected_distances(locations, probabilities, candidates), loops)

        best = {"restricted": np.inf, "unassigned": np.inf}
        for subset in itertools.combinations(range(6), 2):
            centers = candidates[list(subset)]
            labels = loops[:, list(subset)].argmin(axis=1)
            restricted = realized_cost(
                locations, probabilities, centers,
                lambda i, x, c=centers, a=labels: float(np.linalg.norm(x - c[a[i]])),
            )
            unassigned = realized_cost(
                locations, probabilities, centers,
                lambda i, x, c=centers: float(np.linalg.norm(c - x, axis=1).min()),
            )
            assert np.isclose(oracle.ed_cost(locations, probabilities, centers), restricted)
            assert np.isclose(oracle.unassigned_cost(locations, probabilities, centers), unassigned)
            best["restricted"] = min(best["restricted"], restricted)
            best["unassigned"] = min(best["unassigned"], unassigned)
        for exhaustive in (False, True):
            got = oracle.best_subset_costs(
                locations, probabilities, candidates, 2, exhaustive=exhaustive
            )
            for objective in best:
                assert np.isclose(got[objective], best[objective]), (objective, got, best)
        # The pairwise-draw bound lies below every assigned solution.
        bound = oracle.pairwise_draw_bound(locations, probabilities)
        assert bound <= best["restricted"] * (1 + 1e-12)
        for _ in range(5):
            centers = rng.normal(size=(3, 2))
            labels = rng.integers(0, 3, size=4)
            assert bound <= oracle.assigned_cost(locations, probabilities, centers, labels) * (1 + 1e-12)

    # Bounded search against exhaustive scoring on workload-shaped instances.
    for family, n, z, k, m in (("uniform_cloud", 12, 4, 3, 16), ("heavy_tailed", 10, 6, 4, 14)):
        instance = workloads.make_instance(family, 7, n, z, k, m)
        args = (instance.locations, instance.probabilities, instance.candidates, k)
        bounded = oracle.best_subset_costs(*args)
        exhaustive = oracle.best_subset_costs(*args, exhaustive=True)
        for objective in bounded:
            assert bounded[objective] == exhaustive[objective], (family, bounded, exhaustive)
    print("oracle: ok")


def check_checks() -> None:
    """Wrong answers must fail the checks."""
    instance = workloads.make_instance("uniform_cloud", 3, 10, 3, 2, 12)
    optimum = oracle.best_subset_costs(
        instance.locations, instance.probabilities, instance.candidates, 2
    )
    import repro

    result = repro.brute_force_unassigned(instance.dataset, 2, candidates=instance.candidates)
    good = [("unassigned", result.expected_cost, np.asarray(result.centers))]
    assert workloads.check_exact(instance, optimum, good)[0] == []
    wrong_cost = [("unassigned", result.expected_cost * (1 + 1e-7), np.asarray(result.centers))]
    assert workloads.check_exact(instance, optimum, wrong_cost)[0]
    moved = np.asarray(result.centers) + 1e-3
    assert workloads.check_exact(instance, optimum, [("unassigned", result.expected_cost, moved)])[0]
    print("checks: ok")


class TinyApprox(workloads.ApproxLarge):
    SLOTS = [("gaussian_clusters", 30), ("heavy_tailed", 25)]
    Z, K = 3, 3


class TinyPruned(workloads.ExactPruned):
    SLOTS = [("uniform_cloud", 10, 3), ("gaussian_clusters", 10, 3)]
    K, M = 2, 14
    WARM = ("uniform_cloud", 6, 3, 8)


class TinyDense(workloads.ExactDense):
    SLOTS = [("heavy_tailed", 8, 4)] * 2
    K, M = 3, 12
    WARM = ("heavy_tailed", 6, 3, 8)


class TinyServe(workloads.ServeSharded):
    SLOTS = [("uniform_cloud", 10, 3), ("gaussian_clusters", 10, 3)]
    K, M = 2, 14
    MIN_OPS = 1


def check_metric_names() -> None:
    """The metrics printed are exactly those BENCHMARK.json declares."""
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    print("metric names: ok")


def check_workloads() -> None:
    for workload in (TinyApprox(), TinyPruned(), TinyDense(), TinyServe()):
        try:
            workload.setup(11)
            workload.begin_loop()
            records, _ = run.run_loop(workload, 0.0, None)
            workload.finish_loop()
            assert workload.peak_rss_mb() > 0
        finally:
            workload.close()
        failures, _, check_failed, attempted = run.check_records(workload, records)
        assert not failures and not check_failed and attempted >= len(records) > 0, failures
        print(f"{workload.name} (tiny): ok, {attempted} ops")


def main() -> int:
    rng = np.random.default_rng(2024)
    check_oracle(rng)
    check_checks()
    check_metric_names()
    check_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
