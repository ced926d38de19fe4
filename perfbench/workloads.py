"""The benchmark's four workloads.

Each workload makes its inputs from the run seed, runs one round of ops at a
time, and checks every recorded output against :mod:`oracle` after the timed
loop.  Instance sizes are fixed per slot of a round; only the data varies
with the seed, so every seed does the same amount of enumeration work.

Instance seed of slot ``j`` in a run with seed ``s``: ``1000 * s + j``.
The warm-up instance has seed :data:`WARM_SEED` in every run and is never
timed: its op time would otherwise carry one random instance's cost into
``setup_s`` (a certificate on 30 points takes 0.05 to 0.29 s by seed).
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import oracle
import repro

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Relative tolerance of every exact comparison with the oracle.
RTOL = 1e-9
#: Seed of the warm-up instance of every workload.
WARM_SEED = 900


@dataclass
class Instance:
    """One generated instance, as the program and the oracle see it."""

    family: str
    seed: int
    dataset: Any
    k: int
    candidates: np.ndarray | None = None
    locations: np.ndarray = field(init=False)
    probabilities: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.locations = np.stack([point.locations for point in self.dataset.points])
        self.probabilities = np.stack([point.probabilities for point in self.dataset.points])


#: Generator settings beyond ``n``, ``z`` and ``d``.  Clustered instances
#: get as many clusters as centers (``k_true=3`` is the ``k`` of the exact
#: workloads): with the default four clusters for three centers, the optimum
#: swings with the cluster layout and the cost ratio of a run with it.
GENERATOR_PARAMS = {"gaussian_clusters": {"k_true": 3}}


def make_instance(
    family: str, seed: int, n: int, z: int, k: int, m: int | None
) -> Instance:
    """Generate one instance; ``m`` candidates are drawn from its locations
    and expected points (``None`` keeps no candidate set)."""
    generator = getattr(repro, family)
    dataset, _ = generator(n=n, z=z, dimension=2, seed=seed, **GENERATOR_PARAMS.get(family, {}))
    candidates = None
    if m is not None:
        pool = np.vstack([dataset.all_locations(), dataset.expected_points()])
        rng = np.random.default_rng(seed)
        candidates = pool[np.sort(rng.choice(pool.shape[0], size=m, replace=False))]
    return Instance(family, seed, dataset, k, candidates)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= RTOL * max(1.0, abs(reference))


def rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Common shape: ``setup`` → rounds of ``run_op`` → ``check``."""

    name = ""
    #: Fewest ops a run holds, whatever ``--seconds`` says.
    MIN_OPS = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def round_ops(self) -> list:
        raise NotImplementedError

    def run_op(self, op: Any) -> Any:
        raise NotImplementedError

    def op_seed(self, op: Any) -> int:
        raise NotImplementedError

    def check(self, op: Any, output: Any) -> tuple[list[str], list[float]]:
        """Problems found in ``output`` and its cost ratios."""
        raise NotImplementedError

    def extra_checks(self) -> list[tuple[int, list[str]]]:
        """Checks on instances outside the timed ops: ``(seed, problems)``."""
        return []

    def begin_loop(self) -> None:
        from repro.runtime import health

        self.health_before = health.snapshot()

    def finish_loop(self) -> None:
        from repro.runtime import health

        self.health_window = health.delta(self.health_before)

    def metadata(self, output: Any) -> list[dict]:
        """Result metadata dicts of one op's output (enumeration row counts)."""
        return []

    def peak_rss_mb(self) -> float:
        return rss_mb()

    def layer_extras(self) -> dict[str, float]:
        return {
            "runtime.chunks_submitted": float(self.health_window.chunks_submitted),
            "runtime.chunk_retries": float(self.health_window.retries),
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# approx_large: the Table-1 path at scale
# ---------------------------------------------------------------------------


class ApproxLarge(Workload):
    """ED (Theorem 2.2), polished EP (Theorem 2.5) and the certificate."""

    name = "approx_large"
    #: ``(generator, n)`` per slot of a round; z=8, d=2, k=8 throughout.
    #: One ``n`` for all, so op times differ by family only.
    SLOTS = [
        (family, 750)
        for family in ("gaussian_clusters", "uniform_cloud", "heavy_tailed", "anisotropic_clusters")
    ] * 2
    Z, K = 8, 8
    #: Small instances for the Table-1 factor check (k=3, all candidates).
    CHECK_N, CHECK_Z, CHECK_K = 12, 3, 3

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.instances = [
            make_instance(family, 1000 * seed + slot, n, self.Z, self.K, None)
            for slot, (family, n) in enumerate(self.SLOTS)
        ]
        warm = make_instance("gaussian_clusters", WARM_SEED, 30, self.Z, self.K, None)
        self.run_op(warm)

    def round_ops(self) -> list:
        return self.instances

    def op_seed(self, op: Instance) -> int:
        return op.seed

    def run_op(self, op: Instance) -> Any:
        ed = repro.solve_restricted_assigned(op.dataset, op.k)
        ep = repro.solve_unrestricted_assigned(op.dataset, op.k, polish_assignment=True)
        certificate = repro.assigned_cost_lower_bound(op.dataset, op.k)
        return ed, ep, certificate

    def check(self, op: Instance, output: Any) -> tuple[list[str], list[float]]:
        ed, ep, certificate = output
        bound = oracle.pairwise_draw_bound(op.locations, op.probabilities)
        problems: list[str] = []
        ratios: list[float] = []
        for label, result in (("ED", ed), ("EP", ep)):
            cost = float(result.expected_cost)
            rescored = oracle.assigned_cost(
                op.locations, op.probabilities, np.asarray(result.centers), np.asarray(result.assignment)
            )
            if not close(cost, rescored):
                problems.append(f"{label} cost {cost!r} != oracle re-score {rescored!r}")
            if cost < bound * (1 - RTOL):
                problems.append(f"{label} cost {cost!r} below the pairwise-draw bound {bound!r}")
            if cost < certificate * (1 - RTOL):
                problems.append(f"{label} cost {cost!r} below the certificate {certificate!r}")
            ratios.append(cost / bound)
        return problems, ratios

    def extra_checks(self) -> list[tuple[int, list[str]]]:
        """Table-1 factor property on small instances, against the oracle's
        best candidate-subset ED cost (an upper bound on the ED optimum)."""
        out = []
        families = dict.fromkeys(family for family, _ in self.SLOTS)
        for slot, family in enumerate(families):
            instance = make_instance(
                family, 1000 * self.seed + 500 + slot, self.CHECK_N, self.CHECK_Z, self.CHECK_K, None
            )
            problems: list[str] = []
            try:
                candidates = np.vstack(
                    [instance.dataset.all_locations(), instance.dataset.expected_points()]
                )
                best = oracle.best_subset_costs(
                    instance.locations, instance.probabilities, candidates, instance.k
                )["restricted"]
                for result in (
                    repro.solve_restricted_assigned(instance.dataset, instance.k),
                    repro.solve_unrestricted_assigned(
                        instance.dataset, instance.k, polish_assignment=True
                    ),
                ):
                    factor = result.guaranteed_factor
                    if factor is None or result.expected_cost > factor * best * (1 + RTOL):
                        problems.append(
                            f"{result.objective} cost {result.expected_cost!r} exceeds factor "
                            f"{factor!r} x best candidate ED cost {best!r}"
                        )
            except Exception as error:  # noqa: BLE001 - every failure is reported
                problems.append(f"{type(error).__name__}: {error}")
            out.append((instance.seed, problems))
        return out


# ---------------------------------------------------------------------------
# exact_pruned / exact_dense: serial branch-and-bound enumeration
# ---------------------------------------------------------------------------


class ExactWorkload(Workload):
    """One op: the restricted ED solve, then the unassigned solve, serially."""

    SLOTS: list[tuple[str, int, int]] = []
    K = 3
    M = 60
    WARM = ("uniform_cloud", 20, 4, 20)

    def setup(self, seed: int) -> None:
        self.instances = [
            make_instance(family, 1000 * seed + slot, n, z, self.K, self.M)
            for slot, (family, n, z) in enumerate(self.SLOTS)
        ]
        self.optima: dict[int, dict[str, float]] = {}
        family, n, z, m = self.WARM
        self.run_op(make_instance(family, WARM_SEED, n, z, self.K, m))

    def round_ops(self) -> list:
        return self.instances

    def op_seed(self, op: Instance) -> int:
        return op.seed

    def run_op(self, op: Instance) -> Any:
        restricted = repro.brute_force_restricted_assigned(
            op.dataset, op.k, candidates=op.candidates, workers=1
        )
        unassigned = repro.brute_force_unassigned(
            op.dataset, op.k, candidates=op.candidates, workers=1
        )
        return restricted, unassigned

    def metadata(self, output: Any) -> list[dict]:
        return [result.metadata for result in output]

    def check(self, op: Instance, output: Any) -> tuple[list[str], list[float]]:
        restricted, unassigned = output
        return check_exact(
            op,
            optimum(self.optima, op),
            [
                ("restricted", restricted.expected_cost, np.asarray(restricted.centers)),
                ("unassigned", unassigned.expected_cost, np.asarray(unassigned.centers)),
            ],
        )


def optimum(cache: dict[int, dict[str, float]], instance: Instance) -> dict[str, float]:
    """The oracle's best subset costs for ``instance``, computed once per run."""
    if instance.seed not in cache:
        cache[instance.seed] = oracle.best_subset_costs(
            instance.locations, instance.probabilities, instance.candidates, instance.k
        )
    return cache[instance.seed]


def check_exact(
    op: Instance, best: dict[str, float], answers: list[tuple[str, float, np.ndarray]]
) -> tuple[list[str], list[float]]:
    """Exact answers equal the oracle's optimum and its re-score of the centers."""
    problems: list[str] = []
    ratios: list[float] = []
    for objective, cost, centers in answers:
        cost = float(cost)
        if centers.shape != (op.k, op.locations.shape[2]):
            problems.append(f"{objective}: returned centers of shape {centers.shape}")
            continue
        if objective == "restricted":
            rescored = oracle.ed_cost(op.locations, op.probabilities, centers)
        else:
            rescored = oracle.unassigned_cost(op.locations, op.probabilities, centers)
        if not close(cost, best[objective]):
            problems.append(f"{objective} cost {cost!r} != oracle optimum {best[objective]!r}")
        if not close(cost, rescored):
            problems.append(f"{objective} cost {cost!r} != oracle re-score {rescored!r}")
        if objective == "restricted":
            ratios.append(cost / oracle.pairwise_draw_bound(op.locations, op.probabilities))
    return problems, ratios


class ExactPruned(ExactWorkload):
    name = "exact_pruned"
    #: One size for both families, so op times form one mode and the median
    #: does not sit in the gap between two.  Every op of a round has its own
    #: instance, so a run's figures average over 48 instances.
    SLOTS = [("uniform_cloud", 48, 5), ("gaussian_clusters", 48, 5)] * 24
    K, M = 3, 60
    WARM = ("uniform_cloud", 20, 4, 24)


class ExactDense(ExactWorkload):
    name = "exact_dense"
    SLOTS = [("heavy_tailed", 25, 6)] * 24
    K, M = 4, 30
    WARM = ("heavy_tailed", 12, 6, 16)


# ---------------------------------------------------------------------------
# serve_sharded: repro serve --workers 2 behind a closed-loop client
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ServerProcess:
    """``repro serve`` in its own process, started through the launcher."""

    def __init__(self, workers: int, trace_out: str | None) -> None:
        self.connection: http.client.HTTPConnection | None = None
        self.exit_record: dict = {}
        self.stopped = False
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += ["serve", "--port", "0", "--workers", str(workers)]
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = self._await_ready(timeout=60.0)
        self.connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def _await_ready(self, timeout: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if event.get("event") == "ready":
                    return int(event["port"])
        finally:
            selector.close()
        self.stop()
        raise RuntimeError("repro serve did not report ready")

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        payload = response.read()
        return response.status, json.loads(payload)

    def stop(self) -> None:
        """SIGTERM (drain), then collect the launcher's exit record."""
        if self.stopped:
            return
        self.stopped = True
        if self.connection is not None:
            self.connection.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in (out or "").splitlines():
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "exit":
                self.exit_record = event


class ServeSharded(Workload):
    """Closed loop, one client, ``POST /v1/solve`` for both objectives."""

    name = "serve_sharded"
    #: Datasets per round: more than the server's 16-context store, so every
    #: round evicts: each dataset's first request misses, a second one hits.
    SLOTS = [("uniform_cloud", 48, 5), ("gaussian_clusters", 48, 5)] * 22
    K, M = 3, 48
    WORKERS = 2
    #: Enough requests that ten lie beyond the 90th percentile.
    MIN_OPS = 100

    def __init__(self) -> None:
        self.server: ServerProcess | None = None
        self.trace_out: str | None = None

    def setup(self, seed: int) -> None:
        self.instances = [
            make_instance(family, 1000 * seed + slot, n, z, self.K, self.M)
            for slot, (family, n, z) in enumerate(self.SLOTS)
        ]
        self.bodies = {op: self._body(self.instances[op[0]], op[1]) for op in self.round_ops()}
        self.optima: dict[int, dict[str, float]] = {}
        self.server = ServerProcess(self.WORKERS, self.trace_out)
        warm = make_instance("uniform_cloud", WARM_SEED, 48, 5, self.K, self.M)
        for objective in ("restricted", "unassigned"):
            status, reply = self.server.request("POST", "/v1/solve", self._body(warm, objective))
            if status != 200:
                raise RuntimeError(f"warm-up solve answered {status}: {reply}")

    def begin_loop(self) -> None:
        self.stats_before = self.server.request("GET", "/stats")[1]
        self.health_before = self.server.request("GET", "/healthz")[1]

    @staticmethod
    def _body(instance: Instance, objective: str) -> bytes:
        return json.dumps(
            {
                "dataset": instance.dataset.to_dict(),
                "k": instance.k,
                "objective": objective,
                "candidates": instance.candidates.tolist(),
            }
        ).encode()

    def round_ops(self) -> list:
        """Every dataset gets an unassigned solve, half of them (of both
        families) a restricted solve first.  Restricted solves are several
        times cheaper, so at one of each the median request would fall in the
        gap between the two modes; at two to one it falls inside the
        unassigned mode."""
        ops = []
        for index in range(len(self.instances)):
            if index % 4 < 2:
                ops.append((index, "restricted"))
            ops.append((index, "unassigned"))
        return ops

    def op_seed(self, op: tuple[int, str]) -> int:
        return self.instances[op[0]].seed

    def run_op(self, op: tuple[int, str]) -> Any:
        status, reply = self.server.request("POST", "/v1/solve", self.bodies[op])
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {reply.get('error', reply)}")
        return reply

    def check(self, op: tuple[int, str], output: Any) -> tuple[list[str], list[float]]:
        instance = self.instances[op[0]]
        return check_exact(
            instance,
            optimum(self.optima, instance),
            [(op[1], output["expected_cost"], np.asarray(output["centers"], dtype=float))],
        )

    def metadata(self, output: Any) -> list[dict]:
        return [output.get("metadata") or {}]

    def finish_loop(self) -> None:
        """Read the server's counters, then stop it (its peak RSS comes back)."""
        self.stats_after = self.server.request("GET", "/stats")[1]
        self.health_after = self.server.request("GET", "/healthz")[1]
        self.server.stop()

    def peak_rss_mb(self) -> float:
        return float(self.server.exit_record.get("maxrss_kb", 0.0)) / 1024.0

    def layer_extras(self) -> dict[str, float]:
        before = self.health_before["runtime_health"]
        after = self.health_after["runtime_health"]
        contexts_before = self.stats_before["contexts"]
        contexts_after = self.stats_after["contexts"]
        p50_ms = self.stats_after["endpoints"].get("/v1/solve", {}).get("p50_ms") or 0.0
        return {
            "runtime.chunks_submitted": float(after["chunks_submitted"] - before["chunks_submitted"]),
            "runtime.chunk_retries": float(after["retries"] - before["retries"]),
            "runtime.store_hits": float(contexts_after["hits"] - contexts_before["hits"]),
            "runtime.store_misses": float(contexts_after["misses"] - contexts_before["misses"]),
            "serve.server_s_p50": p50_ms / 1000.0,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    cls.name: cls for cls in (ApproxLarge, ExactPruned, ExactDense, ServeSharded)
}
