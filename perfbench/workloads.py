"""The benchmark's workloads: what each one runs, how many cases it holds,
and how its output is checked.

A case is the unit of ``cases_per_s`` and of ``attempted``/``failed``: a
suite trial (verify-all, locc-pool), a CSV row (scatter-d4) or one optimizer
call (exact-large-d).  ``execute`` runs in a child process; ``failures``
runs in the parent on the output file, after the child has ended.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

# Tolerances of the output checks (the program's own stated tolerances).
SANDWICH_TOL = 1e-10
ORACLE_TOL = 1e-12

# ROADMAP pins: sha256 of the seed-0 output at the pinned size.
VERIFY_ALL_PINS = {0.1: "5414c27f9aaeb5287436d8a6c63f29f8a5d973f44af653eb62f0d9bca17aa09e"}
SCATTER_D4_PINS = {20000: "0aeef14022ca65fef7b3dd0b52478d191482f1a6528ff9fb670d9774c2817407"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int = 1

    @property
    def cases(self) -> int:
        raise NotImplementedError

    def argv(self, seed: int, threads: int) -> list[str]:
        raise NotImplementedError

    def execute(self, seed: int, out: str, threads: int | None = None) -> int:
        """Run the workload once, writing its output to ``out``; returns the exit code."""
        from mirrorent import cli

        threads = self.threads if threads is None else threads
        return cli.main(self.argv(seed, threads) + ["--out", str(out)])

    def failures(self, data: bytes, seed: int) -> int:
        """Failed cases in one output; raises ValueError if it is malformed."""
        raise NotImplementedError

    def pin(self, seed: int) -> str | None:
        return None

    def extra_layers(self, seed: int) -> dict:
        """Per-layer metrics measured in passes of their own (traced runs only)."""
        return {}


def _report_failures(data: bytes, suites: int, cases: int) -> int:
    results = json.loads(data)["results"]
    if len(results) != suites:
        raise ValueError(f"{len(results)} suites in the report, expected {suites}")
    trials = sum(int(r["trials"]) for r in results.values())
    if trials != cases:
        raise ValueError(f"{trials} trials in the report, expected {cases}")
    return sum(int(r["failures"]) for r in results.values())


@dataclass(frozen=True)
class VerifyAll(Workload):
    scale: float = 0.1

    def _n(self, k: int) -> int:
        return max(1, int(round(k * self.scale)))

    @property
    def cases(self) -> int:
        # bounds (7 d, plus 63 d=4 boundary cases), hierarchy (20 (d, r) pairs),
        # witness (55), unistochastic (7 d), locc (24 suites x 2 sides),
        # majorization (7 d): the structure of harness.run_all.
        n = self._n
        return 7 * n(10000) + 63 + 20 * n(200) + 55 + 7 * n(500) + 48 * n(1000) + 7 * n(1000)

    def argv(self, seed, threads):
        return ["verify", "all", "--scale", repr(self.scale), "--threads", str(threads), "--seed", str(seed)]

    def failures(self, data, seed):
        return _report_failures(data, suites=66, cases=self.cases)

    def pin(self, seed):
        return VERIFY_ALL_PINS.get(self.scale) if seed == 0 else None


@dataclass(frozen=True)
class LoccPool(Workload):
    trials: int = 3000

    @property
    def cases(self) -> int:
        return 2 * self.trials  # both sides

    def argv(self, seed, threads):
        return ["verify", "locc", "--d", "4", "--kraus-count", "3", "--trials", str(self.trials),
                "--threads", str(threads), "--seed", str(seed)]

    def failures(self, data, seed):
        return _report_failures(data, suites=1, cases=self.cases)


def _lower_bound_coefficient(d: int) -> float:
    """2(d-1)sin^2(pi/d)/d, computed here so that a wrong coefficient in the program fails the check."""
    return 2.0 * (d - 1) * math.sin(math.pi / d) ** 2 / d


@dataclass(frozen=True)
class ScatterD4(Workload):
    samples: int = 20000
    recheck_every: int = 500  # rows recomputed with the brute-force oracle

    @property
    def cases(self) -> int:
        return self.samples

    def argv(self, seed, threads):
        return ["sample", "--d", "4", "--samples", str(self.samples), "--seed", str(seed),
                "--threads", str(threads)]

    def failures(self, data, seed):
        lines = data.decode("utf-8").split("\n")
        if lines[0] != "el,estar" or lines[-1] != "" or len(lines) != self.samples + 2:
            raise ValueError("scatter CSV has the wrong header or row count")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
        if rows.shape != (self.samples, 2):
            raise ValueError("scatter rows do not have two columns")
        el, estar = rows[:, 0], rows[:, 1]
        bad = ~np.isfinite(rows).all(axis=1)
        bad |= estar < _lower_bound_coefficient(4) * el - SANDWICH_TOL
        bad |= estar > el + SANDWICH_TOL
        for i in range(0, self.samples, self.recheck_every):
            ref_el, ref_estar = _scatter_reference(seed + i)
            bad[i] |= not (abs(el[i] - ref_el) <= ORACLE_TOL and abs(estar[i] - ref_estar) <= ORACLE_TOL)
        return int(bad.sum())

    def pin(self, seed):
        return SCATTER_D4_PINS.get(self.samples) if seed == 0 else None


def _scatter_reference(sample_seed: int) -> tuple[float, float]:
    """(E_L, E*) of scatter row ``sample_seed - seed``, from the brute-force oracle.

    The state comes from the program's sampler; the Schmidt probabilities
    (``eigvalsh``) and the linear entropy are computed here.
    """
    from mirrorent.monotones import fidelity_bruteforce
    from mirrorent.spectra import stellar
    from mirrorent.states import SchmidtSpectrum, random_pure

    m = random_pure(4, 4, sample_seed).amplitudes
    p = np.clip(np.linalg.eigvalsh(m @ m.conj().T)[::-1], 0.0, None)
    p = p / p.sum()
    el = 4.0 / 3.0 * (1.0 - p @ p)
    return el, fidelity_bruteforce(SchmidtSpectrum.from_probs(p), stellar(4)).me


@dataclass(frozen=True)
class ExactLargeD(Workload):
    # (d, number of probability vectors); each vector meets stellar(d) and a
    # fresh random-phase spectrum.
    vectors: tuple = ((64, 24), (128, 8), (192, 4))
    table_vectors: int = 200  # per d in the small-d scaling pass of a traced run

    @property
    def cases(self) -> int:
        return 2 * sum(n for _, n in self.vectors)

    def inputs(self, seed: int):
        """(d, probabilities sorted non-increasing, raw random phases) per vector."""
        for d, n in self.vectors:
            rng = np.random.default_rng([seed, d])
            for _ in range(n):
                yield d, np.sort(rng.dirichlet(np.ones(d)))[::-1], rng.uniform(0.0, 2.0 * np.pi, d)

    def solve(self, seed: int) -> list[dict]:
        from mirrorent import monotones, spectra, states

        stellar = {d: spectra.stellar(d) for d, _ in self.vectors}
        calls = []
        for d, p, phases in self.inputs(seed):
            probs = states.SchmidtSpectrum.from_probs(p)
            for kind, spec in (("stellar", stellar[d]), ("random", spectra.LUSpectrum.from_phases(phases))):
                sol = monotones.fidelity_exact(probs, spec)
                calls.append({"d": d, "kind": kind, "sigma": list(sol.sigma), "fidelity": sol.fidelity})
        return calls

    def execute(self, seed, out, threads=None):
        text = json.dumps({"calls": self.solve(seed)})
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0

    def failures(self, data, seed):
        calls = json.loads(data)["calls"]
        if len(calls) != self.cases:
            raise ValueError(f"{len(calls)} optimizer results, expected {self.cases}")
        failed = 0
        expected = ((d, p, kind, phases) for d, p, phases in self.inputs(seed) for kind in ("stellar", "random"))
        for call, (d, p, kind, phases) in zip(calls, expected):
            if (call["d"], call["kind"]) != (d, kind):
                raise ValueError("optimizer results are out of order")
            if kind == "stellar":
                phases = (d - 2 * np.arange(1, d + 1) + 1) * np.pi / d
            lam = np.exp(1j * np.sort(np.mod(phases, 2.0 * np.pi)))
            failed += not _is_optimal_assignment(call["sigma"], call["fidelity"], lam, p)
        return failed

    def extra_layers(self, seed):
        """The fidelity_exact table at small d, and peak allocation at large d."""
        import tracemalloc

        from mirrorent import monotones, spectra, states
        from tracer import ALLOC_DIMS, TABLE_DIMS, Tracer

        small = dataclasses.replace(self, vectors=tuple(
            (d, self.table_vectors) for d in TABLE_DIMS if d not in dict(self.vectors)))
        tracer = Tracer()
        tracer.install()
        try:
            small.solve(seed)
        finally:
            tracer.uninstall()
        layers = {k: v for k, v in tracer.table().items() if v}
        for d in ALLOC_DIMS:
            rng = np.random.default_rng([seed, d, 1])
            probs = states.SchmidtSpectrum.from_probs(rng.dirichlet(np.ones(d)))
            spec = spectra.LUSpectrum.from_phases(rng.uniform(0.0, 2.0 * np.pi, d))
            tracemalloc.start()
            try:
                monotones.fidelity_exact(probs, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            layers[f"monotones.fidelity_exact.d{d}.random.peak_alloc_mb"] = peak / 2**20
        return layers


def _is_optimal_assignment(sigma, fidelity, lam: np.ndarray, p: np.ndarray) -> bool:
    """sigma is a permutation reproducing ``fidelity``, and no transposition beats it.

    Swapping the eigenvalues of positions i and j changes the overlap by
    (a_j - a_i)(p_i - p_j) with a = lam[sigma]; every optimum passes.
    """
    d = lam.size
    sigma = np.asarray(sigma)
    if sigma.shape != (d,) or not np.array_equal(np.sort(sigma), np.arange(d)):
        return False
    a = lam[sigma]
    z = a @ p
    if not abs(abs(z) ** 2 - fidelity) <= ORACLE_TOL:
        return False
    swapped = z + (a[None, :] - a[:, None]) * (p[:, None] - p[None, :])
    return bool(np.abs(swapped).max() <= abs(z) + ORACLE_TOL)


WORKLOADS = {
    w.name: w
    for w in (
        VerifyAll(
            "verify-all",
            "every suite of `verify all` at d <= 8: the evidence product, and the only workload "
            "in which every module does work",
        ),
        ScatterD4(
            "scatter-d4",
            "`sample` at d=4: one reused stellar spectrum, so only sampling, eigh and the "
            "optimizer work, and per-call overhead shows",
        ),
        ExactLargeD(
            "exact-large-d",
            "library calls to fidelity_exact at d=64..192 on stellar and random spectra: the "
            "optimizer does nearly all the work and memory grows ~d^3",
        ),
        LoccPool(
            "locc-pool",
            "`verify locc` on a 2-worker process pool: the only workload on the pool path, "
            "dominated by the locc layer",
            threads=2,
        ),
    )
}


def from_request(request: dict) -> Workload:
    """The named workload, with the sizes a request overrides."""
    return dataclasses.replace(WORKLOADS[request["workload"]], **request.get("sizes", {}))
