"""Seed-to-bytes pins: the sha256 of reference outputs at seed 0, of the
hierarchy report at d = 8, of a LOCC report with dA != dB, of the
majorization audit CSV, of ``compute``
over a fixed grid and of ``fidelity_exact`` at d = 16 and 32 (the compiled
sweep) and at d = 64, 96, 128 and 192 (the event sweep), of ``fidelity_exact`` and
``fidelity_exact_many`` on tied inputs at every d = 2..32, and of the
arrays the event sweep compiles for two spectra at d = 64.

A refactor that keeps every output must leave every digest unchanged. A
moved digest is a behaviour change to explain, never a value to update.
"""

import hashlib

import numpy as np

from mirrorent.cli import main
from mirrorent.monotones import _compile_events, fidelity_exact, fidelity_exact_many
from mirrorent.spectra import TWO_PI, LUSpectrum, stellar
from mirrorent.states import SchmidtSpectrum, rng_for_seed

SAMPLE_D4_SHA256 = "0aeef14022ca65fef7b3dd0b52478d191482f1a6528ff9fb670d9774c2817407"
VERIFY_ALL_SHA256 = "5414c27f9aaeb5287436d8a6c63f29f8a5d973f44af653eb62f0d9bca17aa09e"
COMPUTE_GRID_SHA256 = "528e6c9ee4973b57bfde55b3f9bcc26ed76377f4326af754ee3ae71735f4d3ee"
MAJORIZATION_CSV_SHA256 = "d7b9a31059744146bb04e877e43cf783b9eebc6dfb100d4c9deb5a61237b4d7f"
EXACT_LARGE_D_SHA256 = "77d1f4c351de3e8d0f07aa59633d2774755b3d92f993163f20706ca5132b5df7"
EXACT_EVENT_SHA256 = "18f69f126152f16cce554479a23ea0f8616dd68c96952823730ec451a86269a1"
EVENT_COMPILE_SHA256 = "1808522c578ace9707a92ced38da452c6a1900e9592656f22b22985c370a0b13"
TIE_GRID_SHA256 = "4f3c3b6ddc08b2b092de8a995b543da5329dcb9aef686f132950452f1f8242c7"
HIERARCHY_D8_SHA256 = "173def795f65132a06cb2dc30a367e8b15540e09cdd999a6d42a57f88b433f46"
LOCC_RECT_SHA256 = "8267e150e47a9d0c72edcff238260ad2db05fb8dc24513157216ec3b927039cc"

# Probability vectors with ties and zeros, each met by the stellar
# spectrum, a degenerate and an irregular gaps spectrum of its dimension.
GRID_PROBS = ["1", "0.5,0.5", "0.5,0.3,0.2", "0.25,0.25,0.25,0.25", "0.4,0.4,0.2,0", "0.7,0.2,0.1,0,0"]
DEGENERATE_GAPS = {1: "1", 2: "0,1", 3: "0,0.5,0.5", 4: "0,0,0.5,0.5", 5: "0,0,0,0.5,0.5"}
IRREGULAR_GAPS = {1: "1", 2: "0.3,0.7", 3: "0.17,0.31,0.52", 4: "0.1,0.2,0.3,0.4", 5: "0.05,0.4,0.11,0.23,0.21"}


def digest_of(tmp_path, *argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_sample_d4_pin(tmp_path):
    assert digest_of(tmp_path, "sample", "--d", "4", "--samples", "20000", "--seed", "0") == SAMPLE_D4_SHA256


def test_verify_all_pin(tmp_path):
    assert digest_of(tmp_path, "verify", "all", "--scale", "0.1", "--seed", "0") == VERIFY_ALL_SHA256


def test_hierarchy_d8_pin(tmp_path):
    # Beyond verify all's d <= 6, and with draws whose coincident block sits at the 0 / 2*pi seam.
    digest = digest_of(tmp_path, "verify", "hierarchy", "--d", "8", "--trials", "200", "--seed", "0")
    assert digest == HIERARCHY_D8_SHA256


def test_locc_rect_pin(tmp_path):
    # A rectangular state, which verify all never builds: side B's channels act on the longer side.
    digest = digest_of(tmp_path, "verify", "locc", "--d", "2", "--db", "3", "--kraus-count", "3", "--trials", "300",
                       "--seed", "0")
    assert digest == LOCC_RECT_SHA256


def test_majorization_csv_pin(tmp_path):
    csv = tmp_path / "steps.csv"
    digest_of(tmp_path, "verify", "majorization", "--d", "4", "--trials", "30", "--subdiv", "16", "--seed", "0",
              "--csv", str(csv))
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == MAJORIZATION_CSV_SHA256


def test_compute_grid_pin(tmp_path):
    h = hashlib.sha256()
    out = tmp_path / "out"
    for probs in GRID_PROBS:
        d = probs.count(",") + 1
        for spec in ("stellar", "gaps:" + DEGENERATE_GAPS[d], "gaps:" + IRREGULAR_GAPS[d]):
            assert main(["compute", "--probs", probs, "--spectrum", spec, "--out", str(out)]) == 0
            h.update(out.read_bytes())
    assert h.hexdigest() == COMPUTE_GRID_SHA256


def exact_digest(dims):
    # sigma and the overlap's exact bits, for Dirichlet vectors and one with
    # blocks of tied probabilities, on stellar and seeded random spectra.
    h = hashlib.sha256()
    for d in dims:
        rng = rng_for_seed(d)
        vectors = [rng.dirichlet(np.ones(d)) for _ in range(3)] + [np.repeat(rng.dirichlet(np.ones(d // 4)), 4) / 4]
        for spec in (stellar(d), LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d))):
            for p in vectors:
                sol = fidelity_exact(SchmidtSpectrum.from_probs(p), spec)
                h.update(f"{sol.sigma} {sol.overlap.real.hex()} {sol.overlap.imag.hex()}\n".encode())
    return h.hexdigest()


def test_exact_large_d_pin():
    assert exact_digest((16, 32)) == EXACT_LARGE_D_SHA256


def test_exact_event_pin():
    # Above COMPILED_SWEEP_CAP = 32, where fidelity_exact runs the event sweep.
    assert exact_digest((64, 96, 128, 192)) == EXACT_EVENT_SHA256


def tie_grid_inputs(d):
    """Spectra and weight vectors of dimension d whose optimum is tied many ways."""
    rng = rng_for_seed(1000 + d)
    # Positive gaps after every third phase and at the seam, exact zeros between: clusters of up to 3.
    gaps = np.where((np.arange(d) % 3 == 2) | (np.arange(d) == d - 1), rng.uniform(0.5, 1.5, d), 0.0)
    spectra = (stellar(d), LUSpectrum.from_gaps(gaps / gaps.sum()),
               LUSpectrum.from_phases(rng.uniform(0.0, TWO_PI, d)))
    zeros = d // 3
    vectors = [
        np.repeat(rng.dirichlet(np.ones(-(-d // 2))), 2)[:d],  # repeated pairs
        np.repeat(rng.dirichlet(np.ones(-(-d // 3))), 3)[:d],  # repeated triples
        np.concatenate([rng.dirichlet(np.ones(d - zeros)), np.zeros(zeros)]),  # trailing zeros
        np.concatenate([np.repeat(rng.dirichlet(np.ones(-(-(d - zeros) // 2))), 2)[:d - zeros], np.zeros(zeros)]),
        np.ones(d),  # every weight tied
    ]
    return spectra, [SchmidtSpectrum.from_probs(v / v.sum()) for v in vectors]


def test_tie_grid_pin():
    # sigma and the overlap's bits, one case at a time and as one stack, where many sigma tie.
    h = hashlib.sha256()
    for d in range(2, 33):
        spectra, vectors = tie_grid_inputs(d)
        for spec in spectra:
            for p in vectors:
                sol = fidelity_exact(p, spec)
                h.update(f"{sol.sigma} {sol.overlap.real.hex()} {sol.overlap.imag.hex()}\n".encode())
            many = fidelity_exact_many(np.array([p.probs for p in vectors]), spec)
            for sigma, z in zip(many.sigma.tolist(), many.overlap.tolist()):
                h.update(f"{tuple(sigma)} {z.real.hex()} {z.imag.hex()}\n".encode())
    assert h.hexdigest() == TIE_GRID_SHA256


def test_event_compile_pin():
    # Every array the event sweep keeps, with its dtype and shape, for the stellar
    # spectrum (crossings at shared angles) and a random-phase one.
    h = hashlib.sha256()
    for spec in (stellar(64), LUSpectrum.from_phases(rng_for_seed(64).uniform(0.0, TWO_PI, 64))):
        for a in _compile_events(spec):
            h.update(f"{a.dtype} {a.shape}\n".encode() + a.tobytes())
    assert h.hexdigest() == EVENT_COMPILE_SHA256
