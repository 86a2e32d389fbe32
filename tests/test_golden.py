"""Seed-to-bytes pins: the sha256 of two reference outputs at seed 0.

A refactor that keeps every output must leave both digests unchanged. A
moved digest is a behaviour change to explain, never a value to update.
"""

import hashlib

from mirrorent.cli import main

SAMPLE_D4_SHA256 = "0aeef14022ca65fef7b3dd0b52478d191482f1a6528ff9fb670d9774c2817407"
VERIFY_ALL_SHA256 = "5414c27f9aaeb5287436d8a6c63f29f8a5d973f44af653eb62f0d9bca17aa09e"


def digest_of(tmp_path, *argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_sample_d4_pin(tmp_path):
    assert digest_of(tmp_path, "sample", "--d", "4", "--samples", "20000", "--seed", "0") == SAMPLE_D4_SHA256


def test_verify_all_pin(tmp_path):
    assert digest_of(tmp_path, "verify", "all", "--scale", "0.1", "--seed", "0") == VERIFY_ALL_SHA256
