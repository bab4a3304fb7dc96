"""Behaviour pin: records.csv bytes of a small fixed sweep per scene kind.

Each case runs ``obstaclesim sweep`` on a tiny config and compares the
SHA-256 of its records.csv with a constant. A refactor that claims to keep
behaviour must keep these hashes; a change that alters records on purpose
updates them and says so.
"""
import hashlib

import pytest

from obstaclesim.cli import main

CASES = {
    # default uniform FalseOnly(80) cell
    "uniform": (
        "[composition]\nkind = falseonly\nn_false = 80\n",
        3,
        "00bf9097d7af744e41f34d1e0af46ea7734d53510cf4f069f9bfe9add7879de3",
    ),
    # Mixed(40 true, 120 false) at cost 0.5: true disks and many replans
    "dense-replan": (
        "[scene]\ncost = 0.5\n"
        "[composition]\nkind = mixed\nn_true = 40\nn_false = 120\n",
        2,
        "cf4b25a61fabda3d9a750d90b11927de005d4c3dddeafac916ad05029b515970",
    ),
    # one Strauss cell, short burn-in
    "strauss": (
        "[placement]\nkind = strauss\ngamma = 0.0\nd = 7.0\nburn_in = 100\n"
        "[composition]\nkind = falseonly\nn_false = 80\n",
        2,
        "439d3345ee0f70271c4b621448d123e8d3f4de6c0ccdaae90cc14068f4457e63",
    ),
    # 0 < gamma < 1: accept decisions read the uniform u of each proposal
    "strauss-soft": (
        "[placement]\nkind = strauss\ngamma = 0.5\nd = 7.0\nburn_in = 50\n"
        "[composition]\nkind = falseonly\nn_false = 80\n",
        2,
        "6a0288f9a2842381ef6f7a92a3cfd7e213d6a6fa4b3c93a7bd86435ee1c3ca06",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_hash(tmp_path, name):
    text, reps, expected = CASES[name]
    cfg = tmp_path / "c.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(cfg), "--out", str(out),
            "--reps", str(reps), "--seed", "7"]
    assert main(argv) == 0
    digest = hashlib.sha256((out / "records.csv").read_bytes()).hexdigest()
    assert digest == expected
