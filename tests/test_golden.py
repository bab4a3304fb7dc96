"""Behaviour pins: output bytes of small fixed runs of the CLI.

Each case runs ``obstaclesim sweep``, ``simulate``, ``network`` or
``ordering`` on a tiny config and compares the SHA-256 of its output files with constants. A
refactor that claims to keep behaviour must keep these hashes; a change that
alters output on purpose updates them and says so.
"""
import hashlib

import pytest

from obstaclesim.cli import main

CLASSES = (
    "[scene]\nradius = 3,4.5,6\ncost = 1,5,9\n"
    "[composition]\nkind = mixed\nn_true = 20\nn_false = 60\n"
)

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
    # gamma = 1, the control cell of criterion 7: every proposal accepted
    "strauss-gamma1": (
        "[placement]\nkind = strauss\ngamma = 1.0\nd = 7.0\nburn_in = 100\n"
        "[composition]\nkind = falseonly\nn_false = 80\n",
        2,
        "29691b5142cf51539f400caffe7449a4abef7e55fa77463b1acb0e02eefd4ca8",
    ),
    # hard core at d = 2: most proposals accepted, many points move per sweep
    "strauss-d2": (
        "[placement]\nkind = strauss\ngamma = 0.0\nd = 2.0\nburn_in = 100\n"
        "[composition]\nkind = falseonly\nn_false = 80\n",
        2,
        "aef8dc931fe12fc75e8e6ab52c7edd83ef805b5169b780576574ec77495cb823",
    ),
    # three paired radius/cost classes: one class index per obstacle
    "classes": (
        CLASSES,
        2,
        "4be3368e2398faa71e18f664cc7700cba4d71c693d9358366448db5451f926b3",
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


SIMULATE_CASES = {
    # uniform FalseOnly(8) cell on the default lattice
    "uniform": (
        "[composition]\nkind = falseonly\nn_false = 8\n",
        {
            "obstacles.csv": "0a592251541991c6c9e96a0cf58ff71c645629d7dbbbafc09cb32b9ceb4ec408",
            "walk.csv": "eedc7cc087d7edf8e00d45f736526d4347da6e347c4acfdfbe565e9ac69e4f46",
            "scene.svg": "b88c2cf23ae4947bc3c4fce79bf92a06238e5ddf5ec9fe9c276693eac1755999",
        },
    ),
    # hard-core Strauss cell, short burn-in
    "strauss": (
        "[placement]\nkind = strauss\ngamma = 0.0\nd = 9.0\nburn_in = 50\n"
        "[composition]\nkind = falseonly\nn_false = 20\n",
        {
            "obstacles.csv": "9c63df2f922e7418635b90971b83d69a5c3fbacb167eae5fa4686865d4617406",
            "walk.csv": "d8666994787e26476c8c1c55603b04262e1c575b5451eb42b3a84f18713023df",
            "scene.svg": "d5e95a5c0b8f5702a41d3e4658f22460b4acf7f0fd7aa37a0f7c2942ffc1aa4f",
        },
    ),
    # the radius/cost class scene of the "classes" records case
    "classes": (
        CLASSES,
        {
            "obstacles.csv": "a3d764e676278acb88b06dea31c41ec4d8386652595feb163800bb222ab0bcd2",
            "walk.csv": "41f9d4a963052edcf49183af0f899788da80a82110efc495a05eb7f79882ffaa",
            "scene.svg": "97ad468a95ccc863fe62e04d5b646dbc699dccec91c1c2c80a154cb0a2985fab",
        },
    ),
}


def _digests(out, names):
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_hash(tmp_path, name):
    text, expected = SIMULATE_CASES[name]
    cfg = tmp_path / "c.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg), "--out", str(out), "--seed", "7", "--svg"]
    assert main(argv) == 0
    assert _digests(out, expected) == expected


# 4x4 street grid with 10-unit blocks; node 4j+i sits at (10i, 10j)
NODES = "id,x,y\n" + "".join(
    f"{4 * j + i},{10 * i},{10 * j}\n" for j in range(4) for i in range(4)
)
EDGES = (
    "u,v\n"
    + "".join(f"{4 * j + i},{4 * j + i + 1}\n" for j in range(4) for i in range(3))
    + "".join(f"{4 * j + i},{4 * (j + 1) + i}\n" for j in range(3) for i in range(4))
)

NETWORK_CASES = {
    # obstacle table without the mark column: marks come from the seed
    "file": (
        "[network]\nsource = 0\ntarget = 15\nobstacles = obs.csv\n",
        {
            "obstacles.csv": "71f6beccf07a2050f1512c9e42fb0151fbc8119f3bc0e16b19d8749cce22623d",
            "walk.csv": "5f9e195540b73d725b01b47f94c031161f45975573df24ddbb0240c82dee6cfc",
            "network.svg": "8cd35ec263e91b773c6c097e6d91445aea9eaefc9be85959abe7df2ff770edf9",
        },
    ),
    # placement-driven obstacles over the node bounding box
    "generated": (
        "[scene]\nradius = 3.0\ncost = 2.0\n"
        "[composition]\nkind = mixed\nn_true = 2\nn_false = 8\n"
        "[network]\nsource = 0\ntarget = 15\n",
        {
            "obstacles.csv": "a85bb68aa528b648bf3c76e6e6d956385321ddbe04c266eff5cda3e9aaa752ce",
            "walk.csv": "00f2165863d6423566f63786af55c66823addb43124fda65e71149517ff8a9d0",
            "network.svg": "036e74748003e51ef5a8d2714a24eadb2e39290f906202338460425ea2adfca4",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(NETWORK_CASES))
def test_network_hash(tmp_path, name):
    text, expected = NETWORK_CASES[name]
    (tmp_path / "nodes.csv").write_text(NODES, encoding="utf-8")
    (tmp_path / "edges.csv").write_text(EDGES, encoding="utf-8")
    (tmp_path / "obs.csv").write_text(
        "x,y,r,status,c\n15,5,3,F,2\n25,15,4,T,3\n5,25,2,F,1\n"
        "30,0,3,F,1\n0,30,3,F,1\n15,15,8,F,2.5\n",
        encoding="utf-8",
    )
    cfg = tmp_path / "c.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["network", str(tmp_path / "nodes.csv"), str(tmp_path / "edges.csv"),
            "--config", str(cfg), "--out", str(out), "--seed", "7", "--svg"]
    assert main(argv) == 0
    assert _digests(out, expected) == expected


ORDERING_CASES = {
    # uniform field with the ratio and sensor-fidelity experiments
    "uniform": (
        "[ordering]\nn_obstacles = 40\nratios = 0,0.5,1,3\nblunt_beta = 3,5\n",
        "ef813a8dd463fc7dc5b07462c4514f0851f60b82fd93909162487ca56c480ab7",
    ),
    # soft Strauss, short burn-in
    "strauss": (
        "[placement]\nkind = strauss\ngamma = 0.3\nd = 7.0\nburn_in = 30\n"
        "[ordering]\nn_obstacles = 40\n",
        "92bb1ea06996fd9c4c3e2ebca776007afa76e6936ef479557279698ee2c7d654",
    ),
    # a few Matern offspring, so many replications miss the path
    "matern": (
        "[placement]\nkind = matern\nkappa = 3\nr0 = 6.0\n"
        "[ordering]\nn_obstacles = 7\n",
        "34d0fff65591933ebd269ba7bfe6068ba8473fa37e7652e09129623e83a88609",
    ),
}


# the verdict lines the uniform case prints, before "wrote ... to <out path>"
ORDERING_UNIFORM_STDOUT = [
    "marks-analytic: beta(2,6) <=st beta(6,2): holds (max violation 0)",
    "composition: falseonly <=st mixed: holds (max violation 0)",
    "composition: mixed <=st trueonly: holds (max violation 0)",
    "ratio: rho=0 <=st rho=0.5: holds (max violation 0)",
    "ratio: rho=0.5 <=st rho=1: holds (max violation 0)",
    "ratio: rho=1 <=st rho=3: holds (max violation 0)",
    "sensor-falseonly: falseonly beta(2,6) <=st falseonly beta(3,5): holds (max violation 0)",
    "sensor-trueonly: trueonly beta(3,5) <=st trueonly beta(2,6): holds (max violation 0)"
    " [sharper marks raise all-true path weights]",
]


def _run_ordering(tmp_path, name):
    cfg = tmp_path / "c.ini"
    cfg.write_text(ORDERING_CASES[name][0], encoding="utf-8")
    out = tmp_path / "out"
    argv = ["ordering", "--config", str(cfg), "--out", str(out),
            "--reps", "100", "--seed", "7"]
    assert main(argv) == 0
    return out


@pytest.mark.parametrize("name", sorted(ORDERING_CASES))
def test_ordering_hash(tmp_path, name):
    out = _run_ordering(tmp_path, name)
    assert _digests(out, ["ordering.csv"]) == {"ordering.csv": ORDERING_CASES[name][1]}


def test_ordering_uniform_stdout(tmp_path, capsys):
    out = _run_ordering(tmp_path, "uniform")
    *verdicts, last = capsys.readouterr().out.splitlines()
    assert verdicts == ORDERING_UNIFORM_STDOUT
    assert last == f"wrote 8 ordering rows to {out / 'ordering.csv'}"
