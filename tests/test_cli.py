import csv
import math

import pytest

from obstaclesim import cli
from obstaclesim.cli import ConfigError, load_config, main
from obstaclesim.pointproc import count_close_pairs

RECORD_HEADER = (
    "placement,gamma,d,kappa,r0,composition,n_T,n_F,rep,seed,C,n_dis,walk_length"
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def make_network(tmp_path, nodes, edges):
    nodes_csv = write(
        tmp_path / "nodes.csv",
        "id,x,y\n" + "\n".join(f"{i},{x},{y}" for i, x, y in nodes) + "\n",
    )
    edges_csv = write(
        tmp_path / "edges.csv",
        "u,v\n" + "\n".join(",".join(str(v) for v in e) for e in edges) + "\n",
    )
    return nodes_csv, edges_csv


def run_network_files(tmp_path, files):
    """Exit code of ``network`` from node 0 to node 1 on the ``nodes``,
    ``edges`` and ``obstacles`` texts of ``files``, writing to ``tmp_path / "o"``."""
    paths = {name: write(tmp_path / f"{name}.csv", text) for name, text in files.items()}
    cfg = write(
        tmp_path / "c.ini",
        f"[network]\nsource = 0\ntarget = 1\nobstacles = {paths['obstacles']}\n",
    )
    return main(["network", paths["nodes"], paths["edges"], "--config", cfg,
                 "--out", str(tmp_path / "o")])


# One valid value for every config key.
VALUES = {
    "scene": {"grid": "21x21", "source": "10,20", "target": "10,0", "radius": "2",
              "cost": "2", "beta": "2,6", "insertion": "1,9,1,9"},
    "placement": {"kind": "uniform", "gamma": "0.5", "d": "7", "burn_in": "50",
                  "kappa": "4", "r0": "2"},
    "composition": {"kind": "falseonly", "n_false": "3", "n_true": "3",
                    "n_total": "6", "frac_true": "0.5"},
    "run": {"reps": "2", "seed": "1", "jobs": "1"},
    "ordering": {"n_obstacles": "5", "reps": "10", "tol": "0.02", "ratios": "1,2",
                 "blunt_beta": "3,5"},
    "network": {"source": "0", "target": "1", "obstacles": "obs.csv"},
}


def keys(section, *names):
    return {(section, name) for name in names or VALUES[section]}


CELL_READS = keys("scene") | keys("placement") | keys("composition") | keys("run", "seed")
NETWORK_READS = keys("network") | keys("scene", "beta") | keys("run", "seed")
# What each command reads; "network+table" is given an obstacle table and
# "network+field" a [composition], so it generates its obstacles.
READS = {
    "simulate": CELL_READS,
    "sweep": CELL_READS | keys("run", "reps", "jobs"),
    "ordering": keys("scene", "beta") | keys("placement") | keys("ordering")
    | keys("run", "seed"),
    "network+table": NETWORK_READS,
    "network+field": NETWORK_READS | keys("scene", "radius", "cost", "insertion")
    | keys("placement") | keys("composition"),
}
BASE_CONFIG = {
    "network": "[network]\nsource = 0\ntarget = 1\n",
    "network+table": "[network]\nsource = 0\ntarget = 1\nobstacles = obs.csv\n",
    "network+field": "[composition]\nn_false = 3\n[network]\nsource = 0\ntarget = 1\n",
}
CONTRACT_CASES = [
    pytest.param(mode, f"[{section}]\n{key} = {VALUES[section][key]}\n",
                 f"[{section}] {key}", id=f"{mode}-{section}.{key}")
    for mode, reads in READS.items()
    for section in VALUES
    for key in VALUES[section]
    if (section, key) not in reads
] + [
    pytest.param(mode, text, key, id=name)
    for name, mode, text, key in [
        ("grid", "network", "[scene]\ngrid = 5x5\n", "[scene] grid"),
        ("source", "network", "[scene]\nsource = 0,0\n", "[scene] source"),
        ("target", "network", "[scene]\ntarget = 1,0\n", "[scene] target"),
        ("composition-with-table", "network+table",
         "[composition]\nkind = falseonly\nn_false = 3\n", "[composition] kind"),
        ("n_false-with-table", "network+table", "[composition]\nn_false = 3\n",
         "[composition] n_false"),
        ("placement-with-table", "network+table", "[placement]\nkind = matern\n",
         "[placement] kind"),
        ("radius-with-table", "network+table", "[scene]\nradius = 2\n", "[scene] radius"),
        ("placement-alone", "network", "[placement]\nkind = strauss\n", "[placement] kind"),
        ("cost-alone", "network", "[scene]\ncost = 2\n", "[scene] cost"),
        ("ordering-cell-run-network-keys", "ordering",
         "[scene]\nradius = 1.0\ncost = 50\ngrid = 5x5\ninsertion = 0,1,0,1\n"
         "[composition]\nkind = trueonly\n[run]\njobs = 7\nreps = 3\n"
         "[network]\nsource = 3\n", "[scene] grid"),
        ("sweep-ordering-network-keys", "sweep",
         "[ordering]\nratios = 1,2\n[network]\nobstacles = nope.csv\n",
         "[ordering] ratios"),
        ("simulate-ordering-network-keys", "simulate",
         "[ordering]\nratios = 1,2\n[network]\nobstacles = nope.csv\n",
         "[ordering] ratios"),
    ]
]


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.get("scene", "grid") == (101, 101)
        assert cfg.get("run", "reps") == 100
        assert not cfg.given("placement", "kind")

    def test_unknown_section(self, tmp_path):
        path = write(tmp_path / "c.ini", "[scen]\nradius = 4.5\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path / "c.ini", "[scene]\nradus = 4.5\n")
        with pytest.raises(ConfigError, match="radus"):
            load_config(path)

    def test_malformed_number(self, tmp_path):
        path = write(tmp_path / "c.ini", "[scene]\nradius = abc\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_comments_and_values(self, tmp_path):
        path = write(
            tmp_path / "c.ini",
            "# leading comment\n"
            "[scene]\n"
            "radius = 6.0  # inline comment\n"
            "grid = 21x21\n"
            "[run]\n"
            "seed = 7\n",
        )
        cfg = load_config(path)
        assert cfg.get("scene", "radius") == (6.0,)
        assert cfg.get("scene", "grid") == (21, 21)
        assert cfg.get("run", "seed") == 7
        assert cfg.given("scene", "radius")

    def test_byte_order_mark_is_not_part_of_the_file(self, tmp_path):
        # editors that save "UTF-8 with BOM" put U+FEFF before the first section
        path = write(tmp_path / "c.ini", "\ufeff[composition]\nn_false = 3\n")
        assert load_config(path).get("composition", "n_false") == (3,)

    def test_placement_kind_checks_foreign_keys(self, tmp_path):
        path = write(
            tmp_path / "c.ini", "[placement]\nkind = uniform\ngamma = 0.5\n"
        )
        with pytest.raises(ConfigError, match="gamma"):
            load_config(path)

    def test_mixed_rejects_both_count_styles(self, tmp_path):
        path = write(
            tmp_path / "c.ini",
            "[composition]\nkind = mixed\nn_total = 40\nfrac_true = 0.5\n"
            "n_true = 10\nn_false = 30\n",
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_kind(self, tmp_path):
        path = write(tmp_path / "c.ini", "[placement]\nkind = poisson\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nradius = 9\n", "[DEFAULT]\nseed = 7\n[run]\nseed = 3\n[scene]\nradius = 4\n"],
        ids=["alone", "beside-sections"],
    )
    def test_default_section_is_unknown(self, tmp_path, capsys, text):
        # configparser merges [DEFAULT] into every section the file has and
        # leaves it out of the sections it lists
        path = write(tmp_path / "c.ini", text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown section [DEFAULT]" in err, err
        assert not out.exists()

    def test_unknown_section_exit_code(self, tmp_path, capsys):
        path = write(tmp_path / "c.ini", "[nope]\nx = 1\n")
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, flags, key",
        [
            ("sweep", "[run]\njobs = 0\n", [], "[run] jobs"),
            ("sweep", "", ["--jobs", "0"], "[run] jobs"),
            ("sweep", "", ["--jobs", "-4"], "[run] jobs"),
            ("sweep", "", ["--reps", "0"], "[run] reps"),
            ("simulate", "[scene]\nsource = -1,100\n", [], "source -1,100"),
            ("simulate", "[scene]\nsource = 101,50\n", [], "source 101,50"),
            ("simulate", "[scene]\nsource = 50,200\n", [], "source 50,200"),
            ("simulate", "[scene]\nsource = 50,1\n", [], "source and target"),
            ("sweep", "[scene]\ngrid = 1x5\n", [], "grid"),
            ("simulate", "[scene]\ninsertion = 200,300,200,300\n[composition]\n"
             "n_false = 5\n", [], "[scene] insertion"),
            ("sweep", "[scene]\ninsertion = 200,300,200,300\n", [], "[scene] insertion"),
            ("simulate", "[placement]\nkind = strauss\ngamma = 2\n", [],
             "[placement] gamma"),
            ("sweep", "[placement]\nkind = strauss\ngamma = 2\n", [], "[placement] gamma"),
            ("sweep", "[placement]\nkind = strauss\nd = 0\n", [], "[placement] d"),
            ("simulate", "[placement]\nkind = strauss\nburn_in = -1\n", [],
             "[placement] burn_in must"),
            ("sweep", "[placement]\nkind = matern\nkappa = 0\n", [], "[placement] kappa"),
            ("simulate", "[placement]\nkind = matern\nkappa = 0\n[composition]\n"
             "n_false = 0\n", [], "[placement] kappa"),
            ("simulate", "[placement]\nkind = matern\nr0 = -1\n", [], "[placement] r0"),
            ("sweep", "[placement]\nkind = matern\nkappa = 100\n", [],
             "[placement] kappa"),
            ("sweep", "[scene]\nradius = 4.5,,5\n", [], "[scene] radius: expected number"),
            ("sweep", "[composition]\nn_false = 10,,20\n", [],
             "[composition] n_false: expected integer"),
            ("sweep", "[scene]\nradius = 4.5,\n", [], "[scene] radius: expected number"),
            ("simulate", "[scene]\nradius = 1e308\n[composition]\nn_false = 1\n", [],
             "[scene] radius must be finite, > 0 and at most 2**200"),
            ("sweep", "[scene]\nradius = 1e308\n[composition]\nn_false = 1\n", [],
             "[scene] radius must be finite, > 0 and at most 2**200"),
            ("simulate", "[scene]\ninsertion = 10,90,10,1e300\n[composition]\nn_false = 1\n",
             [], "[scene] insertion bounds must be at most 2**200"),
            ("sweep", "[scene]\ninsertion = 10,90,10,1e300\n[composition]\nn_false = 1\n",
             [], "[scene] insertion bounds must be at most 2**200"),
            ("simulate", "[composition]\nn_false = -1\n", [],
             "[composition] n_false must be >= 0, got -1"),
            ("simulate", "[composition]\nkind = trueonly\nn_true = -2\n", [],
             "[composition] n_true must be >= 0, got -2"),
            ("sweep", "[composition]\nkind = mixed\nn_true = 5,-1\nn_false = 3\n", [],
             "[composition] n_true must be >= 0, got -1"),
            ("simulate", "[composition]\nkind = mixed\nn_total = -5\nfrac_true = 0.3\n", [],
             "[composition] n_total must be >= 0, got -5"),
            ("sweep", "[composition]\nkind = mixed\nn_total = 80,-5\nfrac_true = 0.3\n", [],
             "[composition] n_total must be >= 0, got -5"),
        ],
        ids=["jobs", "jobs-flag", "jobs-flag-negative", "reps-flag", "source-wraps-x",
             "source-wraps-row", "source-off-grid", "source-is-target", "grid-1x5",
             "insertion-off-grid", "sweep-insertion-off-grid", "strauss-gamma",
             "sweep-strauss-gamma", "strauss-d", "strauss-burn_in", "matern-kappa",
             "matern-kappa-empty-field", "matern-r0", "matern-kappa-above-n",
             "list-empty-entry", "int-list-empty-entry", "list-trailing-comma",
             "radius-1e308", "sweep-radius-1e308", "insertion-1e300", "sweep-insertion-1e300",
             "negative-n_false", "negative-n_true", "sweep-negative-n_true",
             "negative-n_total", "sweep-negative-n_total"],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, text, flags, key):
        path = write(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)] + flags) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_clear_corridor_summary(self, tmp_path, capsys):
        # insertion window far from the x=50 column: traversal is the
        # obstacle-free straight run
        path = write(
            tmp_path / "c.ini",
            "[scene]\ninsertion = 60,90,10,90\n[composition]\nn_false = 10\n",
        )
        out = tmp_path / "out"
        code = main(["simulate", "--config", path, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "distance=99, disambiguation=0, total=99"
        )
        rows = read_rows(out / "obstacles.csv")
        assert rows[0] == ["id", "x", "y", "r", "status", "p", "c"]
        assert len(rows) == 11
        for row in rows[1:]:
            assert 60.0 <= float(row[1]) <= 90.0
            assert row[4] == "F"
        walk = read_rows(out / "walk.csv")
        assert walk[0] == ["step", "vertex", "x", "y", "cum_distance", "event"]
        assert walk[1][:2] == ["0", str(100 * 101 + 50)]
        assert walk[-1][4] == "99.0"

    def test_partly_off_grid_window_runs(self, tmp_path, capsys):
        # only a window sharing no point with the lattice is rejected
        path = write(
            tmp_path / "c.ini",
            "[scene]\ninsertion = 90,300,90,300\n[composition]\nn_false = 5\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("distance=")
        rows = read_rows(out / "obstacles.csv")[1:]
        assert len(rows) == 5
        assert all(90.0 <= float(r[1]) <= 300.0 for r in rows)

    def test_same_seed_byte_identical(self, tmp_path):
        path = write(
            tmp_path / "c.ini",
            "[composition]\nn_false = 8\n[run]\nseed = 3\n",
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                ["simulate", "--config", path, "--out", str(out), "--svg"]
            ) == 0
            outs.append(out)
        for fname in ("obstacles.csv", "walk.csv", "scene.svg"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname

    def test_seed_flag_changes_scene(self, tmp_path):
        path = write(tmp_path / "c.ini", "[composition]\nn_false = 8\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(a), "--seed", "1"]) == 0
        assert main(["simulate", "--config", path, "--out", str(b), "--seed", "2"]) == 0
        assert (a / "obstacles.csv").read_bytes() != (b / "obstacles.csv").read_bytes()

    def test_hard_core_placement(self, tmp_path):
        path = write(
            tmp_path / "c.ini",
            "[placement]\nkind = strauss\ngamma = 0.0\nd = 9.0\n"
            "[composition]\nn_false = 40\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        rows = read_rows(out / "obstacles.csv")[1:]
        assert len(rows) == 40
        xs = [float(r[1]) for r in rows]
        ys = [float(r[2]) for r in rows]
        for x, y in zip(xs, ys):
            assert 10.0 <= x <= 90.0 and 10.0 <= y <= 90.0
        assert count_close_pairs(xs, ys, 9.0) == 0

    def test_multi_cell_config_rejected(self, tmp_path, capsys):
        path = write(
            tmp_path / "c.ini",
            "[placement]\nkind = strauss\ngamma = 0.0,1.0\nd = 7.0\n",
        )
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "single parameter cell" in capsys.readouterr().err

    def test_svg_structure(self, tmp_path):
        path = write(
            tmp_path / "c.ini",
            "[composition]\nkind = mixed\nn_true = 3\nn_false = 5\n",
        )
        out = tmp_path / "out"
        assert main(
            ["simulate", "--config", path, "--out", str(out), "--svg"]
        ) == 0
        svg = (out / "scene.svg").read_text(encoding="utf-8")
        assert svg.count("<circle") == 8
        assert svg.count("<polyline") == 1
        assert svg.count("<rect") == 2
        assert svg.count("stroke-dasharray") == 5  # false obstacles dashed
        assert svg.count("#c62828") == 6  # true: stroke + fill per obstacle


class TestSweep:
    def test_records_and_summary(self, tmp_path, capsys):
        path = write(
            tmp_path / "c.ini",
            "[placement]\nkind = strauss\ngamma = 0.0,1.0\nd = 7.0\n"
            "burn_in = 50\n"
            "[composition]\nn_false = 3\n",
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", path, "--out", str(out), "--reps", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "sweep: 4/4 replications" in err
        raw = (out / "records.csv").read_text(encoding="utf-8")
        lines = raw.split("\n")
        assert lines[0] == RECORD_HEADER
        assert len([l for l in lines if l]) == 5
        rows = read_rows(out / "records.csv")[1:]
        assert [r[8] for r in rows] == ["0", "1", "0", "1"]  # rep order
        assert {r[1] for r in rows} == {"0.0", "1.0"}  # gamma cells
        for r in rows:
            assert float(r[10]) >= 99.0  # C
            assert "," not in r[12] and float(r[12]) > 0  # dot decimal
        summary = read_rows(out / "summary.csv")
        assert summary[0][-7:] == [
            "count", "mean_C", "var_C", "min_C", "max_C", "range_C", "mean_n_dis"
        ]
        assert len(summary) == 3
        assert all(r[summary[0].index("count")] == "2" for r in summary[1:])

    def test_empty_field_in_simulate_and_sweep(self, tmp_path, capsys):
        path = write(tmp_path / "c.ini", "[composition]\nn_false = 0\n")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().out.strip() == (
            "distance=99, disambiguation=0, total=99"
        )
        out = tmp_path / "w"
        assert main(
            ["sweep", "--config", path, "--out", str(out), "--reps", "2"]
        ) == 0
        rows = read_rows(out / "records.csv")[1:]
        assert len(rows) == 2
        for r in rows:
            assert r[7] == "0" and r[11] == "0"  # n_F, n_dis
            assert float(r[10]) == float(r[12]) == 99.0  # C, walk_length

    def test_jobs_do_not_change_bytes(self, tmp_path):
        path = write(tmp_path / "c.ini", "[composition]\nn_false = 2\n")
        outs = []
        for name, jobs in (("serial", "1"), ("pool", "2")):
            out = tmp_path / name
            assert main(
                ["sweep", "--config", path, "--out", str(out),
                 "--reps", "2", "--jobs", jobs]
            ) == 0
            outs.append(out)
        assert (outs[0] / "records.csv").read_bytes() == (
            outs[1] / "records.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            "[composition]\nn_false = 5,5\n",
            "[placement]\nkind = strauss\ngamma = 0\nd = 7,7.0\nburn_in = 5\n",
            "[composition]\nkind = mixed\nn_total = 10\nfrac_true = 0.5,0.52\n",
        ],
        ids=["n_false", "strauss-d", "frac_true"],
    )
    def test_duplicate_cell_is_config_error(self, tmp_path, capsys, text):
        # each config expands to the same cell twice: one sample, not two
        out = tmp_path / "out"
        code = main(["sweep", "--config", write(tmp_path / "c.ini", text),
                     "--out", str(out), "--reps", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error: duplicate sweep cell [" in captured.err
        assert "replications" not in captured.err
        assert not out.exists()

    def test_infeasible_cell_exit_code(self, tmp_path, capsys):
        path = write(
            tmp_path / "c.ini",
            "[scene]\ngrid = 3x21\nsource = 1,20\ntarget = 1,0\n"
            "radius = 1.3\ninsertion = 0.9,1.1,8,12\n"
            "[composition]\nkind = trueonly\nn_true = 1\n",
        )
        code = main(
            ["sweep", "--config", path, "--out", str(tmp_path / "o"), "--reps", "1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cell [" in err and "rep 0" in err
        assert not (tmp_path / "o").exists()  # no redraw, no partial records


class TestOrdering:
    def test_report_rows_and_verdicts(self, tmp_path, capsys):
        path = write(
            tmp_path / "c.ini",
            "[ordering]\nn_obstacles = 20\nratios = 0.5,2\nblunt_beta = 3,5\n",
        )
        out = tmp_path / "out"
        code = main(
            ["ordering", "--config", path, "--out", str(out), "--reps", "500"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        rows = read_rows(out / "ordering.csv")
        assert rows[0] == [
            "experiment", "label_x", "label_y", "holds", "max_violation",
            "n_x", "n_y", "mean_x", "mean_y", "median_x", "median_y", "tol",
        ]
        body = rows[1:]
        # analytic + 2 composition + 1 ratio pair + 2 sensor directions
        assert [r[0] for r in body] == [
            "marks-analytic", "composition", "composition",
            "ratio", "sensor-falseonly", "sensor-trueonly",
        ]
        assert all(r[3] == "true" for r in body)
        assert "marks-analytic: beta(2,6) <=st beta(6,2): holds" in stdout
        assert "composition: falseonly <=st mixed: holds" in stdout
        assert "ratio: rho=0.5 <=st rho=2: holds" in stdout
        assert "sensor-trueonly" in stdout

    def test_ordering_reads_sample_counts(self, tmp_path):
        path = write(tmp_path / "c.ini", "[ordering]\nn_obstacles = 10\n")
        out = tmp_path / "out"
        assert main(
            ["ordering", "--config", path, "--out", str(out), "--reps", "64"]
        ) == 0
        body = read_rows(out / "ordering.csv")[1:]
        comp = [r for r in body if r[0] == "composition"]
        assert len(comp) == 2
        assert all(r[5] == r[6] == "64" for r in comp)

    @pytest.mark.parametrize(
        "body, flags, key",
        [
            ("reps = 0\n", [], "[ordering] reps"),
            ("", ["--reps", "0"], "[ordering] reps"),
            ("n_obstacles = -1\n", [], "[ordering] n_obstacles"),
            ("tol = -0.1\n", [], "[ordering] tol"),
            ("ratios = -1,2\n", [], "[ordering] ratios"),
            ("ratios = 1,1\n", ["--reps", "50"], "[ordering] ratios"),
            ("ratios = 1,2,1.0\n", [], "[ordering] ratios"),
            ("ratios = 1\n", [], "[ordering] ratios"),
            ("blunt_beta = 1,9\n", [], "[ordering] blunt_beta"),
            ("[placement]\nkind = strauss\ngamma = 2\n", [], "[placement] gamma"),
            ("[placement]\nkind = matern\nkappa = 0\n", [], "[placement] kappa"),
            ("n_obstacles = 5\n[placement]\nkind = matern\nkappa = 6\n", [],
             "[placement] kappa"),
        ],
        ids=["reps", "reps-flag", "n_obstacles", "tol", "ratios", "ratios-duplicate",
             "ratios-duplicate-value", "ratios-single", "blunt_beta", "strauss-gamma", "matern-kappa",
             "matern-kappa-above-n"],
    )
    def test_bad_ordering_input_is_config_error(self, tmp_path, capsys, body, flags, key):
        path = write(tmp_path / "c.ini", "[ordering]\n" + body)
        out = tmp_path / "out"
        code = main(["ordering", "--config", path, "--out", str(out)] + flags)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "body, key",
        [
            ("blunt_beta = 2,6\n", "[ordering] blunt_beta"),
            ("blunt_beta = 2.0000001,6\n", "[ordering] blunt_beta"),
            ("blunt_beta = 3,5\n[scene]\nbeta = 3,5\n", "[ordering] blunt_beta"),
            ("ratios = 1,1.0000001\n", "[ordering] ratios"),
            ("ratios = 0.5,2,2.0000004\n", "[ordering] ratios"),
        ],
        ids=["blunt-is-default-beta", "blunt-label-is-beta", "blunt-is-given-beta",
             "ratio-labels", "ratio-labels-last"],
    )
    def test_same_label_on_both_sides_is_config_error(
        self, tmp_path, capsys, monkeypatch, body, key
    ):
        # a row comparing two arms of one label reads like a finding and
        # cannot fail; the config is rejected before any experiment runs
        monkeypatch.setattr(cli, "coupled_composition_samples", pytest.fail)
        path = write(tmp_path / "c.ini", "[ordering]\n" + body)
        out = tmp_path / "out"
        assert main(["ordering", "--config", path, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestNetwork:
    def test_two_node_line(self, tmp_path, capsys):
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [(0, 1)]
        )
        cfg = write(tmp_path / "c.ini", "[network]\nsource = 0\ntarget = 1\n")
        out = tmp_path / "out"
        code = main(["network", nodes, edges, "--config", cfg, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "total=10 (10 path + 0 disambiguation)"
        )
        walk = read_rows(out / "walk.csv")[1:]
        assert [r[1] for r in walk] == ["0", "1"]

    @pytest.mark.parametrize("swap", [False, True], ids=["0-left", "0-right"])
    def test_tangent_disk_same_cost_in_either_node_order(self, tmp_path, capsys, swap):
        # the first obstacle touches the edge from below; the node numbering
        # must not decide whether the walk counts it (it once crashed one
        # order and skipped the disk in the other)
        ends = [(0, 1.0, 0.0), (1, 0.0, 0.0)] if swap else [(0, 0.0, 0.0), (1, 1.0, 0.0)]
        nodes, edges = make_network(tmp_path, ends, [(0, 1)])
        obstacles = write(
            tmp_path / "obs.csv", "x,y,r,status,c,p\n0.1,-0.7,0.7,F,1,0.3\n0.5,0,0.2,F,1,0.3\n"
        )
        source, target = (0, 1) if swap else (1, 0)
        cfg = write(
            tmp_path / "c.ini",
            f"[network]\nsource = {source}\ntarget = {target}\nobstacles = {obstacles}\n",
        )
        out = tmp_path / "out"
        code = main(["network", nodes, edges, "--config", cfg, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "total=3 (1 path + 2 disambiguation)"
        events = [r[5] for r in read_rows(out / "walk.csv")[1:]]
        assert events[1].startswith("disambiguate obstacle=1 ")
        assert events[2].startswith("disambiguate obstacle=0 ")

    def test_explicit_edge_length_overrides_euclidean(self, tmp_path, capsys):
        nodes, _ = make_network(tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [])
        edges = write(tmp_path / "e.csv", "u,v,length\n0,1,25.5\n")
        cfg = write(tmp_path / "c.ini", "[network]\nsource = 0\ntarget = 1\n")
        code = main(
            ["network", nodes, edges, "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "total=25.5 " in capsys.readouterr().out

    def test_true_obstacle_forces_detour(self, tmp_path, capsys):
        nodes, edges = make_network(
            tmp_path,
            [(0, 0.0, 0.0), (1, 10.0, 0.0), (2, 5.0, 8.0)],
            [(0, 1), (0, 2), (2, 1)],
        )
        obstacles = write(tmp_path / "obs.csv", "x,y,r,status,c,p\n5,0,1,T,4,0.9\n")
        cfg = write(
            tmp_path / "c.ini",
            f"[network]\nsource = 0\ntarget = 1\nobstacles = {obstacles}\n",
        )
        out = tmp_path / "out"
        code = main(["network", nodes, edges, "--config", cfg, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        total = 2 * math.sqrt(89)
        assert f"total={total:g} " in stdout
        assert "+ 0 disambiguation" in stdout
        walk = read_rows(out / "walk.csv")[1:]
        assert [r[1] for r in walk] == ["0", "2", "1"]

    def test_far_obstacle_equals_empty_scene(self, tmp_path, capsys):
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0), (2, 5.0, 8.0)],
            [(0, 1), (0, 2), (2, 1)],
        )
        cfg_empty = write(tmp_path / "a.ini", "[network]\nsource = 0\ntarget = 1\n")
        assert main(
            ["network", nodes, edges, "--config", cfg_empty,
             "--out", str(tmp_path / "oa")]
        ) == 0
        base = capsys.readouterr().out
        obstacles = write(tmp_path / "obs.csv", "x,y,r,status,c,p\n50,50,1,T,4,0.9\n")
        cfg_far = write(
            tmp_path / "b.ini",
            f"[network]\nsource = 0\ntarget = 1\nobstacles = {obstacles}\n",
        )
        assert main(
            ["network", nodes, edges, "--config", cfg_far,
             "--out", str(tmp_path / "ob")]
        ) == 0
        assert capsys.readouterr().out == base

    def test_generated_obstacles_from_composition(self, tmp_path):
        nodes, edges = make_network(
            tmp_path,
            [(0, 0.0, 0.0), (1, 40.0, 0.0), (2, 20.0, 30.0)],
            [(0, 1), (0, 2), (2, 1)],
        )
        cfg = write(
            tmp_path / "c.ini",
            "[scene]\nradius = 2.0\n"
            "[composition]\nkind = falseonly\nn_false = 3\n"
            "[network]\nsource = 0\ntarget = 1\n",
        )
        out = tmp_path / "out"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "obstacles.csv")[1:]
        assert len(rows) == 3
        for r in rows:
            assert r[4] == "F"
            assert 0.0 < float(r[5]) < 1.0

    @pytest.mark.parametrize("key", ["radius", "cost"])
    def test_generated_obstacles_take_classes(self, tmp_path, key):
        nodes, edges = make_network(
            tmp_path,
            [(0, 0.0, 0.0), (1, 40.0, 0.0), (2, 20.0, 30.0)],
            [(0, 1), (0, 2), (2, 1)],
        )
        cfg = write(
            tmp_path / "c.ini",
            f"[scene]\n{key} = 2,3\ninsertion = 10,30,10,25\n"
            "[composition]\nkind = falseonly\nn_false = 12\n"
            "[network]\nsource = 0\ntarget = 1\n",
        )
        out = tmp_path / "out"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "obstacles.csv")[1:]
        column = 3 if key == "radius" else 6
        assert {float(r[column]) for r in rows} == {2.0, 3.0}

    def test_generated_obstacles_honour_insertion(self, tmp_path):
        nodes, edges = make_network(
            tmp_path,
            [(0, 0.0, 0.0), (1, 40.0, 0.0), (2, 20.0, 30.0)],
            [(0, 1), (0, 2), (2, 1)],
        )
        text = ("[scene]\nradius = 1.0\n{}"
                "[composition]\nkind = falseonly\nn_false = 30\n"
                "[network]\nsource = 0\ntarget = 1\n")
        for name, insertion, box in (
            ("given", "insertion = 12,18,20,28\n", (12.0, 18.0, 20.0, 28.0)),
            ("bbox", "", (0.0, 40.0, 0.0, 30.0)),
        ):
            cfg = write(tmp_path / f"{name}.ini", text.format(insertion))
            out = tmp_path / name
            assert main(
                ["network", nodes, edges, "--config", cfg, "--out", str(out)]
            ) == 0
            rows = read_rows(out / "obstacles.csv")[1:]
            assert len(rows) == 30
            xs = [float(r[1]) for r in rows]
            ys = [float(r[2]) for r in rows]
            assert box[0] <= min(xs) and max(xs) <= box[1]
            assert box[2] <= min(ys) and max(ys) <= box[3]

    @pytest.mark.parametrize(
        "insertion, code",
        [("", 0), ("insertion = 1002,1008,1002,1008\n", 0),
         ("insertion = 10,90,10,90\n", 2)],
        ids=["bbox", "window-in-box", "window-off-box"],
    )
    def test_window_is_checked_against_the_node_box(self, tmp_path, capsys, insertion, code):
        # network mode builds no lattice, so no 101x101 grid can reject a window
        nodes, edges = make_network(
            tmp_path,
            [(0, 1000.0, 1000.0), (1, 1010.0, 1000.0), (2, 1000.0, 1010.0),
             (3, 1010.0, 1010.0)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        cfg = write(
            tmp_path / "c.ini",
            f"[scene]\nradius = 1.0\n{insertion}"
            "[composition]\nkind = falseonly\nn_false = 3\n"
            "[network]\nsource = 0\ntarget = 3\n",
        )
        out = tmp_path / "out"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == code
        if code:
            assert (
                "[scene] insertion window 10.0,90.0,10.0,90.0 shares no point with the "
                "node bounding box [1000.0, 1010.0]x[1000.0, 1010.0]"
            ) in capsys.readouterr().err
            assert not out.exists()
        else:
            xs = [float(r[1]) for r in read_rows(out / "obstacles.csv")[1:]]
            assert len(xs) == 3 and all(1000.0 <= x <= 1010.0 for x in xs)

    @pytest.mark.parametrize(
        "scene, key",
        [("radius = 1e308\n", "[scene] radius must be finite, > 0 and at most 2**200"),
         ("radius = 2,1e308\n", "[scene] radius must be finite, > 0 and at most 2**200"),
         ("cost = 0\n", "[scene] cost must be finite and > 0"),
         ("insertion = 10,90,10,1e300\n", "[scene] insertion bounds must be at most 2**200"),
         ("", "[composition] n_true must be >= 0, got -1")],
        ids=["radius-1e308", "radius-class-1e308", "cost-0", "insertion-1e300",
             "negative-count"],
    )
    def test_bad_generated_field_is_config_error(self, tmp_path, capsys, scene, key):
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 40.0, 0.0), (2, 20.0, 30.0)],
            [(0, 1), (0, 2), (2, 1)],
        )
        counts = "n_false = 1\n" if scene else "kind = mixed\nn_true = -1\nn_false = 3\n"
        cfg = write(
            tmp_path / "c.ini",
            f"[scene]\n{scene}[composition]\n{counts}[network]\nsource = 0\ntarget = 1\n",
        )
        out = tmp_path / "out"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x", [1e20, 2.0**200, -(2.0**200)], ids=["1e20", "max", "min"])
    def test_far_collinear_nodes_give_a_valid_box(self, tmp_path, capsys, x):
        # half the 10-unit extent is lost to rounding at 1e20 and beyond, and
        # 2**200 is the largest coordinate a node or obstacle centre may have
        nodes, edges = make_network(tmp_path, [(0, x, 0.0), (1, x, 10.0)], [(0, 1)])
        cfg = write(
            tmp_path / "c.ini",
            "[scene]\nradius = 0.1\n[composition]\nn_false = 5\n"
            "[network]\nsource = 0\ntarget = 1\n",
        )
        out = tmp_path / "out"
        assert main(
            ["network", nodes, edges, "--config", cfg, "--out", str(out), "--svg"]
        ) == 0, capsys.readouterr().err
        rows = read_rows(out / "obstacles.csv")[1:]
        assert len(rows) == 5
        assert all(abs(float(r[1])) <= 2.0**200 and 0 <= float(r[2]) <= 10 for r in rows)
        assert (out / "network.svg").read_text(encoding="utf-8").endswith("</svg>\n")

    @pytest.mark.parametrize("mode, text, key", CONTRACT_CASES)
    def test_ignored_keys_rejected(self, tmp_path, capsys, mode, text, key):
        # every key here used to be dropped without a word
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [(0, 1)]
        )
        write(tmp_path / "obs.csv", "x,y,r,status,c,p\n5,5,1,F,4,0.5\n")
        command = mode.split("+")[0]
        cfg = write(tmp_path / "c.ini", text + BASE_CONFIG.get(mode, ""))
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "network":
            argv[1:1] = [nodes, edges]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mixed_field_counts_rejected(self, tmp_path, capsys):
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [(0, 1)]
        )
        obstacles = write(
            tmp_path / "obs.csv", "x,y,r,status,c,p\n5,5,1,F,4,0.5\n6,5,1,F,4\n"
        )
        cfg = write(
            tmp_path / "c.ini",
            f"[network]\nsource = 0\ntarget = 1\nobstacles = {obstacles}\n",
        )
        code = main(
            ["network", nodes, edges, "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "mixed 5- and 6-field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("6,5,1,F,0,0.5", "cost"), ("6,5,1,F,-2,0.5", "cost"),
            ("6,5,1,F,inf,0.5", "cost"), ("6,5,1,F,nan,0.5", "cost"),
            ("6,5,1,F,4,0", "mark"), ("6,5,1,F,4,1", "mark"),
            ("6,5,1,F,4,1.5", "mark"), ("6,5,1,F,4,nan", "mark"),
            ("6,5,0,F,4,0.5", "radius"), ("6,5,inf,F,4,0.5", "radius"),
            ("inf,5,1,F,4,0.5", "centre"), ("6,5,1,F,inf", "cost"),
            ("6,1e80,1,F,4,0.5", "centre"), ("6,5,1e80,F,4,0.5", "radius"),
        ],
    )
    def test_bad_obstacle_row_is_config_error(self, tmp_path, capsys, row, problem):
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [(0, 1)]
        )
        good = "5,5,1,F,4,0.5" if row.count(",") == 5 else "5,5,1,F,4"
        obstacles = write(tmp_path / "obs.csv", f"x,y,r,status,c,p\n{good}\n{row}\n")
        cfg = write(
            tmp_path / "c.ini",
            f"[network]\nsource = 0\ntarget = 1\nobstacles = {obstacles}\n",
        )
        out = tmp_path / "o"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: obstacles line 3: {problem} must"), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "nodes, edges, problem",
        [
            ("0,0,0\n1,inf,0\n2,2,0", "0,1\n1,2", "nodes line 3: non-finite coordinates (inf, 0.0)"),
            ("0,0,0\n1,1,nan\n2,2,0", "0,1\n1,2", "nodes line 3: non-finite coordinates (1.0, nan)"),
            # past 2**200 the disk-segment test could overflow and miss a hit
            ("0,0,0\n1,1e80,0\n2,2,0", "0,1\n1,2",
             "nodes line 3: coordinates (1e+80, 0.0) exceed 2**200 in magnitude"),
            ("0,0,0\n1,x,0", "0,1", "nodes line 3: bad number"),
            ("0,0,0\n0,1,0", "0,1", "nodes line 3: duplicate id 0"),
            ("0,0,0\n1,1,0", "0,7", "edges line 2: unknown node id 7"),
        ],
    )
    def test_bad_network_input_is_config_error(self, tmp_path, capsys, nodes, edges, problem):
        nodes = write(tmp_path / "nodes.csv", f"id,x,y\n{nodes}\n")
        edges = write(tmp_path / "edges.csv", f"u,v,length\n{edges}\n")
        cfg = write(tmp_path / "c.ini", "[network]\nsource = 0\ntarget = 1\n")
        out = tmp_path / "o"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and problem in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edges, problem",
        [
            ("u,v\n1,1", "edges line 2: self-loop at vertex 1"),
            ("u,v\n1,2\n2,1", "edges line 3: duplicate edge (1,2) repeats line 2"),
            ("u,v\n1,2\n1,3\n2,1", "edges line 4: duplicate edge (1,2) repeats line 2"),
            ("u,v,length\n1,2,nan",
             "edges line 2: edge (1,2) has length nan; lengths must be finite and > 0"),
            ("u,v\n1,2\n2,3",
             "edges line 3: edge (2,3) has length 0.0; lengths must be finite and > 0"),
        ],
        ids=["self-loop", "reversed-duplicate", "later-duplicate", "nan-length",
             "coincident-nodes"],
    )
    def test_bad_edge_names_its_line_and_node_ids(self, tmp_path, capsys, edges, problem):
        # nodes 1, 2, 3 are vertices 0, 1, 2 inside; nodes 2 and 3 coincide
        nodes = write(tmp_path / "nodes.csv", "id,x,y\n1,0,0\n2,1,0\n3,1,0\n")
        edges = write(tmp_path / "edges.csv", edges + "\n")
        cfg = write(tmp_path / "c.ini", "[network]\nsource = 1\ntarget = 2\n")
        out = tmp_path / "o"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("blank", ["nodes", "edges", "obstacles"])
    def test_header_after_blank_lines(self, tmp_path, capsys, blank):
        # the header is the first non-blank row, not physical line 1
        files = {
            "nodes": "id,x,y\n0,0,0\n1,10,0\n",
            "edges": "u,v\n0,1\n",
            "obstacles": "x,y,r,status,c,p\n5,5,1,F,4,0.5\n",
        }
        files[blank] = "\n , \n" + files[blank]
        nodes = write(tmp_path / "nodes.csv", files["nodes"])
        edges = write(tmp_path / "edges.csv", files["edges"])
        obstacles = write(tmp_path / "obs.csv", files["obstacles"])
        cfg = write(
            tmp_path / "c.ini",
            f"[network]\nsource = 0\ntarget = 1\nobstacles = {obstacles}\n",
        )
        code = main(
            ["network", nodes, edges, "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert code == 0, capsys.readouterr().err
        assert "total=10 " in capsys.readouterr().out

    def test_blocked_network_is_infeasible(self, tmp_path, capsys):
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [(0, 1)]
        )
        obstacles = write(tmp_path / "obs.csv", "x,y,r,status,c,p\n5,0,1,T,1,0.5\n")
        cfg = write(
            tmp_path / "c.ini",
            f"[network]\nsource = 0\ntarget = 1\nobstacles = {obstacles}\n",
        )
        code = main(
            ["network", nodes, edges, "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "infeasible scene" in capsys.readouterr().err

    def test_missing_nodes_file_is_io_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", "[network]\nsource = 0\ntarget = 1\n")
        code = main(
            ["network", str(tmp_path / "absent.csv"), str(tmp_path / "e.csv"),
             "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_source_equal_target_is_config_error(self, tmp_path, capsys):
        # rejected before the (absent) obstacle table is read, as on the lattice
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [(0, 1)]
        )
        cfg = write(
            tmp_path / "c.ini", "[network]\nsource = 1\ntarget = 1\nobstacles = absent.csv\n"
        )
        out = tmp_path / "o"
        assert main(["network", nodes, edges, "--config", cfg, "--out", str(out)]) == 2
        assert "[network] source and target" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_endpoint_config(self, tmp_path, capsys):
        nodes, edges = make_network(
            tmp_path, [(0, 0.0, 0.0), (1, 10.0, 0.0)], [(0, 1)]
        )
        code = main(["network", nodes, edges, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "source and target" in capsys.readouterr().err

    def test_collinear_nodes_supported(self, tmp_path, capsys):
        # degenerate bounding box must not crash scene assembly
        nodes, edges = make_network(
            tmp_path,
            [(0, 0.0, 0.0), (1, 5.0, 0.0), (2, 10.0, 0.0)],
            [(0, 1), (1, 2)],
        )
        cfg = write(tmp_path / "c.ini", "[network]\nsource = 0\ntarget = 2\n")
        code = main(
            ["network", nodes, edges, "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "total=10 " in capsys.readouterr().out

    @pytest.mark.parametrize("bom", ["nodes", "edges", "obstacles"])
    def test_byte_order_mark_keeps_the_first_row(self, tmp_path, capsys, bom):
        # the blocked line of test_blocked_network_is_infeasible, without
        # headers; U+FEFF once made the first row a header and dropped it
        files = {"nodes": "0,0,0\n1,10,0\n", "edges": "0,1\n", "obstacles": "5,0,1,T,1,0.5\n"}
        files[bom] = "\ufeff" + files[bom]
        assert run_network_files(tmp_path, files) == 3
        assert "infeasible scene" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, problem",
        [
            ("nodes", "O,0,0\n1,10,0\n", "nodes line 1: bad number in ['O', '0', '0']"),
            ("edges", "O,1\n", "edges line 1: bad number in ['O', '1']"),
            ("obstacles", "S,0.5,1,T,1\n",
             "obstacles line 1: bad number in ['S', '0.5', '1', 'T', '1']"),
        ],
        ids=["nodes", "edges", "obstacles"],
    )
    def test_first_row_with_a_number_is_data(self, tmp_path, capsys, name, text, problem):
        # a header has no number in it; a typo in a first data row is an error,
        # not a header that drops the row
        files = {"nodes": "0,0,0\n1,10,0\n", "edges": "0,1\n", "obstacles": "5,5,1,F,4\n"}
        files[name] = text
        assert run_network_files(tmp_path, files) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, row, problem",
        [
            ("nodes", "x,0,0", "nodes line 3: bad number in ['x', '0', '0']"),
            ("nodes", "1,x,0", "nodes line 3: bad number in ['1', 'x', '0']"),
            ("nodes", "1,0,y", "nodes line 3: bad number in ['1', '0', 'y']"),
            ("nodes", "1.5,0,0", "nodes line 3: bad number in ['1.5', '0', '0']"),
            ("edges", "u,1", "edges line 2: bad number in ['u', '1']"),
            ("edges", "0,v", "edges line 2: bad number in ['0', 'v']"),
            ("edges", "0,1,ten", "edges line 2: bad number in ['0', '1', 'ten']"),
            ("edges", "0,1,", "edges line 2: bad number in ['0', '1', '']"),
            ("obstacles", "x,5,1,F,4,0.5",
             "obstacles line 2: bad number in ['x', '5', '1', 'F', '4', '0.5']"),
            ("obstacles", "5,y,1,F,4,0.5",
             "obstacles line 2: bad number in ['5', 'y', '1', 'F', '4', '0.5']"),
            ("obstacles", "5,5,r,F,4,0.5",
             "obstacles line 2: bad number in ['5', '5', 'r', 'F', '4', '0.5']"),
            ("obstacles", "5,5,1,F,c,0.5",
             "obstacles line 2: bad number in ['5', '5', '1', 'F', 'c', '0.5']"),
            ("obstacles", "5,5,1,F,4,p",
             "obstacles line 2: bad number in ['5', '5', '1', 'F', '4', 'p']"),
            ("nodes", "1,10", "nodes line 3: expected 3 fields, got 2"),
            ("nodes", "1,10,0,0", "nodes line 3: expected 3 fields, got 4"),
            ("edges", "0", "edges line 2: expected 2-3 fields, got 1"),
            ("edges", "0,1,10,1", "edges line 2: expected 2-3 fields, got 4"),
            ("obstacles", "5,5,1,F", "obstacles line 2: expected 5-6 fields, got 4"),
            ("obstacles", "5,5,1,F,4,0.5,1", "obstacles line 2: expected 5-6 fields, got 7"),
        ],
        ids=["node-id", "node-x", "node-y", "node-id-not-integer", "edge-u", "edge-v",
             "edge-length", "edge-length-empty", "obstacle-x", "obstacle-y", "obstacle-r",
             "obstacle-c", "obstacle-p", "nodes-short", "nodes-long", "edges-short",
             "edges-long", "obstacles-short", "obstacles-long"],
    )
    def test_bad_row_names_its_file_and_line(self, tmp_path, capsys, name, row, problem):
        # the row replaces the last data row of a file with a header
        files = {
            "nodes": "id,x,y\n0,0,0\n1,10,0\n",
            "edges": "u,v\n0,1\n",
            "obstacles": "x,y,r,status,c,p\n5,5,1,F,4,0.5\n",
        }
        files[name] = files[name].rstrip("\n").rsplit("\n", 1)[0] + f"\n{row}\n"
        assert run_network_files(tmp_path, files) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "o").exists()
