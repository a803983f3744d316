import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbdom
from rbdom import AggregateStats, build_graph, gen_gnp, write_edge_list
from rbdom.cli import cli_main

from conftest import cycle_graph, path_graph, star_graph

MTX_P3 = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "star.el"
    path.write_text(write_edge_list(star_graph(5)))
    return path


def test_gen_writes_file(tmp_path, capsys):
    out = tmp_path / "g.el"
    code = cli_main(
        ["gen", "--model", "gnp", "--n", "50", "--avg-deg", "4", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    for out in (a, b):
        assert cli_main(
            ["gen", "--model", "ws", "--n", "30", "--d", "4", "--p", "0.3", "--seed", "9", "--out", str(out)]
        ) == 0
    assert a.read_text() == b.read_text()


def test_gen_missing_model_param(tmp_path, capsys):
    code = cli_main(["gen", "--model", "ws", "--n", "30", "--out", str(tmp_path / "x.el")])
    assert code == 1
    assert "--d is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, given, missing",
    [
        ("gnp", [], "avg-deg"),
        ("gnm", [], "avg-deg"),
        ("ws", [], "d"),
        ("ws", ["--d", "4"], "p"),
        ("dreg", [], "d"),
        ("ba", [], "attach"),
    ],
)
def test_gen_names_each_missing_model_param(tmp_path, capsys, model, given, missing):
    out = tmp_path / "x.el"
    code = cli_main(["gen", "--model", model, "--n", "30", *given, "--out", str(out)])
    assert code == 1
    assert f"error: --{missing} is required for model {model}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_modes(graph_file, capsys):
    for mode, label in (("aa", "AA"), ("la", "LA"), ("greedy", "GREEDY")):
        assert cli_main(["solve", "--input", str(graph_file), "--mode", mode]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"{label}=1"
        assert out[1] == "0"


def test_solve_exact(graph_file, capsys):
    assert cli_main(
        ["solve", "--input", str(graph_file), "--mode", "exact", "--time-limit", "5"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "EX=1 proven=true lb=1"


def test_solve_exact_rejects_infinite_time_limit(graph_file, capsys):
    assert cli_main(
        ["solve", "--input", str(graph_file), "--mode", "exact", "--time-limit", "inf"]
    ) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_pair_map_exits_2(tmp_path, capsys, neighbour_image_lossy):
    path = tmp_path / "c6.el"
    path.write_text(write_edge_list(cycle_graph(6)))
    for argv in (["solve", "--mode", "la"], ["verify"]):
        assert cli_main([*argv, "--input", str(path)]) == 2
        assert "invariant violation" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    code = cli_main(["solve", "--input", str(tmp_path / "nope.el"), "--mode", "aa"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("not a header\n")
    assert cli_main(["solve", "--input", str(bad), "--mode", "aa"]) == 1
    assert "line 1" in capsys.readouterr().err
    # valid digits up to line 4, so the bulk reader hands over to the line scanner
    out_of_range = tmp_path / "range.el"
    out_of_range.write_text("5 3\n0 1\n1 2\n0 9\n")
    assert cli_main(["solve", "--input", str(out_of_range), "--mode", "aa"]) == 1
    assert "line 4: edge (0, 9) out of range for n=5" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_missing_required_flag_says_which(capsys):
    assert cli_main(["solve", "--mode", "la"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "the following arguments are required: --input" in err


def test_invalid_choice_says_which(graph_file, capsys):
    assert cli_main(["solve", "--input", str(graph_file), "--mode", "bogus"]) == 1
    assert "argument --mode: invalid choice: 'bogus'" in capsys.readouterr().err


def test_unknown_flag_exits_1(graph_file):
    assert cli_main(["solve", "--input", str(graph_file), "--mode", "aa", "--bogus"]) == 1


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0


def test_default_time_limit_is_thirty():
    from rbdom.cli import _build_parser

    for argv in (
        ["solve", "--input", "x", "--mode", "exact"],
        ["exp", "--dir", "d", "--csv", "c"],
    ):
        assert _build_parser().parse_args(argv).time_limit == 30.0


def test_exp_directory(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "p3.txt").write_text(MTX_P3)
    (cases / "p7.el").write_text(write_edge_list(path_graph(7)))
    (cases / "star.el").write_text(write_edge_list(star_graph(4)))
    csv = tmp_path / "out.csv"
    code = cli_main(
        ["exp", "--dir", str(cases), "--csv", str(csv), "--time-limit", "2"]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "id,n,m,ex,aa,la,imprv"
    assert len(lines) == 5  # three rows + aggregate comment
    assert lines[1].startswith("p3,3,2,1,1,")
    assert lines[2].startswith("p7,7,6,3,")
    assert lines[3].startswith("star,5,4,1,")
    assert lines[4].startswith("# cases,3,")


def test_exp_current_directory_names_category(tmp_path, monkeypatch, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "p7.el").write_text(write_edge_list(path_graph(7)))
    csv = tmp_path / "out.csv"
    monkeypatch.chdir(cases)
    assert cli_main(["exp", "--dir", ".", "--csv", str(csv), "--no-exact"]) == 0
    assert csv.read_text().splitlines()[-1].startswith("# cases,1,")
    assert "cases: 1 instances" in capsys.readouterr().out


def test_exp_prints_ex_as_the_csv_writes_it(tmp_path, capsys):
    # absent: --no-exact; unproven: a budget too small to finish this search
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "g.el").write_text(write_edge_list(gen_gnp(60, 4.0, 2)))
    csv = tmp_path / "out.csv"
    for flags, ex in ((["--no-exact"], "--"), (["--time-limit", "0.001"], "~17")):
        assert cli_main(["exp", "--dir", str(cases), "--csv", str(csv), *flags]) == 0
        assert f" ex={ex} " in capsys.readouterr().out
        assert csv.read_text().splitlines()[1].split(",")[3] == ex


def test_exp_summary_rounds_half_up_as_the_csv_does(tmp_path, monkeypatch, capsys):
    # 3.125 is exact in binary, so round-half-even formatting would print 3.12
    stats = AggregateStats("cases", 32, 3.125, 3.125)
    monkeypatch.setattr("rbdom.cli.aggregate", lambda reports, category: stats)
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "p7.el").write_text(write_edge_list(path_graph(7)))
    csv = tmp_path / "out.csv"
    assert cli_main(["exp", "--dir", str(cases), "--csv", str(csv), "--no-exact"]) == 0
    assert "cases: 32 instances, 3.13% improved, avg imprv 3.13" in capsys.readouterr().out
    assert csv.read_text().splitlines()[-1] == "# cases,32,3.13,3.13"


def test_exp_bit_identical_reruns(tmp_path):
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "p7.el").write_text(write_edge_list(path_graph(7)))
    (cases / "c.el").write_text(write_edge_list(build_graph(9, [(i, (i + 1) % 9) for i in range(9)])))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for csv in (a, b):
        assert cli_main(["exp", "--dir", str(cases), "--csv", str(csv), "--time-limit", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exp_read_error_names_the_file(tmp_path, capsys):
    cases = tmp_path / "cases"
    cases.mkdir()
    (cases / "a.el").write_text(write_edge_list(path_graph(4)))
    (cases / "b.el").write_text("4 2\n0 1\n1 x\n")
    assert cli_main(["exp", "--dir", str(cases), "--csv", str(tmp_path / "x.csv")]) == 1
    assert f"error: {cases / 'b.el'}: line 3: non-integer" in capsys.readouterr().err


def test_exp_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert cli_main(["exp", "--dir", str(empty), "--csv", str(tmp_path / "x.csv")]) == 1


def test_verify_ok(graph_file, capsys):
    assert cli_main(["verify", "--input", str(graph_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_mtx_input(tmp_path, capsys):
    # the banner, not the file name, marks Matrix Market
    for name in ("g.mtx", "g.txt"):
        mtx = tmp_path / name
        mtx.write_text(MTX_P3)
        assert cli_main(["solve", "--input", str(mtx), "--mode", "aa"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "AA=1"


def test_edge_list_named_mtx(tmp_path, capsys):
    el = tmp_path / "g.mtx"
    el.write_text(write_edge_list(path_graph(7)))
    assert cli_main(["solve", "--input", str(el), "--mode", "aa"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "AA=3"


def test_package_needs_only_numpy():
    # scipy, networkx and hypothesis serve the tests; blocking them must not
    # break importing the package or its command line
    code = (
        "import sys\n"
        "for m in ('scipy', 'networkx', 'hypothesis'):\n"
        "    sys.modules[m] = None\n"
        "import rbdom, rbdom.cli\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rbdom.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is gone fails the star import
    env = {**os.environ, "PYTHONPATH": str(Path(rbdom.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", "from rbdom import *"], check=True, env=env)


def test_benchmark_modules_import():
    # the benchmark imports the package by name; removing a name it uses
    # must fail here rather than in a benchmark run
    root = Path(rbdom.__file__).parents[2]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import bench, ops, workloads\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
