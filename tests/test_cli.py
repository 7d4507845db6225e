import json
import subprocess
import sys

import pytest

from unstable_e2.cli import main


def run(args):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_adem_command():
    assert run(["adem", "A:Sq[1,1]"]) == (0, "0\n")
    assert run(["adem", "A:Sq[2,2]"]) == (0, "Sq[3,1]\n")
    assert run(["adem", "A:Sq[4,2,1]"]) == (0, "Sq[4,2,1]\n")


def test_kn_dims_command():
    code, out = run(["kn-dims", "--n", "2", "--D", "7"])
    assert code == 0 and out.strip() == "1,0,1,1,1,2,2,2"


def test_basis_command():
    code, out = run(["basis", "--gen-degree", "1", "--d", "4"])
    assert code == 0 and out.strip() == "Sq[2,1].x"
    code, out = run(["basis", "--gen-degree", "1", "--d", "3"])
    assert code == 0 and out.strip() == "(empty)"


def test_exactness_command():
    code, out = run(["exactness", "--n", "1", "--D", "4", "--window-L", "4", "--window-K", "4"])
    assert code == 0 and out.strip().endswith("PASS")


def test_descent_inconclusive_schedule():
    code, out = run(["descent", "--tower-max", "1", "--instances", "1"])
    assert code == 2 and "inconclusive" in out


def test_descent_missing_witness_is_inconclusive():
    # x - x^5 = 1 needs F_{5^5}; no chain level contains it: inconclusive, exit 2
    code, out = run(["descent", "--p", "5", "--instances", "1"])
    assert code == 2 and out.splitlines()[-1] == "INCONCLUSIVE"
    assert "witnesses=INCONCLUSIVE" in out and "FAIL" not in out
    # at p = 3 the witness lies at level 3, past --tower-max 2: a failure, exit 1
    code, out = run(["descent", "--p", "3", "--tower-max", "2", "--instances", "1"])
    assert code == 1 and out.splitlines()[-1] == "FAIL" and "witnesses=FAIL" in out


def test_descent_refuses_no_instances(capsys):
    # each used to print a bare PASS, with no instance checked, and exit 0
    for n in ("0", "-3"):
        code, out = run(["descent", "--instances", n])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--instances >= 1" in err


def test_descent_small_run():
    code, out = run(["descent", "--instances", "4", "--total-dim", "4", "--tower-max", "2"])
    assert code == 0 and out.strip().endswith("PASS")


def test_chart_commands_and_compare(tmp_path):
    a = tmp_path / "a.json"
    g = tmp_path / "g.json"
    code, _ = run([
        "adams-chart", "--X", "S2", "--Y", "point", "--smax", "1", "--tmax", "3",
        "--D", "8", "--out", str(a),
    ])
    assert code == 0
    code, _ = run([
        "gh-chart", "--X", "S2", "--Y", "point", "--smax", "1", "--tmax", "3",
        "--D", "8", "--tower-max", "3", "--out", str(g),
    ])
    assert code == 0
    code, out = run(["compare", str(a), str(g)])
    assert code == 0 and out.strip().endswith("PASS")
    doc = json.loads(a.read_text())
    assert doc["kind"] == "adams" and doc["window"] == {"s_max": 1, "t_max": 3}
    doc2 = json.loads(g.read_text())
    assert doc2["kind"] == "gh" and doc2["tower_level"] == 3


def test_compare_identical_files(tmp_path):
    a = tmp_path / "a.json"
    run(["adams-chart", "--X", "S1", "--Y", "point", "--smax", "1", "--tmax", "2",
         "--D", "6", "--out", str(a)])
    code, out = run(["compare", str(a), str(a)])
    assert code == 0


def test_compare_mismatch_exit_one(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["adams-chart", "--X", "S1", "--Y", "point", "--smax", "1", "--tmax", "2",
         "--D", "6", "--out", str(a)])
    doc = json.loads(a.read_text())
    doc["entries"].append({"s": 1, "t": 2, "dim": 5})
    b.write_bytes((json.dumps(doc, separators=(",", ":")) + "\n").encode())
    code, out = run(["compare", str(a), str(b)])
    assert code == 1 and "differ at (s=1, t=2)" in out


def test_compare_window_mismatch_exit_code(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for smax, f in (("2", a), ("1", b)):
        code, _ = run(["adams-chart", "--X", "S2", "--Y", "S1", "--smax", smax, "--tmax", "2",
                       "--D", "6", "--out", str(f)])
        assert code == 0
    code, out = run(["compare", str(a), str(b)])
    assert code == 2 and out.startswith("error: window mismatch")


def test_gh_chart_schedule_below_level_two_exit_code():
    code, out = run(["gh-chart", "--X", "S2", "--Y", "S1", "--smax", "1", "--tmax", "2",
                     "--D", "6", "--tower-max", "1"])
    assert code == 2 and out.startswith("inconclusive")


def test_d1_saturation_fail_and_inconclusive_exit_codes():
    window = ["--X", "S3", "--Y", "S1", "--smax", "1", "--tmax", "2", "--D", "6"]
    # at p = 3 the cokernel class dies at level 3, past a schedule of 2: FAIL, exit 1
    code, out = run(["d1-saturation", "--p", "3", *window, "--tower-max", "2"])
    assert code == 1 and "death at level 3" in out and out.splitlines()[-1] == "FAIL"
    # at p = 5 it dies at no level of the chain: INCONCLUSIVE, exit 2
    code, out = run(["d1-saturation", "--p", "5", *window, "--tower-max", "3"])
    assert code == 2 and "death at level None" in out
    assert out.splitlines()[-1] == "INCONCLUSIVE"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"D": 6, "p": 2}))
    code, out = run(["kn-dims", "--n", "1", "--config", str(cfg)])
    assert code == 0 and out.strip() == "1,1,1,1,1,1,1"
    code, out = run(["kn-dims", "--n", "1", "--config", str(cfg), "--D", "3"])
    assert code == 0 and out.strip() == "1,1,1,1"


def test_error_exit_code():
    code, _ = run(["adams-chart", "--X", "S2", "--Y", "S1", "--smax", "1",
                   "--tmax", "6", "--D", "3"])
    assert code == 2  # refused: truncation below the sufficiency bound


def test_nontrivially_acting_target_exit_codes(capsys):
    # a chart sums per-degree complexes into F_p, which needs a target with
    # trivial action once t >= 1; K3 at p = 3 has beta on its class
    code, out = run(["adams-chart", "--p", "3", "--X", "S1", "--Y", "K3", "--D", "6",
                     "--tmax", "2", "--smax", "2"])
    err = capsys.readouterr().err
    assert code == 2 and out == "" and err.startswith("error: ") and "K3" in err
    # the saturation report reads the same complexes, so it refuses the same window
    code, out = run(["d1-saturation", "--p", "3", "--X", "S1", "--Y", "K3", "--D", "6",
                     "--tmax", "2", "--smax", "2", "--tower-max", "3"])
    err = capsys.readouterr().err
    assert code == 2 and out == "" and err.startswith("error: ") and "K3" in err
    # at t_max = 0 the chart is the hom-set cell alone
    code, out = run(["adams-chart", "--X", "S2", "--Y", "K1", "--tmax", "0", "--D", "6"])
    assert code == 0
    assert [(e["s"], e["t"]) for e in json.loads(out)["entries"]] == [(0, 0)]
    code, out = run(["gh-chart", "--X", "S2", "--Y", "K1", "--tmax", "0", "--D", "6"])
    err = capsys.readouterr().err
    assert code == 2 and out == "" and "K1" in err


def test_bad_space_exit_code(capsys):
    # a malformed atom is an unknown space too, not a bare int() error
    for name in ("NOPE", "sphere(x)", "K(F_x,1)", "k(f_2,)"):
        code, out = run(["adams-chart", "--X", name, "--Y", "S1", "--smax", "1",
                         "--tmax", "2", "--D", "6"])
        err = capsys.readouterr().err
        assert code == 2 and out == "" and err == f"error: unknown space '{name}'\n"


def test_non_prime_p_exit_code(capsys):
    for argv in (
        ["adams-chart", "--p", "4", "--X", "S2", "--Y", "S1", "--smax", "1", "--tmax", "3",
         "--D", "6"],
        ["adem", "P[1,1]", "--p", "9"],
    ):
        code, out = run(argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "prime" in err


def test_adem_p_word_at_p2_exit_code(capsys):
    # P[...] implies an odd prime; the default p = 2 must refuse it, not compute Sq^1 Sq^1
    code, out = run(["adem", "P[1,1]"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "odd prime" in err
    assert run(["adem", "P[1,1]", "--p", "3"]) == (0, "2*P[2]\n")


def test_adem_sq_word_at_odd_p_exit_code(capsys):
    # Sq[...] means p = 2; at p = 3 it must be refused, not read as P^1 P^1
    code, out = run(["adem", "Sq[1,1]", "--p", "3"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "p = 2" in err
    assert run(["adem", "P[1,1]", "--p", "3"]) == (0, "2*P[2]\n")


def test_compare_malformed_chart_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 2, "kind": "adams", "window": {"s_max": 1}}))
    code, out = run(["compare", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'entries'" in err


def test_config_non_integer_field_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"D": "10"}))
    code, out = run(["kn-dims", "--n", "1", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "field D" in err


@pytest.mark.parametrize(
    "config, message",
    [
        ([1, 2], "JSON object"),
        ({"smax": 1, "tmax": 2}, "unknown config keys ['smax', 'tmax']"),
        ({"out": 7}, "field out"),
        ({"format": "png"}, "field format"),
    ],
    ids=["not-an-object", "unknown-key", "out-not-a-string", "bad-format"],
)
def test_bad_config_file_exit_code(tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    # its own process: an unchecked "out": 7 would write to and close descriptor 7
    r = subprocess.run(
        [sys.executable, "-m", "unstable_e2.cli", "kn-dims", "--n", "1", "--D", "3",
         "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ") and message in r.stderr


def test_unknown_config_key_lists_every_key_in_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"smax": 1}))
    code, out = run(["kn-dims", "--n", "1", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: unknown config keys ['smax']; the keys are "
        "p D s_max t_max window_L window_K tower_max budget format out\n"
    )


@pytest.mark.parametrize(
    "edit, field",
    [
        # a string p or s_max used to read as a window mismatch of two equal windows
        (lambda d: d.update(p="2"), "p"),
        (lambda d: d["window"].update(s_max="1"), "window.s_max"),
        # a string dim used to be reported as a differing cell, exit 1
        (lambda d: d["entries"][-1].update(dim="x"), "entries[3].dim"),
        # a boolean dim used to pass as 1
        (lambda d: d["entries"][-1].update(dim=True), "entries[3].dim"),
        (lambda d: d["entries"][0].update(set_size=1.0), "entries[0].set_size"),
        (lambda d: d.update(tower_level="3"), "tower_level"),
        (lambda d: d.update(kind="chart"), "kind"),
    ],
    ids=["p-string", "s_max-string", "dim-string", "dim-bool", "set_size-float",
         "tower_level-string", "kind-unknown"],
)
def test_compare_refuses_mistyped_chart_fields(tmp_path, capsys, edit, field):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, _ = run(["adams-chart", "--X", "S2", "--Y", "S1", "--smax", "1", "--tmax", "2",
                   "--D", "6", "--out", str(a)])
    doc = json.loads(a.read_text())
    assert code == 0 and doc["entries"][-1] == {"s": 1, "t": 2, "dim": 1}
    edit(doc)
    b.write_text(json.dumps(doc))
    code, out = run(["compare", str(a), str(b)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith(f"error: chart JSON field {field} must be "), err


def test_bar_check_degree_zero_exit_code(capsys):
    for n in ("0", "-1"):
        code, out = run(["bar-check", "--n", n])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "degrees >= 1" in err


def test_bar_check_and_exactness_refuse_windows_that_check_nothing(capsys):
    # each of these used to print a bare PASS, with no cell checked, and exit 0
    for argv in (["bar-check", "--n", "1", "--d-max", "-1"],
                 ["bar-check", "--n", "1", "--d-max", "3", "--smax-bar", "-1"],
                 ["bar-check", "--n", "1", "--d-max", "3", "--bar-L", "-1"],
                 ["exactness", "--n", "-2"]):
        code, out = run(argv)
        err = capsys.readouterr().err
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and ">= 0" in err, argv
    # a length-0 bar window and a degree-0 generator still check their cells
    code, out = run(["bar-check", "--n", "1", "--d-max", "2", "--bar-L", "0"])
    assert code == 0 and out.count(" PASS\n") == 12 and out.endswith("\nPASS\n")
    code, out = run(["exactness", "--n", "0", "--D", "3"])
    assert code == 0 and out.count(" PASS\n") == 4 and "degree 0: injective=True" in out


def test_k_space_wrong_field_exit_code(capsys):
    code, out = run(["adams-chart", "--X", "K(F_3,1)", "--Y", "S1", "--smax", "1",
                     "--tmax", "3", "--D", "6"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "K(F_3,1)" in err


def test_budget_exceeded_exit_code(capsys):
    for command in ("adams-chart", "gh-chart"):
        code, out = run([command, "--X", "S2", "--Y", "S1", "--budget", "10"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "past 10" in err


def test_bar_check_over_budget_exit_code(capsys):
    # the two windows hold 462,186 and 4,449,574 basis elements; none is built
    code, out = run(["bar-check", "--n", "1", "--d-max", "9", "--p", "5"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "hold 4911760 basis elements, past 500000" in err


def test_budget_counts_only_the_levels_built(capsys):
    # levels 0..3 of S2 at degree cap 9 fit in 4000 basis elements; a fifth
    # level, which no chart reads, would not
    code, out = run(["adams-chart", "--X", "S2", "--Y", "S1", "--smax", "3", "--tmax", "8",
                     "--D", "10", "--budget", "4000"])
    assert code == 0 and capsys.readouterr().err == ""
    assert json.loads(out)["window"] == {"s_max": 3, "t_max": 8}


def test_subprocess_determinism(tmp_path):
    # two fresh interpreters (different hash seeds) must emit identical bytes
    outs = []
    for i in range(2):
        f = tmp_path / f"chart{i}.json"
        r = subprocess.run(
            [sys.executable, "-m", "unstable_e2.cli", "adams-chart", "--X", "S2",
             "--Y", "point", "--smax", "1", "--tmax", "3", "--D", "8",
             "--out", str(f)],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]


def test_svg_ascii_determinism(tmp_path):
    for fmt in ("svg", "ascii"):
        outs = []
        for i in range(2):
            f = tmp_path / f"c{fmt}{i}"
            code, _ = run(["adams-chart", "--X", "S2", "--Y", "point", "--smax", "1",
                           "--tmax", "3", "--D", "8", "--format", fmt, "--out", str(f)])
            assert code == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1]


def test_product_with_k_space_exit_code():
    # its own process, so that a traceback's exit code is what the test sees;
    # the product's action names a class above D unless it is cut at D
    for D in ("6", "8"):
        r = subprocess.run(
            [sys.executable, "-m", "unstable_e2.cli", "adams-chart", "--X", "K1*S1",
             "--Y", "S1", "--smax", "1", "--tmax", "3", "--D", D],
            capture_output=True, text=True,
        )
        assert r.returncode == 0 and r.stderr == "", r.stderr
        assert json.loads(r.stdout)["D"] == int(D)
