import json

import pytest

from terncode.cli import main

# frozen valid pairs: the m=3 pair is minimal, the m=2 pair is not
MINIMAL_F3 = "m=3\n011220211021100112220200110\n"
MINIMAL_G3 = "m=3\n020211121010221122220121000\n"
NONMIN_F2 = "m=2\n020002111\n"
NONMIN_G2 = "m=2\n010221120\n"


@pytest.fixture
def pair3(tmp_path):
    fp = tmp_path / "f.txt"
    gp = tmp_path / "g.txt"
    fp.write_text(MINIMAL_F3)
    gp.write_text(MINIMAL_G3)
    return str(fp), str(gp)


@pytest.fixture
def pair2(tmp_path):
    fp = tmp_path / "f2.txt"
    gp = tmp_path / "g2.txt"
    fp.write_text(NONMIN_F2)
    gp.write_text(NONMIN_G2)
    return str(fp), str(gp)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_kraw_command(capsys):
    rc, out = run(capsys, "kraw", "--t", "2", "--x", "0", "--m", "9")
    assert rc == 0
    assert out.strip() == "144"


def test_kraw_lloyd(capsys):
    rc, out = run(capsys, "kraw", "--lloyd", "--k", "3", "--x", "2", "--m", "9")
    assert rc == 0
    assert out.strip() == "196"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["kraw", "--x", "0"])  # missing --m
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_construct_report(capsys):
    rc, out = run(capsys, "construct", "--m", "9", "--k1", "2", "--k2", "4")
    assert rc == 0
    obj = json.loads(out)
    assert obj["length"] == 19682
    assert obj["dimension"] == 11
    assert obj["wmin"] == 834
    assert obj["wmax"] == 14226
    assert obj["ashikhmin_barg_satisfied"] is False
    assert obj["ratio_le_two_thirds"] is True
    assert obj["shells"] == {"a": 18, "b": 144, "c": 672, "d": 2016, "e": 16832}


def test_construct_capacity_exit_code(capsys):
    rc, out = run(capsys, "construct", "--m", "35", "--k1", "2", "--k2", "4")
    assert rc == 3
    assert json.loads(out)["error"] == "capacity"


def test_construct_bad_window_is_usage_error(capsys):
    rc, _ = run(capsys, "construct", "--m", "9", "--k1", "2", "--k2", "3")
    assert rc == 2


def test_construct_fg_round_trip(capsys, tmp_path):
    fpath = tmp_path / "f.txt"
    gpath = tmp_path / "g.txt"
    rc, _ = run(
        capsys, "construct", "--m", "9", "--k1", "2", "--k2", "4",
        "--emit", "fg", "--out-f", str(fpath), "--out-g", str(gpath),
    )
    assert rc == 0
    rc, out = run(capsys, "weights", "--f", str(fpath), "--g", str(gpath))
    assert rc == 0
    obj = json.loads(out)
    weights = dict((w, c) for w, c in obj["weights"])
    assert min(w for w in weights if w > 0) == 834
    assert max(weights) == 14226
    # closed-form emission agrees with the transform path
    rc, out2 = run(capsys, "construct", "--m", "9", "--k1", "2", "--k2", "4", "--emit", "weights")
    assert json.loads(out2)["weights"] == obj["weights"]


def test_weights_and_cwe_on_stored_pair(capsys, pair3):
    fpath, gpath = pair3
    rc, out = run(capsys, "weights", "--m", "3", "--f", fpath, "--g", gpath)
    assert rc == 0
    obj = json.loads(out)
    assert sum(c for _, c in obj["weights"]) == 3**5
    rc, out = run(capsys, "cwe", "--f", fpath, "--g", gpath)
    assert rc == 0
    obj = json.loads(out)
    assert sum(c for *_, c in obj["cwe"]) == 3**5


def test_m_mismatch_is_domain_error(capsys, pair3):
    fpath, gpath = pair3
    rc, out = run(capsys, "weights", "--m", "4", "--f", fpath, "--g", gpath)
    assert rc == 1
    assert json.loads(out)["error"] == "validation"


def test_validation_failure_exit_code(capsys, tmp_path):
    fp = tmp_path / "f.txt"
    fp.write_text(MINIMAL_F3)
    rc, out = run(capsys, "weights", "--f", str(fp), "--g", str(fp))  # f = g
    assert rc == 1
    obj = json.loads(out)
    assert obj["error"] == "validation"
    assert obj["function"] == "f-g"


def test_spectrum_outputs(capsys, pair3):
    fpath, _ = pair3
    rc, out = run(capsys, "spectrum", "--f", fpath)
    assert rc == 0
    obj = json.loads(out)
    assert obj["m"] == 3
    assert len(obj["classes"]) == 4
    assert sum(cls["class_size"] for cls in obj["classes"]) == 27
    rc, naive_out = run(capsys, "spectrum", "--f", fpath, "--naive")
    assert naive_out == out
    rc, csv_out = run(capsys, "spectrum", "--f", fpath, "--format", "csv")
    assert csv_out.splitlines()[0] == "weight,real_doubled,count"


def test_minimality_both_agree_minimal(capsys, pair3):
    fpath, gpath = pair3
    rc, out = run(capsys, "minimality", "--method", "both", "--m", "3", "--f", fpath, "--g", gpath)
    assert rc == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["spectral"]["minimal"] is True
    assert obj["cover-oracle"]["minimal"] is True


def test_minimality_nonminimal_exit_code_and_witness(capsys, pair2):
    fpath, gpath = pair2
    rc, out = run(capsys, "minimality", "--method", "both", "--f", fpath, "--g", gpath)
    assert rc == 1
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["spectral"]["minimal"] is False
    assert obj["spectral"]["witnesses"][0]["condition"] in ("triple-minus", "triple-plus", "mixed-pair")
    assert obj["cover-oracle"]["witnesses"][0]["kind"] == "cover"


def test_minimality_deterministic_across_threads(capsys, pair2):
    fpath, gpath = pair2
    rc1, out1 = run(capsys, "minimality", "--f", fpath, "--g", gpath, "--threads", "1")
    rc2, out2 = run(capsys, "minimality", "--f", fpath, "--g", gpath, "--threads", "2")
    assert rc1 == rc2 == 1
    assert out1 == out2


def test_minimality_budget_exit_code(capsys, pair3):
    fpath, gpath = pair3
    rc, out = run(capsys, "minimality", "--f", fpath, "--g", gpath, "--budget", "0", "--threads", "1")
    assert rc == 3
    obj = json.loads(out)
    assert obj["error"] == "capacity"
    assert obj["completed_fraction"] == 0.0


@pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
def test_minimality_orbit_path_stdout_matches_sweep(capsys, tmp_path, monkeypatch, extra):
    from conftest import shell_spec
    from terncode import minimality

    spec = shell_spec(5, 2, 4)  # weight-symmetric and minimal: certified by the orbit pre-check
    fp = tmp_path / "f5.txt"
    gp = tmp_path / "g5.txt"
    fp.write_text(spec.f.to_text())
    gp.write_text(spec.g.to_text())
    argv = ["minimality", "--f", str(fp), "--g", str(gp), *extra]
    orbit = run(capsys, *argv)
    assert orbit[0] == 0
    monkeypatch.setattr(minimality, "spectral_check", minimality.spectral_sweep)
    assert run(capsys, *argv) == orbit


def test_minimality_oracle_capacity(capsys, tmp_path):
    # the brute-force oracle refuses m > 5
    from terncode.hwconstruct import HWParams, build_fg

    f, g = build_fg(HWParams(9, 2, 4))
    fp = tmp_path / "f9.txt"
    gp = tmp_path / "g9.txt"
    fp.write_text(f.to_text())
    gp.write_text(g.to_text())
    rc, out = run(capsys, "minimality", "--method", "oracle", "--f", str(fp), "--g", str(gp))
    assert rc == 3
    assert json.loads(out)["error"] == "capacity"


def test_verify_example(capsys):
    rc, out = run(capsys, "verify-example")
    assert rc == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert all(obj["checks"].values())
