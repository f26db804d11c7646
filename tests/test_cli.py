import hashlib
import json

import numpy as np
import pytest

from terncode import cli, code, minimality
from terncode.cli import main
from terncode.hwconstruct import HWParams, build_fg
from terncode.samples import random_valid_spec, shell_spec, sparse_random_spec

from conftest import reference_verdict

# frozen valid pairs: the m=3 pair is minimal, the m=2 pair is not
MINIMAL_F3 = "m=3\n011220211021100112220200110\n"
MINIMAL_G3 = "m=3\n020211121010221122220121000\n"
NONMIN_F2 = "m=2\n020002111\n"
NONMIN_G2 = "m=2\n010221120\n"


def write_pair(tmp_path, f_text: str, g_text: str, suffix: str = "") -> tuple[str, str]:
    """Write two table files f<suffix>.txt and g<suffix>.txt; their paths."""
    fp, gp = tmp_path / f"f{suffix}.txt", tmp_path / f"g{suffix}.txt"
    fp.write_text(f_text)
    gp.write_text(g_text)
    return str(fp), str(gp)


@pytest.fixture
def pair3(tmp_path):
    return write_pair(tmp_path, MINIMAL_F3, MINIMAL_G3)


@pytest.fixture
def pair2(tmp_path):
    return write_pair(tmp_path, NONMIN_F2, NONMIN_G2, "2")


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


@pytest.mark.parametrize("argv", [
    ["kraw", "--x", "0", "--m", "9"],  # no --t
    ["kraw", "--lloyd", "--x", "0", "--m", "9"],  # --lloyd without --k
    ["construct", "--m", "9", "--k1", "2", "--k2", "4", "--emit", "fg", "--out-f", "f.txt"],
])
def test_handler_usage_errors_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("terncode: ")
    assert not (tmp_path / "f.txt").exists()


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


# sha256 of the JSON stdout of `weights`/`cwe` on the (m, 2, 4) shell pair,
# pinned from the gather-based enumerators these replaced
ENUM_JSON_SHA256 = {
    (9, "weights"): "bba97926b2ca3cac5d3673e9781c81dac0c7c1191815415bc34d07aac0bd9341",
    (9, "cwe"): "d083f6c57be3749b4a034f743f3500654ed2376aa8efcac4be895d5b7147e794",
    (12, "weights"): "b1ac4d59ef7a537388404cc6fb61f3e8e78d02430c188310722ff10536f52106",
    (12, "cwe"): "c57560532c2cef77a966f01c8a6500ee7eb2b720be7f35023cbf36063f04f2c3",
}


@pytest.mark.parametrize("m, formats", [(9, ("json", "csv", "text")), (12, ("json",))])
def test_enumerator_stdout_matches_closed_form_and_pinned_bytes(capsys, tmp_path, m, formats):
    fpath, gpath = str(tmp_path / "f.txt"), str(tmp_path / "g.txt")
    shell = ("--m", str(m), "--k1", "2", "--k2", "4")
    run(capsys, "construct", *shell, "--emit", "fg", "--out-f", fpath, "--out-g", gpath)
    for cmd in ("weights", "cwe"):
        for fmt in formats:
            rc, out = run(capsys, cmd, "--f", fpath, "--g", gpath, "--format", fmt)
            assert rc == 0
            assert out == run(capsys, "construct", *shell, "--emit", cmd, "--format", fmt)[1]
            if fmt == "json":
                assert hashlib.sha256(out.encode()).hexdigest() == ENUM_JSON_SHA256[(m, cmd)]


# sha256 of the stdout of `weights`/`cwe` on the random valid m = 6 pair of
# seed 0 (2,160 CWE terms), pinned from the per-term dict merge
RANDOM6_SHA256 = {
    ("weights", "json"): "30e80386e2dd70057c05b3e71afee930d6aa26ebdc0d1b65303506b469ef7467",
    ("weights", "csv"): "ba02fd38237ed084286b4cb20ce23d5a9fb379660553d6427e3e86c9a5a66a75",
    ("weights", "text"): "6f3563818fa4bd7bc847138785668b0d8449d5418bdf9b12aa5a4da54f0ec495",
    ("cwe", "json"): "080f648928c0e6acf9f51ca5e5d00128c7be5c564d26ea44b5bf26cd74967cc2",
    ("cwe", "csv"): "50d833f61736994e4c6abd86639da604a2e57ccd34e47f06db8196a0d3044af1",
    ("cwe", "text"): "115756d84a249de8fa0bf0f58770b955708d7eb2ed2687c140a539be3192ead0",
}


def test_enumerator_stdout_on_a_random_pair_is_pinned(capsys, tmp_path):
    spec = random_valid_spec(6, np.random.default_rng(0))
    fp, gp = write_pair(tmp_path, spec.f.to_text(), spec.g.to_text(), "6")
    for (cmd, fmt), digest in RANDOM6_SHA256.items():
        rc, out = run(capsys, cmd, "--f", str(fp), "--g", str(gp), "--format", fmt)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# 3: a list spans several chunks, and one ends on a chunk boundary
@pytest.mark.parametrize("chunk", [cli._ROW_CHUNK, 3])
def test_result_json_rows_match_json_dumps(capsys, monkeypatch, chunk):
    monkeypatch.setattr(cli, "_ROW_CHUNK", chunk)
    rng = np.random.default_rng(8)
    objs = []
    for m in range(2, 7):
        spec = random_valid_spec(m, rng)
        wd, enum = code.weight_distribution(spec), code.cwe(spec)
        objs += [code.result_json_obj(m, weights=wd), code.result_json_obj(m, cwe_terms=enum),
                 code.result_json_obj(m, weights=wd, cwe_terms=enum)]
    one_term = code.CompleteWeightEnumerator({(8, 0, 0): 1})
    objs += [code.result_json_obj(2, cwe_terms=one_term), {**code.result_json_obj(2), "cwe": []}]
    assert {len(rows) % 3 for obj in objs for rows in (obj.get("weights"), obj.get("cwe")) if rows} == {0, 1, 2}
    for obj in objs:
        cli._print_result_json(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


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
    with pytest.raises(SystemExit) as exc:  # one transform, no method switch
        main(["spectrum", "--f", fpath, "--naive"])
    assert exc.value.code == 2
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


def test_minimality_budget_exit_code(capsys, pair3):
    fpath, gpath = pair3
    rc, out = run(capsys, "minimality", "--f", fpath, "--g", gpath, "--budget", "0")
    assert rc == 3
    obj = json.loads(out)
    assert obj["error"] == "capacity"
    assert obj["completed_fraction"] == 0.0


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_minimality_rejects_nan_or_negative_budget(capsys, pair3, budget):
    fpath, gpath = pair3
    assert main(["minimality", "--f", fpath, "--g", gpath, f"--budget={budget}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("terncode: budget_seconds must be a non-negative number")


@pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
def test_minimality_orbit_path_stdout_matches_naive_reference(capsys, tmp_path, monkeypatch, extra):
    spec = shell_spec(5, 2, 4)  # weight-symmetric and minimal: certified by the orbit pre-check
    fp, gp = write_pair(tmp_path, spec.f.to_text(), spec.g.to_text(), "5")
    argv = ["minimality", "--f", str(fp), "--g", str(gp), *extra]
    orbit = run(capsys, *argv)
    assert orbit[0] == 0

    def naive(spec, exhaustive, **_):  # the naive oracle takes no budget
        return reference_verdict(spec, exhaustive=exhaustive)

    monkeypatch.setattr(minimality, "spectral_check", naive)
    assert run(capsys, *argv) == orbit


def test_minimality_exhaustive_notes_the_witness_cap(capsys, tmp_path, pair2):
    spec = sparse_random_spec(6, np.random.default_rng(5))  # 3,022 violations
    fp, gp = write_pair(tmp_path, spec.f.to_text(), spec.g.to_text(), "6")
    assert main(["minimality", "--f", str(fp), "--g", str(gp), "--exhaustive"]) == 1
    captured = capsys.readouterr()
    verdict = minimality.spectral_check(spec, exhaustive=True)
    assert len(verdict.witnesses) == minimality.MAX_WITNESSES
    assert captured.out == json.dumps({"spectral": verdict.to_json_obj()}, indent=2) + "\n"
    assert captured.err == f"terncode: stopped at {minimality.MAX_WITNESSES} violations; more may exist\n"
    # fewer violations than the cap: the list is complete and no note is printed
    assert main(["minimality", "--f", pair2[0], "--g", pair2[1], "--exhaustive"]) == 1
    assert capsys.readouterr().err == ""


def test_minimality_nonminimal_stdout_is_pinned(capsys, tmp_path, pair2):
    # the witnesses and check counts follow the scan order of
    # terncode.minimality, which these digests fix byte for byte
    spec = sparse_random_spec(6, np.random.default_rng(5))  # decided on the heavy lines
    fp, gp = write_pair(tmp_path, spec.f.to_text(), spec.g.to_text(), "6")
    runs = [
        (["--method", "both", "--f", pair2[0], "--g", pair2[1]],
         "2c041fa4c8753ec6e50f571811767c41ccf963d3ed03a4b211994d8aa574517e"),
        (["--exhaustive", "--f", pair2[0], "--g", pair2[1]],
         "bd6be728a799a168b7c6f694724d79de9e25e4ca96e60064e1f7287f3db3cafc"),
        (["--f", str(fp), "--g", str(gp)],
         "c1ad0200388463a3c392e74b2fe93953051a1d976436ec8b455a4a70e63e56a0"),
    ]
    for args, digest in runs:
        rc, out = run(capsys, "minimality", *args)
        assert rc == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_minimality_oracle_capacity(capsys, tmp_path):
    # the brute-force oracle refuses m > 5
    fp, gp = write_pair(tmp_path, *(F.to_text() for F in build_fg(HWParams(9, 2, 4))), "9")
    rc, out = run(capsys, "minimality", "--method", "oracle", "--f", str(fp), "--g", str(gp))
    assert rc == 3
    assert json.loads(out)["error"] == "capacity"


def test_minimality_both_refuses_m6_before_the_spectral_check(capsys, tmp_path, monkeypatch):
    spec = sparse_random_spec(6, np.random.default_rng(5))
    fp, gp = write_pair(tmp_path, spec.f.to_text(), spec.g.to_text(), "6")
    oracle = run(capsys, "minimality", "--method", "oracle", "--f", str(fp), "--g", str(gp))
    assert oracle[0] == 3 and json.loads(oracle[1])["error"] == "capacity"

    def spectral_check(*args, **kwargs):
        raise AssertionError("spectral_check ran on a pair the oracle refuses")

    monkeypatch.setattr(minimality, "spectral_check", spectral_check)
    assert run(capsys, "minimality", "--method", "both", "--f", str(fp), "--g", str(gp)) == oracle


def test_verify_example(capsys):
    rc, out = run(capsys, "verify-example")
    assert rc == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert all(obj["checks"].values())
