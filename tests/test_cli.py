import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modgap.cli import _check, _passed, default_config, load_config, main, validate_config
from modgap.errors import ConfigError, Guards


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info_prints_order_and_dim(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--q", "5")
    assert code == 0
    assert "order=120" in out and "dim_Eq=119" in out


def test_group_info_csv_dump(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run_cli(capsys, "group-info", "--q", "4", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("index,a,b,c,d,inverse_index")


def test_delta_estimate_band(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"delta_n": 8, "q_list": [5]}))
    code, out, _ = run_cli(capsys, "delta-estimate", "--digits", "1,2", "--config", str(cfg))
    assert code == 0
    val = float(out.splitlines()[0].split("=")[1].split()[0])
    assert 0.52 <= val <= 0.54


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"L": 1}))
    code, _, err = run_cli(capsys, "group-info", "--config", str(cfg))
    assert code == 2
    assert "L" in err
    code, _, err = run_cli(capsys, "delta-estimate", "--digits", "0")
    assert code == 2
    assert err.startswith("config error: field 'system': digits must lie in 1..9")


@pytest.mark.parametrize("field, value", [
    ("b", "NaN"), ("r_log_coeff", "Infinity"), ("x", "NaN"), ("base_point", "-Infinity"),
    ("tol", "Infinity"), ("delta_tol", "Infinity"),
])
def test_a_float_field_that_is_not_finite_exits_2(tmp_path, capsys, field, value):
    # JSON NaN and +-Infinity parse as floats; `inf > 0` passed the positive checks
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"{field}": {value}}}')
    code, _, err = run_cli(capsys, "group-info", "--q", "5", "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"config error: field '{field}': {field} must be finite")


@pytest.mark.parametrize("raw, field", [
    ({"delta_tol": 0.0}, "delta_tol"),
    ({"delta_tol": -1.0}, "delta_tol"),
    ({"delta_n": 0}, "delta_n"),
    ({"max_iter": 0}, "max_iter"),
])
def test_a_bad_delta_or_iteration_limit_exits_2_at_once(tmp_path, raw, field):
    # in a subprocess under a timeout: a zero bisection width once hung
    # delta-estimate, and delta_n=0 ended in a traceback
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys; from modgap.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, "delta-estimate", "--config", str(cfg)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith(f"config error: field '{field}'"), out.stderr


@pytest.mark.parametrize("command", ["opnorm", "verify-lemmas"])
def test_a_negative_seed_exits_2(capsys, command):
    # it once ended in numpy's traceback for a negative seed, with exit 1
    code, _, err = run_cli(capsys, command, "--q", "5", "--seed", "-1")
    assert code == 2
    assert err.startswith("config error: field 'seed': seed must be >= 0"), err


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "group-info", "--config", str(cfg))
    assert code == 2
    assert "line" in err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nope": 1}))
    code, _, err = run_cli(capsys, "group-info", "--config", str(cfg))
    assert code == 2
    assert "nope" in err


def test_config_roundtrip():
    cfg = validate_config(default_config())
    again = validate_config(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        validate_config({"a": 1.5})
    with pytest.raises(ConfigError):
        validate_config({"q_list": [1]})
    with pytest.raises(ConfigError):
        validate_config({"measure": "sigma"})
    with pytest.raises(ConfigError):
        validate_config({"guards": {"max_q": -1}})
    with pytest.raises(ConfigError):
        validate_config({"guards": {"bogus": 3}})
    # each numeric limit names its own field
    for raw, field in (({"tol": 0.0}, "tol"), ({"max_iter": 0}, "max_iter"),
                       ({"delta_tol": 0.0}, "delta_tol"), ({"delta_tol": -1.0}, "delta_tol"),
                       ({"delta_n": 0}, "delta_n"), ({"seed": -1}, "seed"),
                       ({"n_draws": 0}, "n_draws"), ({"n_draws": -5}, "n_draws"),
                       ({"r_max": 0}, "r_max"), ({"r_prime_min": 0}, "r_prime_min")):
        with pytest.raises(ConfigError, match=field) as e:
            validate_config(raw)
        assert e.value.field == field
    # systems that do not build: no digits, digit 0, a generator with no inverse, no such mode
    for system in ({"mode": "zaremba"}, {"mode": "zaremba", "digits": [0]},
                   {"mode": "schottky", "generators": [[2, 1, 1, 1]]}, {"mode": "hyperbolic"}):
        with pytest.raises(ConfigError) as e:
            validate_config({"system": system})
        assert e.value.field == "system"


def test_build_measure_deterministic_bytes(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps({"q_list": [5], "a": 0.5322, "measure": "mu1", "L": 2, "R_prime": 2})
    )
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    assert run_cli(capsys, "build-measure", "--config", str(cfg), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "build-measure", "--config", str(cfg), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_opnorm_command(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [5], "a": 0.5322, "b": 1.0}))
    code, out, _ = run_cli(capsys, "opnorm", "--config", str(cfg))
    assert code == 0
    assert "norm=" in out and "dim=119" in out


def test_opnorm_and_sweep_report_the_maximal_block(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [5, 7], "a": 0.5322, "b": 1.0, "R_prime": 3}))
    rpt = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "opnorm", "--config", str(cfg), "--report", str(rpt))
    assert code == 0
    (check,) = json.loads(rpt.read_text())["checks"]
    assert f"block={check['block']}" in out and check["block"] in range(5)
    run_cli(capsys, "sweep-q", "--config", str(cfg), "--out", str(tmp_path / "s.csv"),
            "--report", str(rpt))
    max_block = json.loads(rpt.read_text())["constants"]["max_block"]
    assert set(max_block) == {"5", "7"}
    assert all(max_block[q] in range(int(q)) for q in max_block)


def test_opnorm_names_the_block_of_a_sparse_measure(tmp_path, capsys):
    # mu1 at R=2 has 15 points at q=5, fewer than the |G|/q = 24 cosets
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [5], "a": 0.5322, "measure": "mu1",
                               "subspace": "mean_zero", "R_prime": 1}))
    rpt = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "opnorm", "--config", str(cfg), "--report", str(rpt))
    assert code == 0
    (check,) = json.loads(rpt.read_text())["checks"]
    assert check["block"] in range(1, 5) and f"block={check['block']}" in out


def test_decouple_verify_report(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [3, 4], "a": 0.5322, "L": 2, "R_prime": 2}))
    rpt = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "decouple-verify", "--config", str(cfg), "--report", str(rpt))
    assert code == 0
    report = json.loads(rpt.read_text())
    assert report["constants"]["max_violation"] == 0
    assert "fitted_c" in report["constants"]
    assert "K" in report["constants"]
    assert "slack_histogram" in report["constants"]
    assert all(c["status"] == "pass" for c in report["checks"])
    # config echo re-parses to an equivalent config
    assert validate_config(report["config"]) == load_config(str(cfg))


SCHOTTKY_VERIFY = {"system": {"mode": "schottky"}, "q_list": [5], "a": 0.3, "L": 3,
                   "R_prime": 2}


def test_a_pole_in_the_replacement_survey_ends_in_an_error_line(tmp_path, capsys,
                                                                monkeypatch):
    from modgap import decouple

    def pole(spec, k, x, j):
        _, _, c, d = spec.letters[k].matrix
        return -d / c

    monkeypatch.setattr(decouple, "_window_point", pole)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SCHOTTKY_VERIFY))
    code, _, err = run_cli(capsys, "decouple-verify", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: non-finite log-derivative at L=3, upper block (")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["decouple-verify", "verify-lemmas"])
def test_a_block_with_no_outer_letter_ends_in_an_error_line(tmp_path, capsys, command):
    # the Schottky inner slot is two letters wide, so L=2 leaves no outer
    # letter: decouple-verify once passed there with mass ratio 2.17, and
    # verify-lemmas ended in a traceback
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**SCHOTTKY_VERIFY, "L": 2}))
    code, _, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith("error: decoupling needs L >= 3 (got L=2)")
    assert "Traceback" not in err


def test_a_run_base_point_decouples_like_the_systems_own(tmp_path, capsys):
    # the base point beside the system once failed with 10 violations
    reports = []
    for cfg_dict in ({**SCHOTTKY_VERIFY, "base_point": 0.5},
                     {**SCHOTTKY_VERIFY, "system": {"mode": "schottky", "base_point": 0.5}}):
        cfg, rpt = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(json.dumps(cfg_dict))
        code, _, _ = run_cli(capsys, "decouple-verify", "--config", str(cfg),
                             "--report", str(rpt))
        assert code == 0
        reports.append(json.loads(rpt.read_text()))
    (check_a,), (check_b,) = (r["checks"] for r in reports)
    assert check_a["status"] == "pass" and check_a["n_violations"] == 0
    assert check_a["mass_ratio"] == check_b["mass_ratio"]
    assert reports[0]["constants"]["fitted_c"] == reports[1]["constants"]["fitted_c"]


def test_sweep_q_csv_schema(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [4, 5, 7], "a": 0.5322, "b": 1.0}))
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep-q", "--config", str(cfg), "--out", str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "q"
    assert len(lines) == 4
    assert code in (0, 1)  # alpha threshold is a 3-point fit here


def test_sweep_skipped_row_schema(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [5], "a": 0.3, "system": {"mode": "zaremba", "digits": [1]}}))
    out = tmp_path / "sweep.csv"
    rpt = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "sweep-q", "--config", str(cfg), "--out", str(out),
                         "--report", str(rpt))
    # one modulus fits no decay exponent, and q=5 is skipped: nothing is examined
    assert code == 0
    assert [c["status"] for c in json.loads(rpt.read_text())["checks"]] == ["skip", "skip"]
    lines = out.read_text().strip().splitlines()
    fields = lines[1].split(",")
    assert fields[0] == "5"
    assert fields[4] == "" and fields[5] == ""
    assert "subgroup" in fields[-1]


def test_a_failed_check_fails_the_run_beside_a_skipped_one():
    assert not _passed([_check("examined", False), _check("not examined", None)])
    assert _passed([_check("examined", True), _check("not examined", None)])
    assert _passed([_check("not examined", None)])


def test_schottky_check_passes(capsys):
    code, out, _ = run_cli(capsys, "schottky-check", "--q", "5")
    assert code == 0
    assert "degenerate inner-pair set: pass" in out


def test_verify_lemmas_small(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps({"q_list": [3, 5], "a": 0.5322, "n_draws": 10, "L": 2, "R_prime": 2})
    )
    rpt = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify-lemmas", "--config", str(cfg), "--report", str(rpt))
    assert code == 0
    report = json.loads(rpt.read_text())
    names = {c["name"] for c in report["checks"]}
    assert "weighted expansion draws" in names
    assert "per-block gap positive" in names
    assert any(n.startswith("trace identity") for n in names)


def test_verify_lemmas_draws_past_the_dense_guard(tmp_path, capsys):
    # |SL2(Z/16)| = 3072 exceeds guards.dense_oracle = 2500
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [16], "a": 0.5322, "n_draws": 10}))
    rpt = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify-lemmas", "--config", str(cfg), "--report", str(rpt))
    assert code == 0
    checks = {c["name"]: c for c in json.loads(rpt.read_text())["checks"]}
    draws = checks["weighted expansion draws"]
    assert (draws["status"], draws["failed"], set(draws["c0"])) == ("pass", 0, {"16"})
    assert draws["c0"]["16"] > 0
    assert checks["trace identity"]["status"] == "skip"


def test_max_q_guard_reaches_the_sweep(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [5, 9], "a": 0.5322, "b": 1.0, "guards": {"max_q": 8}}))
    out = tmp_path / "sweep.csv"
    _, stdout, _ = run_cli(capsys, "sweep-q", "--config", str(cfg), "--out", str(out))
    assert "q=9: skipped (modulus 9 outside guarded range [2, 8])" in stdout
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [r[0] for r in rows] == ["5", "9"]
    assert rows[0][-1] == "" and "[2, 8]" in rows[1][-1]


def test_contexts_guard_reaches_the_decoupled_bound(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [3], "a": 0.5322, "L": 2, "R_prime": 2,
                               "guards": {"contexts": 1}}))
    code, _, err = run_cli(capsys, "decouple-verify", "--config", str(cfg))
    assert code == 1
    assert "guards.contexts=1" in err


def test_dense_oracle_guard_reaches_the_dense_checks(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [3, 5], "a": 0.5322, "n_draws": 10, "L": 2,
                               "R_prime": 2, "guards": {"dense_oracle": 100}}))
    rpt = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify-lemmas", "--config", str(cfg), "--report", str(rpt))
    assert code == 0
    checks = {c["name"]: c for c in json.loads(rpt.read_text())["checks"]}
    assert "trace identity q=3" in checks and "trace identity q=5" not in checks
    # the draws solve on the pieces, past the dense guard too
    assert checks["weighted expansion draws"]["status"] == "pass"
    assert set(checks["weighted expansion draws"]["c0"]) == {"3", "5"}
    assert set(checks["per-block gap positive"]["min_c1"]) == {"3", "5"}


def test_a_check_that_examines_nothing_skips(tmp_path, capsys):
    # no group within guards.dense_oracle: the trace identity skips, and the
    # expansion draws, which need no dense matrix, still run
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [3], "a": 0.5322, "n_draws": 10, "L": 2,
                               "R_prime": 2, "guards": {"dense_oracle": 10}}))
    rpt = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify-lemmas", "--config", str(cfg), "--report", str(rpt))
    assert code == 0
    checks = {c["name"]: c for c in json.loads(rpt.read_text())["checks"]}
    draws = checks["weighted expansion draws"]
    assert (draws["status"], draws["failed"], set(draws["c0"])) == ("pass", 0, {"3"})
    assert checks["trace identity"] == {
        "name": "trace identity", "status": "skip", "dense_oracle": 10}
    # the only non-square-free modulus lies past guards.max_q
    cfg.write_text(json.dumps({"q_list": [5, 7, 9], "a": 0.5322, "b": 1.0,
                               "guards": {"max_q": 8}}))
    code, _, _ = run_cli(capsys, "sweep-q", "--config", str(cfg),
                         "--out", str(tmp_path / "s.csv"), "--report", str(rpt))
    assert code == 0
    checks = {c["name"]: c for c in json.loads(rpt.read_text())["checks"]}
    gap = checks["positive gap at non-square-free moduli"]
    assert (gap["status"], gap["moduli"], gap["skipped"]) == ("skip", [], [9])


def test_max_q_guard_lifts_the_measure_build(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [33], "a": 0.5322, "b": 1.0, "guards": {"max_q": 40}}))
    out = tmp_path / "m.csv"
    code, _, err = run_cli(capsys, "build-measure", "--config", str(cfg), "--out", str(out))
    assert code == 0, err
    assert out.read_text().startswith("index,a,b,c,d,re_coef,im_coef")


@pytest.mark.parametrize("command", ["opnorm", "build-measure"])
def test_max_q_guard_bounds_single_modulus_commands(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [9], "a": 0.5322, "b": 1.0, "guards": {"max_q": 8}}))
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "m.csv"))
    assert code == 1
    assert "modulus 9 outside guarded range [2, 8]" in err


def test_max_words_guard_reaches_delta_estimate(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"guards": {"max_words": 10}}))
    code, _, err = run_cli(capsys, "delta-estimate", "--config", str(cfg))
    assert code == 1
    assert "guards.max_words=10" in err


def test_max_words_guard_reaches_the_measure_build(tmp_path, capsys):
    # L * R' = 4 letters over 4 letters: 256 words
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q_list": [5], "a": 0.5322, "L": 2, "R_prime": 2,
                               "guards": {"max_words": 255}}))
    out = tmp_path / "m.csv"
    code, _, err = run_cli(capsys, "build-measure", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert "256 words of length 4 exceed guards.max_words=255" in err
    assert not out.exists()


def test_environment_does_not_override_the_guards(monkeypatch, capsys):
    monkeypatch.setenv("MODGAP_MAX_Q", "64")
    code, _, err = run_cli(capsys, "group-info", "--q", "40")
    assert code == 1
    assert "modulus 40 outside guarded range [2, 32]" in err


def test_boolean_is_not_an_integer_field():
    for field in ("R_prime", "seed"):
        with pytest.raises(ConfigError, match=rf"field '{field}' has wrong type bool"):
            validate_config({field: True})


def test_guard_errors_name_the_field():
    with pytest.raises(ConfigError, match=r"guards\.max_words must be a positive integer"):
        validate_config({"guards": {"max_words": 0}})
    with pytest.raises(ConfigError, match=r"guards\.max_q must be a positive integer"):
        validate_config({"guards": {"max_q": True}})
    with pytest.raises(ConfigError, match=r"guards\.bogus"):
        validate_config({"guards": {"bogus": 3}})
    assert validate_config({"guards": {"contexts": 5}}).guards == Guards(contexts=5)
