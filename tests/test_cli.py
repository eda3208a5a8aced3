"""Batch CLI: happy paths, strict config validation, and reproducibility."""

import json

import numpy as np
import pytest

from cmps_lab import (__version__, family_derivative, new_cmps, pair_correlation,
                      pair_density)
from cmps_lab import cli
from cmps_lab.cli import main
from cmps_lab.errors import ConfigError

RF_MODEL = {
    "dim": 2,
    "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
    "R": {"re": [[0.0, 0.0], [1.0, 0.0]]},
}
DAMP_MODEL = {
    "dim": 2,
    "K": {"re": [[0.0, 0.0], [0.0, 0.0]]},
    "R": {"re": [[0.0, 0.0], [1.0, 0.0]]},
}


def rf_config(**extra):
    cfg = {"model": json.loads(json.dumps(RF_MODEL)), "geometry": "thermodynamic"}
    cfg.update(extra)
    return cfg


def damp_finite_config(**extra):
    cfg = {
        "model": json.loads(json.dumps(DAMP_MODEL)),
        "geometry": "finite",
        "length": 8.0,
        "boundary_rho": {"re": [[1.0, 0.0], [0.0, 0.0]]},
    }
    cfg.update(extra)
    return cfg


def run_cli(tmp_path, command, cfg, tag="out", extra=()):
    cfg_path = tmp_path / f"{tag}_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / f"{tag}.json"
    rc = main([command, "--config", str(cfg_path), "--output", str(out_path), *extra])
    return rc, out_path


def load_json(path):
    return json.loads(path.read_text())


def test_steady_reports_stationary_state(tmp_path):
    rc, out = run_cli(tmp_path, "steady", rf_config())
    assert rc == 0
    payload = load_json(out)
    assert payload["version"] == __version__
    assert payload["command"] == "steady"
    # config is echoed back fully resolved (imaginary parts filled in)
    assert payload["config"]["model"]["K"]["im"] == [[0.0, 0.0], [0.0, 0.0]]
    rho = np.asarray(payload["result"]["rho_ss"]["re"])
    assert rho[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rho[1, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert payload["result"]["gap"] == pytest.approx(0.5, abs=1e-12)
    assert payload["result"]["gapless"] is False


# The emitter's spectrum and fixed point as written by the separate steady
# and gap handlers before they were merged; the roundoff-level entries come
# from LAPACK and are specific to the numpy build that recorded them.
EMITTER_SPECTRUM = {
    "eigenvalues": {
        "im": [-2.1490888363650447e-16, 0.0, 0.9682458365518535, -0.9682458365518544],
        "re": [-2.550411903210582e-16, -0.5, -0.7499999999999996, -0.75],
    },
    "gap": 0.5,
    "gapless": False,
}
EMITTER_RHO_SS = {
    "im": [[0.0, -0.3333333333333334], [0.3333333333333334, 0.0]],
    "re": [[0.33333333333333315, -6.119529214533549e-18],
           [-6.119529214533549e-18, 0.6666666666666667]],
}


@pytest.mark.parametrize("command", ["steady", "gap"])
def test_spectrum_outputs_match_recorded_bytes(tmp_path, command):
    rc, out = run_cli(tmp_path, command, rf_config())
    assert rc == 0
    result = dict(EMITTER_SPECTRUM)
    if command == "steady":
        result["rho_ss"] = EMITTER_RHO_SS
    config = rf_config()
    for node in (config["model"]["K"], config["model"]["R"]):
        node["im"] = [[0.0, 0.0], [0.0, 0.0]]
    payload = {"version": __version__, "command": command, "config": config, "result": result}
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_output_temp_file_is_private_and_cleaned(tmp_path, monkeypatch):
    # a directory squatting on the old fixed temp name must not matter
    (tmp_path / "out.json.tmp").mkdir()
    rc, out = run_cli(tmp_path, "steady", rf_config())
    assert rc == 0
    assert load_json(out)["command"] == "steady"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["out.json", "out.json.tmp", "out_cfg.json"]
    # permission bits are those of a file opened plainly for writing
    plain = tmp_path / "plain.json"
    with open(plain, "w", encoding="utf-8"):
        pass
    assert out.stat().st_mode == plain.stat().st_mode
    # a failed write leaves no temp file behind
    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(ConfigError, match="rename refused"):
        cli._atomic_write(str(tmp_path / "again.json"), "{}")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.json", "out.json.tmp", "out_cfg.json", "plain.json"]


@pytest.mark.parametrize("target", ["existing_dir", "missing_dir/out.json"])
def test_unwritable_output_exits_one(tmp_path, capsys, target):
    (tmp_path / "existing_dir").mkdir()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(rf_config()))
    out_path = str(tmp_path / target)
    rc = main(["steady", "--config", str(cfg_path), "--output", out_path])
    assert rc == 1
    assert f"cannot write output '{out_path}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "existing_dir"]
    assert not any((tmp_path / "existing_dir").iterdir())


def test_gap_reports_spectrum(tmp_path):
    rc, out = run_cli(tmp_path, "gap", rf_config())
    assert rc == 0
    result = load_json(out)["result"]
    assert result["gap"] == pytest.approx(0.5, abs=1e-12)
    re = np.sort(np.asarray(result["eigenvalues"]["re"]))
    assert re[-1] == pytest.approx(0.0, abs=1e-12)
    assert re[-2] == pytest.approx(-0.5, abs=1e-12)


def test_correlate_csv_matches_pure_decay(tmp_path):
    cfg = damp_finite_config(separations=[0.0, 1.0, 2.0, 4.0])
    rc, out = run_cli(tmp_path, "correlate", cfg)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# version: {__version__}"
    assert lines[1] == "# command: correlate"
    assert lines[2].startswith("# config: {")
    assert lines[3] == "d,re,im"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[4:]])
    assert np.allclose(rows[:, 1], np.exp(-rows[:, 0] / 2.0), atol=1e-9)
    assert np.allclose(rows[:, 2], 0.0, atol=1e-9)


def test_g2_csv_shows_antibunching(tmp_path):
    cfg = rf_config(separations=[0.0, 1.0])
    rc, out = run_cli(tmp_path, "g2", cfg)
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    vals = np.array([[float(x) for x in ln.split(",")] for ln in rows])
    assert abs(vals[0, 1]) < 1e-12
    ref = pair_correlation(new_cmps(2, np.array(RF_MODEL["K"]["re"]),
                                    np.array(RF_MODEL["R"]["re"])), [1.0])
    assert vals[1, 1] == pytest.approx(ref.values[0].real, abs=1e-12)


def test_kinetic_and_ll_energy_values(tmp_path):
    rc, out = run_cli(tmp_path, "kinetic", rf_config())
    assert rc == 0
    assert load_json(out)["result"]["kinetic_density"] == pytest.approx(1.0 / 6.0, abs=1e-10)

    rc, out = run_cli(tmp_path, "ll-energy", rf_config(c=1.0, mu=1.0), tag="ll")
    assert rc == 0
    assert load_json(out)["result"]["energy_density"] == pytest.approx(-1.0 / 6.0, abs=1e-10)


def test_discretize_defect_shrinks_quadratically(tmp_path):
    cfg = rf_config(epsilons=[0.1, 0.05])
    rc, out = run_cli(tmp_path, "discretize", cfg)
    assert rc == 0
    result = load_json(out)["result"]
    assert result["order"] == 1
    defects = result["transfer_defect"]
    assert defects[1] < defects[0] / 2.0
    assert abs(result["occupation"][1] - 1.0 / 3.0) < 0.05


def test_discretize_rejects_eps_that_does_not_tile_the_window(tmp_path, capsys):
    # 7 sites of 0.3 would cover 2.1, not the window of length 2
    cfg = damp_finite_config(length=2.0, epsilons=[0.5, 0.3])
    rc, out = run_cli(tmp_path, "discretize", cfg)
    assert rc == 1
    assert "eps 0.3 does not divide the length 2.0" in capsys.readouterr().err
    assert not out.exists()
    rc, _ = run_cli(tmp_path, "discretize", damp_finite_config(length=2.0, epsilons=[0.5, 0.25]))
    assert rc == 0


def test_converge_extrapolates_occupation(tmp_path):
    cfg = rf_config(epsilons=[0.08, 0.04, 0.02])
    rc, out = run_cli(tmp_path, "converge", cfg)
    assert rc == 0
    result = load_json(out)["result"]
    assert abs(result["extrapolated"] - 1.0 / 3.0) < 1e-3
    assert result["orders"][-1] == pytest.approx(1.0, abs=0.3)


def test_output_config_reruns_bit_identically(tmp_path):
    cfg = rf_config(length=30.0, n_traj=30, seed=9, bins=[0.0, 1.0, 2.0])
    rc, out = run_cli(tmp_path, "trajectories", cfg, tag="orig")
    assert rc == 0
    # the emitted config embeds every filled default (burn_in), so
    # feeding it back must reproduce the file byte for byte
    rc2, out2 = run_cli(tmp_path, "trajectories", load_json(out)["config"], tag="replay")
    assert rc2 == 0
    assert out.read_bytes() == out2.read_bytes()
    result = load_json(out)["result"]
    assert 0.0 < result["rate"] < 1.0
    assert len(result["pair_correlation"]) == 2
    assert result["n_traj"] == 30


def test_thermodynamic_trajectories_need_record_length(tmp_path):
    cfg = rf_config(n_traj=10, seed=1, bins=[0.0, 1.0])
    rc, _ = run_cli(tmp_path, "trajectories", cfg)
    assert rc == 1


def test_lindblad_check_diagonal_and_anomalous(tmp_path):
    diag = rf_config(moments={"psi_dag_sq": {"re": 0.0}, "psi_dag_psi": 0.5})
    rc, out = run_cli(tmp_path, "lindblad-check", diag, tag="diag")
    assert rc == 0
    res = load_json(out)["result"]
    assert res["max_difference"] < 1e-12
    assert abs(res["trace_defect_general"]) < 1e-12
    assert abs(res["trace_defect_jump_form"]) < 1e-12

    anom = rf_config(moments={"psi_dag_sq": {"re": 0.3}, "psi_dag_psi": 0.5})
    rc, out = run_cli(tmp_path, "lindblad-check", anom, tag="anom")
    assert rc == 0
    assert load_json(out)["result"]["max_difference"] > 1e-4


def test_zfunctional_check_reports_small_errors(tmp_path):
    cfg = rf_config(eps=0.1, h=0.02, n_sites=40)
    rc, out = run_cli(tmp_path, "zfunctional-check", cfg)
    assert rc == 0
    res = load_json(out)["result"]
    assert res["single_insertion_error"] < 1e-6
    assert res["two_insertion_error"] < 1e-3
    assert res["sites"] == [10, 30]


def test_family_deriv_matches_library(tmp_path):
    dk = [[0.0, 0.1], [0.1, 0.0]]
    dr = [[0.0, 0.0], [0.05, 0.0]]
    cfg = rf_config(dK={"re": dk}, dR={"re": dr},
                    insertions=[{"kind": "pair_density", "position": 0.7}])
    rc, out = run_cli(tmp_path, "family-deriv", cfg)
    assert rc == 0
    got = load_json(out)["result"]["derivative"]
    params = new_cmps(2, np.array(RF_MODEL["K"]["re"]), np.array(RF_MODEL["R"]["re"]))
    want = family_derivative(params, np.array(dk), np.array(dr),
                             [(0.7, pair_density(params))])
    assert got["re"] == pytest.approx(want.real, abs=1e-12)
    assert got["im"] == pytest.approx(want.imag, abs=1e-12)


def test_family_deriv_grid_step_is_an_unknown_key(tmp_path, capsys):
    cfg = rf_config(dK={"re": [[0.0, 0.1], [0.1, 0.0]]}, dR={"re": [[0.0, 0.0], [0.05, 0.0]]},
                    insertions=[{"kind": "pair_density", "position": 0.7}], grid_step=0.01)
    rc, out = run_cli(tmp_path, "family-deriv", cfg)
    assert rc == 1
    assert "unknown key 'grid_step'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["bogus", ["pair_density"]])
def test_family_deriv_unknown_kind_exits_one(tmp_path, capsys, kind):
    cfg = rf_config(dK={"re": [[0.0, 0.1], [0.1, 0.0]]}, dR={"re": [[0.0, 0.0], [0.05, 0.0]]},
                    insertions=[{"kind": kind, "position": 0.7}])
    rc, out = run_cli(tmp_path, "family-deriv", cfg)
    assert rc == 1
    assert ("'insertions[0].kind' must be one of ['annihilate', 'create', 'deriv_annihilate',"
            " 'deriv_create', 'pair_density']") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mangle", [
    lambda c: c.update(bogus=1),
    lambda c: c["model"].pop("K"),
    lambda c: c["model"]["K"]["re"].pop(),
    lambda c: c["model"]["K"]["re"][0].__setitem__(1, 0.9),
    lambda c: c.__setitem__("geometry", "bogus"),
    lambda c: c.__setitem__("boundary_rho", {"re": [[1.0, 0.0], [0.0, 0.0]]}),
])
def test_invalid_configs_exit_one(tmp_path, capsys, mangle):
    cfg = rf_config()
    mangle(cfg)
    rc, _ = run_cli(tmp_path, "steady", cfg)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_key_is_named_with_dotted_path(tmp_path, capsys):
    cfg = rf_config()
    cfg["model"]["extra"] = 1
    rc, _ = run_cli(tmp_path, "steady", cfg)
    assert rc == 1
    assert "model.extra" in capsys.readouterr().err


def test_missing_and_malformed_config_files(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["steady", "--config", str(tmp_path / "nope.json"),
                 "--output", str(out)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["steady", "--config", str(bad), "--output", str(out)]) == 1
    # strict JSON has no NaN/Infinity literals, nor numbers that overflow
    for literal in ("NaN", "Infinity", "-Infinity", "1e999"):
        cfg = rf_config(separations=[0.0])
        text = json.dumps(cfg).replace("[0.0]", f"[{literal}]")
        bad.write_text(text)
        assert main(["correlate", "--config", str(bad), "--output", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
    bad.write_text(json.dumps(rf_config(separations=[0.0])).replace("[0.0]", "[1%s]" % ("0" * 400)))
    assert main(["correlate", "--config", str(bad), "--output", str(out)]) == 1
    assert "float range" in capsys.readouterr().err


def test_trajectory_config_validation(tmp_path, capsys):
    base = dict(length=10.0, n_traj=5, seed=2, bins=[0.0, 1.0])
    bad_seed = rf_config(**{**base, "seed": -1})
    assert run_cli(tmp_path, "trajectories", bad_seed, tag="s")[0] == 1
    bad_bins = rf_config(**{**base, "bins": [-1.0, 1.0]})
    assert run_cli(tmp_path, "trajectories", bad_bins, tag="b")[0] == 1
    endless = rf_config(**{**base, "length": float("inf")})
    assert run_cli(tmp_path, "trajectories", endless, tag="inf")[0] == 1
    capsys.readouterr()
    # the sampler has no time step: a config carrying one is stale
    stepped = rf_config(**{**base, "dt": 0.01})
    assert run_cli(tmp_path, "trajectories", stepped, tag="dt")[0] == 1
    assert "'dt'" in capsys.readouterr().err


def test_converge_observable_validation(tmp_path):
    assert run_cli(tmp_path, "converge",
                   rf_config(epsilons=[0.1], observable="bogus"), tag="a")[0] == 1
    assert run_cli(tmp_path, "converge",
                   rf_config(epsilons=[0.1], separation=1.0), tag="b")[0] == 1
    assert run_cli(tmp_path, "converge",
                   rf_config(epsilons=[0.1], observable="hopping"), tag="c")[0] == 1


def test_degenerate_fixed_space_exits_two(tmp_path, capsys):
    cfg = rf_config()
    cfg["model"]["K"] = {"re": [[0.0, 0.0], [0.0, 0.0]]}
    cfg["model"]["R"] = {"re": [[0.0, 0.0], [0.0, 0.0]]}
    rc, _ = run_cli(tmp_path, "steady", cfg)
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_coherent_state_with_complex_emission_exits_zero(tmp_path):
    # at D = 1 the generator's terms cancel exactly; its certificates must
    # not be scaled by the roundoff that is left
    model = {"dim": 1, "K": {"re": [[0.3]]}, "R": {"re": [[1.3]], "im": [[-0.2]]}}
    cfg = {"model": model, "geometry": "thermodynamic"}
    rc, out = run_cli(tmp_path, "steady", cfg, tag="steady")
    assert rc == 0
    assert load_json(out)["result"]["rho_ss"]["re"] == [[1.0]]
    rc, out = run_cli(tmp_path, "kinetic", cfg, tag="kinetic")
    assert rc == 0
    assert load_json(out)["result"]["kinetic_density"] == pytest.approx(0.0, abs=1e-12)
    rc, out = run_cli(tmp_path, "correlate", {**cfg, "separations": [0.0, 1.0]}, tag="corr")
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    re_parts = np.array([float(row.split(",")[1]) for row in rows])
    assert np.abs(re_parts - 1.73).max() < 1e-12  # |R|^2 at every separation


def test_tolerance_overrides_loosen_hermiticity(tmp_path):
    cfg = rf_config()
    cfg["model"]["K"]["re"][0][1] = 0.5 + 1e-7
    rc, _ = run_cli(tmp_path, "steady", cfg, tag="strict")
    assert rc == 1

    # a slightly non-Hermitian K also nudges the zero mode off the axis,
    # so the spectral certificates must be loosened alongside herm_tol
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps(
        {"herm_tol": 1e-6, "zero_real_tol": 1e-5, "residual_tol": 1e-5}))
    rc, out = run_cli(tmp_path, "steady", cfg, tag="loose",
                      extra=("--tolerance-overrides", str(overrides)))
    assert rc == 0
    assert load_json(out)["result"]["gap"] == pytest.approx(0.5, abs=1e-5)

    # the overrides end with their run: the next one is strict again
    rc, _ = run_cli(tmp_path, "steady", cfg, tag="strict_again")
    assert rc == 1


def test_tolerance_override_validation(tmp_path, capsys):
    cfg = rf_config()
    bad_name = tmp_path / "bad_name.json"
    bad_name.write_text(json.dumps({"nope": 1.0}))
    rc, _ = run_cli(tmp_path, "steady", cfg, tag="n",
                    extra=("--tolerance-overrides", str(bad_name)))
    assert rc == 1
    # the signal floor only ever served decay_fit, which no command runs
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps({"signal_floor": 1e-12}))
    capsys.readouterr()
    rc, _ = run_cli(tmp_path, "steady", cfg, tag="r",
                    extra=("--tolerance-overrides", str(retired)))
    assert rc == 1
    assert "unknown tolerance 'signal_floor'" in capsys.readouterr().err
    bad_val = tmp_path / "bad_val.json"
    bad_val.write_text(json.dumps({"herm_tol": -1.0}))
    rc, _ = run_cli(tmp_path, "steady", cfg, tag="v",
                    extra=("--tolerance-overrides", str(bad_val)))
    assert rc == 1
    for literal in ("NaN", "Infinity"):
        bad_val.write_text('{"herm_tol": %s}' % literal)
        rc, _ = run_cli(tmp_path, "steady", cfg, tag="nf",
                        extra=("--tolerance-overrides", str(bad_val)))
        assert rc == 1
    capsys.readouterr()
