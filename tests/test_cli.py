"""Batch CLI: happy paths, strict config validation, and reproducibility."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cmps_lab
from cmps_lab import __version__, family_derivative, new_cmps, pair_correlation
from cmps_lab import cli
from cmps_lab.cli import main
from cmps_lab.errors import ConfigError

from conftest import HUGE_X_K, HUGE_X_R, coupled_blocks, rand_herm, rand_mat

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
    """Run cli.main on cfg written to a file; a cfg of None passes no --config."""
    out_path = tmp_path / f"{tag}.json"
    argv = [command, "--output", str(out_path), *extra]
    if cfg is not None:
        cfg_path = tmp_path / f"{tag}_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv += ["--config", str(cfg_path)]
    return main(argv), out_path


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


def test_steady_reports_the_one_dimensional_vacuum(tmp_path, capfd):
    # K = R = 0 at D = 1 has term norm 0; steady refused it as degenerate
    # and exited 2
    model = {"dim": 1, "K": {"re": [[0.0]]}, "R": {"re": [[0.0]]}}
    rc, printed, out = run_strict(tmp_path, capfd, "steady",
                                  {"model": model, "geometry": "thermodynamic"})
    assert (rc, printed.out, printed.err) == (0, "", "")
    result = load_json(out)["result"]
    assert result["rho_ss"]["re"] == [[1.0]]
    assert result["gap"] == 0.0 and result["gapless"] is True


# The emitter's spectrum and fixed point as the real solves in the Hermitian
# basis write them (the eigenvalues, the eigenvalue solve; rho, the bordered
# solve); the roundoff-level entries come from LAPACK and are specific to the
# numpy build that recorded them.  Each number lies within 1e-15 of its exact
# value: eigenvalues 0, -1/2, -3/4 -+ i sqrt(15)/4, gap 1/2,
# rho = [[1/3, -i/3], [i/3, 2/3]].
EMITTER_SPECTRUM = {
    "eigenvalues": {
        "im": [0.0, 0.0, -0.9682458365518546, 0.9682458365518546],
        "re": [1.577533096956222e-16, -0.5000000000000001, -0.7500000000000003,
               -0.7500000000000003],
    },
    "gap": 0.5000000000000001,
    "gapless": False,
}
EMITTER_RHO_SS = {
    "im": [[0.0, -0.33333333333333337], [0.33333333333333337, 0.0]],
    "re": [[0.33333333333333337, -0.0], [0.0, 0.6666666666666666]],
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


def test_json_writer_writes_the_bytes_of_json_dumps():
    nan, inf = float("nan"), float("inf")
    payload = {
        "floats": [nan, inf, -inf, -0.0, 1e-300, 0.1, np.float64(0.25), np.float32(0.1)],
        "empty": {"list": [], "dict": {}, "tuple": (), "array": np.zeros(0)},
        "complex": {"scalars": [complex(1.5, -0.0), np.complex128(2 - 3j)],
                    "array": np.array([[1 + 2j, complex(nan, 0.0)]]),
                    "nested": [[{"z": 1j}]]},
        "matrix": np.array([[1.0, inf], [-0.0, 2.5]]),
        "scalars": [np.int64(-7), np.bool_(True), np.bool_(False), True, None, 3, 2**70],
        "text": "café – ∞ \"q\"\n",
        "Ä": 1,
    }
    # what json.dumps must be given to write the same bytes
    reference = {
        "floats": [None, None, None, -0.0, 1e-300, 0.1, 0.25, float(np.float32(0.1))],
        "empty": {"list": [], "dict": {}, "tuple": [], "array": []},
        "complex": {"scalars": [{"re": 1.5, "im": -0.0}, {"re": 2.0, "im": -3.0}],
                    "array": [[{"re": 1.0, "im": 2.0}, {"re": None, "im": 0.0}]],
                    "nested": [[{"z": {"re": 0.0, "im": 1.0}}]]},
        "matrix": [[1.0, None], [-0.0, 2.5]],
        "scalars": [-7, True, False, True, None, 3, 2**70],
        "text": "café – ∞ \"q\"\n",
        "Ä": 1,
    }
    assert cli._json_text(payload) == json.dumps(reference, indent=2, sort_keys=True)
    for empty in ([], {}):
        assert cli._json_text(empty) == json.dumps(empty, indent=2)
    with pytest.raises(TypeError):
        cli._json_text({"set": {1}})


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
    # the resolved config, as compact sorted json.dumps writes it
    for node in (cfg["model"]["K"], cfg["model"]["R"], cfg["boundary_rho"]):
        node["im"] = [[0.0, 0.0], [0.0, 0.0]]
    assert lines[2] == "# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))
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


@pytest.mark.parametrize("cfg", [rf_config(epsilons=[0.1, 0.05]),
                                 damp_finite_config(epsilons=[0.5, 0.25])])
def test_discretize_builds_each_transfer_matrix_once(tmp_path, monkeypatch, cfg):
    # the defect and the occupation read one transfer matrix per step
    build = cmps_lab.discretizer.transfer_matrix
    steps = []
    monkeypatch.setattr(cmps_lab.discretizer, "transfer_matrix",
                        lambda tensors: steps.append(tensors.eps) or build(tensors))
    rc, _ = run_cli(tmp_path, "discretize", cfg)
    assert rc == 0
    assert steps == cfg["epsilons"]


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


def test_converge_writes_complex_extrapolation_for_hopping_only(tmp_path):
    rng = np.random.default_rng(3)
    k, r = rand_herm(2, rng), 0.7 * rand_mat(2, rng)
    model = {"dim": 2, "K": {"re": k.real.tolist(), "im": k.imag.tolist()},
             "R": {"re": r.real.tolist(), "im": r.imag.tolist()}}
    base = {"model": model, "geometry": "thermodynamic", "epsilons": [0.02, 0.01]}
    rc, out = run_cli(tmp_path, "converge", {**base, "observable": "hopping",
                                             "separation": 0.2}, tag="hop")
    assert rc == 0
    result = load_json(out)["result"]
    assert set(result["extrapolated"]) == {"re", "im"}
    assert result["extrapolated"]["im"] != 0.0
    assert all(v != 0.0 for v in result["values"]["im"])
    for observable in ("occupation", "pair"):
        extra = {} if observable == "occupation" else {"separation": 0.2}
        rc, out = run_cli(tmp_path, "converge", {**base, "observable": observable, **extra},
                          tag=observable)
        assert rc == 0
        assert isinstance(load_json(out)["result"]["extrapolated"], float)


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
                             [(0.7, "pair_density")])
    assert got["re"] == pytest.approx(want.real, abs=1e-12)
    assert got["im"] == pytest.approx(want.imag, abs=1e-12)


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


def test_zero_real_override_moves_the_fixed_space_threshold(tmp_path):
    # coupled blocks: ||B^-1||_1 x term norm ~ 1e9 at t = 1e-4 and ~ 1e11
    # at t = 1e-5, against 1 / zero_real_tol
    def model(t):
        k, r = coupled_blocks(t)
        return {"dim": 6, "K": {"re": k.real.tolist(), "im": k.imag.tolist()},
                "R": {"re": r.real.tolist(), "im": r.imag.tolist()}}

    for t, default_rc, zero_real, override_rc in ((1e-4, 0, 1e-8, 2), (1e-5, 2, 1e-12, 0)):
        cfg = {"model": model(t), "geometry": "thermodynamic"}
        assert run_cli(tmp_path, "kinetic", cfg, tag=f"{t}")[0] == default_rc
        overrides = tmp_path / "tol.json"
        overrides.write_text(json.dumps({"zero_real_tol": zero_real}))
        rc, _ = run_cli(tmp_path, "kinetic", cfg, tag=f"{t}-override",
                        extra=("--tolerance-overrides", str(overrides)))
        assert rc == override_rc


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


# The reproducibility contract: outputs are byte-identical across reruns
# at a fixed BLAS thread count (criterion 09), and agree to roundoff across
# thread counts, because OpenBLAS splits its kernels by thread count and
# the last bits move with the split.  Measured between 1 and 2 threads:
# at D = 12, rho 5.4e-15 and the two-point values 4.8e-16 of their largest
# entry, eigenvalues and converge identical; at D = 24, up to 2e-14
# relative and 1.6e-13 absolute on eigenvalues of modulus ~100.  The
# lattice values carry the 1 / eps conditioning of the transfer fixed
# points (see test_discretizer.THERMO_RTOL_TIMES_EPS).
THREAD_RTOL = 1e-12
LATTICE_RTOL_TIMES_EPS = 5e-14


def _run_in_subprocess(tmp_path, threads, commands):
    """Run (command, config path) pairs through cli.main in one fresh
    interpreter with OPENBLAS_NUM_THREADS=threads; return the output paths."""
    outs = [tmp_path / f"{command}-{threads}.out" for command, _ in commands]
    calls = "".join(
        f"assert main([{command!r}, '--config', {str(cfg)!r}, '--output', {str(out)!r}]) == 0\n"
        for (command, cfg), out in zip(commands, outs))
    subprocess.run([sys.executable, "-c", "from cmps_lab.cli import main\n" + calls],
                   env=_package_env(OPENBLAS_NUM_THREADS=str(threads)), check=True, timeout=300)
    return outs


def _package_env(**extra):
    """This process's environment, with extra, and the package under test
    first on the path of a fresh interpreter."""
    src = str(Path(cmps_lab.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _csv_values(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and ln[0].isdigit()]
    return np.array([[float(x) for x in ln.split(",")] for ln in lines])


def _close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b).max() <= rtol * np.abs(a).max()


def test_outputs_agree_across_blas_thread_counts(tmp_path):
    rng = np.random.default_rng(12)
    d = 12
    k, r = 0.5 * rand_herm(d, rng), 0.4 * rand_mat(d, rng)
    model = {"dim": d, "K": {"re": k.real.tolist(), "im": k.imag.tolist()},
             "R": {"re": r.real.tolist(), "im": r.imag.tolist()}}
    base = {"model": model, "geometry": "thermodynamic"}
    eps = [0.02, 0.01, 0.005]
    configs = {"steady": base,
               "correlate": {**base, "separations": [0.0, 0.3, 1.0, 2.5, 6.0]},
               "converge": {**base, "epsilons": eps}}
    commands = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        commands.append((command, path))
    one, two = (_run_in_subprocess(tmp_path, n, commands) for n in (1, 2))

    steady = [load_json(path)["result"] for path in (one[0], two[0])]
    for key in ("eigenvalues", "rho_ss"):
        for part in ("re", "im"):
            assert _close(steady[0][key][part], steady[1][key][part], THREAD_RTOL), key
    assert _close(steady[0]["gap"], steady[1]["gap"], THREAD_RTOL)
    assert _close(_csv_values(one[1]), _csv_values(two[1]), THREAD_RTOL)
    converge = [load_json(path)["result"] for path in (one[2], two[2])]
    for key in ("extrapolated", "values"):
        a, b = (c[key]["re"] if key == "values" else c[key] for c in converge)
        assert _close(a, b, LATTICE_RTOL_TIMES_EPS / min(eps)), key


ZERO_2X2 = [[0.0, 0.0], [0.0, 0.0]]
MINIMAL = {
    "steady": ({}, {}),
    "gap": ({}, {}),
    "kinetic": ({}, {}),
    "correlate": ({"separations": [0.0, 1.5]}, {}),
    "g2": ({"separations": [0.0, 1.5]}, {}),
    "ll-energy": ({"c": 1.0, "mu": 1.0}, {}),
    "discretize": ({"epsilons": [0.1, 0.05]}, {"order": 1}),
    "converge": ({"epsilons": [0.02, 0.01]}, {"order": 1, "observable": "occupation"}),
    "trajectories": ({"length": 10.0, "n_traj": 5, "seed": 4, "bins": [0.0, 1.0]},
                     {"burn_in": 0.0}),
    "lindblad-check": ({"moments": {"psi_dag_sq": {"re": 0.3}, "psi_dag_psi": 0.5}},
                       {"dx": 0.1, "moments": {"psi_dag_sq": {"re": 0.3, "im": 0.0},
                                               "psi_dag_psi": 0.5}}),
    "zfunctional-check": ({"eps": 0.1, "h": 0.02, "n_sites": 10}, {"site_pair": [2, 7]}),
    "family-deriv": ({"dK": {"re": [[0.0, 0.1], [0.1, 0.0]]},
                      "dR": {"re": [[0.0, 0.0], [0.05, 0.0]]},
                      "insertions": [{"kind": "create", "position": 0.0},
                                     {"kind": "annihilate", "position": 1.0}]},
                     {"dK": {"re": [[0.0, 0.1], [0.1, 0.0]], "im": ZERO_2X2},
                      "dR": {"re": [[0.0, 0.0], [0.05, 0.0]], "im": ZERO_2X2}}),
}


def minimal_config(command):
    """The MINIMAL config of a command, every optional key omitted."""
    given, _ = MINIMAL[command]
    # correlate runs a finite chain, so boundary_rho's imaginary part is filled too
    return (damp_finite_config if command == "correlate" else rf_config)(**given)


def _echoed_config(path):
    text = path.read_text()
    if text.startswith("#"):  # CSV: the config is a leading comment line
        line = next(ln for ln in text.splitlines() if ln.startswith("# config: "))
        return json.loads(line[len("# config: "):])
    return json.loads(text)["config"]


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_minimal_configs_echo_every_default_and_replay_byte_for_byte(tmp_path, command):
    # every optional key omitted; the echo is the config with each default
    # filled in, and feeding it back reproduces the output file exactly
    rc, out = run_cli(tmp_path, command, minimal_config(command), tag="minimal")
    assert rc == 0
    resolved = minimal_config(command)
    for node in [resolved["model"]["K"], resolved["model"]["R"]] + (
            [resolved["boundary_rho"]] if "boundary_rho" in resolved else []):
        node["im"] = ZERO_2X2
    resolved.update(MINIMAL[command][1])
    assert _echoed_config(out) == resolved
    rc, again = run_cli(tmp_path, command, _echoed_config(out), tag="replay")
    assert rc == 0
    assert again.read_bytes() == out.read_bytes()


def test_minimal_configs_write_the_same_bytes_in_any_call_order(tmp_path):
    # one process runs every command forward, reversed and forward again:
    # what an earlier run leaves cached (the Hermitian basis, the sampler's
    # start table) must not move a later output by a bit
    commands = sorted(MINIMAL)
    passes = []
    for n, order in enumerate((commands, commands[::-1], commands)):
        written = {}
        for command in order:
            rc, out = run_cli(tmp_path, command, minimal_config(command), tag=f"{command}-{n}")
            assert rc == 0, command
            written[command] = out.read_bytes()
        passes.append(written)
    assert passes[0] == passes[1] == passes[2]


def run_strict(tmp_path, capfd, command, cfg, tag="out", extra=()):
    """Run cli.main in-process with every warning an error, as `python -W
    error` sets them; return the exit code, what it printed (stdout and
    stderr) and the output path."""
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_cli(tmp_path, command, cfg, tag, extra)
    return rc, capfd.readouterr(), out


def emitter(drive, emission):
    """Model config of K = drive sigma_x, R = emission sigma_minus."""
    return {"dim": 2, "K": {"re": [[0.0, drive], [drive, 0.0]]},
            "R": {"re": [[0.0, 0.0], [emission, 0.0]]}}


def unresolved(bound, step):
    """The refusal of an exponential whose term norm x |dx| is bound."""
    return (f"term norm x |dx| = {bound} exceeds 1e+10: the exponential at step {step}"
            " is not resolved in double precision")


# K = 1e300 sigma_x / 2, R = 1e160 sigma_minus: R^dag R overflows
HUGE_RDR = emitter(5e299, 1e160)
# K = 5e150 sigma_x, R = 1e76 sigma_minus: a finite fixed point, but X^dag X
# and the lattice oracle's fixed points overflow (conftest.HUGE_X_K)
HUGE_X = {"dim": 2, "K": {"re": HUGE_X_K.tolist()}, "R": {"re": HUGE_X_R.tolist()}}
# every entry of K = 1e308 (1 1; 1 1) is finite, but its term norm is not
HUGE_K = {"dim": 2, "K": {"re": [[1e308, 1e308], [1e308, 1e308]]}, "R": DAMP_MODEL["R"]}
# K = sigma_x / 2, R = diag(1, 1/2): zfunctional-check over four sites of step 1
SOURCE_MODEL = {"dim": 2, "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                "R": {"re": [[1.0, 0.0], [0.0, 0.5]]}}
WINDOW = {"geometry": "finite", "length": 1.0, "boundary_rho": {"re": [[0.5, 0.0], [0.0, 0.5]]}}
BULK = {"geometry": "thermodynamic"}
MOMENTS = {"psi_dag_sq": {"re": 0.3}, "psi_dag_psi": 0.5}
VACUUM_MOMENTS = {"psi_dag_sq": {"re": 0.0}, "psi_dag_psi": 0.0}

# Every config the CLI refuses: row id -> (command, config, exit code, the
# one line printed after "error: " (exit 1) or "numerical failure: " (exit
# 2)[, the JSON of a --tolerance-overrides file]).  Ids "group/case" are the
# cases of one parametrized test.  Each row runs in-process under warnings
# as errors, so an overflow warning that escapes before the refusal fails
# it, as it would under `python -W error`.
REFUSALS = {
    # config validation
    "config/not-an-object": ("steady", [RF_MODEL], 1, "'config' must be a JSON object"),
    "config/not-an-array": ("correlate", rf_config(separations=0.5), 1,
                            "'separations' must be an array"),
    "config/empty-array": ("correlate", rf_config(separations=[]), 1,
                           "'separations' must not be empty"),
    "config/not-a-number": ("ll-energy", rf_config(c="1.0", mu=1.0), 1, "'c' must be a number"),
    "config/row-not-an-array": ("steady", rf_config(model={**RF_MODEL, "K": {"re": [0.0, 0.5]}}),
                                1, "'model.K.re[0]' must be an array"),
    "config/ragged-matrix": ("steady", rf_config(model={**RF_MODEL, "K": {
        "re": [[0.0, 0.5], [0.5]]}}), 1,
        "'model.K.re' must hold numbers only, got [[0.0, 0.5], [0.5]]"),
    "config/re-im-shapes": ("steady", rf_config(model={**RF_MODEL, "K": {
        "re": [[0.0, 0.5], [0.5, 0.0]], "im": [[0.0]]}}), 1,
        "'model.K' re/im must be matching 2d row-major matrices"),
    "config/thermodynamic-length": ("steady", rf_config(length=1.0), 1,
                                    "'length' is only valid for finite geometry"),
    "config/finite-without-rho": ("steady", {"model": RF_MODEL, "geometry": "finite",
                                             "length": 1.0}, 1,
                                  "finite geometry requires 'length' and 'boundary_rho'"),
    "config/overrides-not-an-object": ("steady", rf_config(), 1,
                                       "tolerance overrides must be a JSON object", [1e-6]),
    "config/tolerance-not-a-number": ("steady", rf_config(), 1,
                                      "tolerance 'herm_tol' must be a number", {"herm_tol": "x"}),
    # Tolerances refuses it, naming its field
    "config/tolerance-not-positive": ("steady", rf_config(), 1,
                                      "tolerance herm must be a finite positive number, got -1.0",
                                      {"herm_tol": -1.0}),
    "repeated-epsilons": ("converge", rf_config(epsilons=[0.01, 0.01, 0.02]), 1,
                          "eps values must be distinct, got [0.02, 0.01, 0.01]"),
    "grid-step": ("family-deriv", rf_config(
        dK={"re": [[0.0, 0.1], [0.1, 0.0]]}, dR={"re": [[0.0, 0.0], [0.05, 0.0]]},
        insertions=[{"kind": "pair_density", "position": 0.7}], grid_step=0.01), 1,
        "unknown key 'grid_step'"),
    "dotted-key": ("steady", rf_config(model={**RF_MODEL, "extra": 1}), 1,
                   "unknown key 'model.extra'"),
    "record-length": ("trajectories", rf_config(n_traj=10, seed=1, bins=[0.0, 1.0]), 1,
                      "missing required key 'length'"),
    "negative-burn-in": ("trajectories", rf_config(length=30.0, n_traj=20, seed=3,
                                                   bins=[0.0, 0.5, 1.0], burn_in=-10.0), 1,
                         "burn_in must be finite and nonnegative, got -10.0"),
    # bad input that only shows deep in a computation is still refused as input
    "input/one-record": ("trajectories", rf_config(length=10.0, n_traj=1, seed=1,
                                                   bins=[0.0, 1.0]), 1,
                         "need at least 2 trajectories"),
    "input/short-window": ("trajectories", rf_config(length=10.0, burn_in=9.5, n_traj=3, seed=1,
                                                     bins=[0.0, 1.0]), 1,
                           "record length after burn-in (0.5) must exceed the largest bin edge (1)"),
    "input/short-chain": ("converge", {"model": RF_MODEL, **WINDOW, "epsilons": [0.02, 0.01],
                                       "observable": "hopping", "separation": 3.0}, 1,
                          "chain of 50 sites cannot hold span 151"),
    **{f"dx/{dx}": ("lindblad-check", rf_config(moments=MOMENTS, dx=dx), 1,
                    f"dx must be positive, got {dx}") for dx in (-1.0, 0.0)},
    # K = R = 0 and K = diag(1, 2), R = 0: every diagonal state is fixed
    **{f"degenerate-{command}": (command, rf_config(model={"dim": 2, "K": {"re": k},
                                                           "R": {"re": ZERO_2X2}}), 2,
                                 "fixed space is degenerate (the bordered generator is"
                                 " singular); stationary quantities are ill-defined")
       for command, k in (("steady", ZERO_2X2), ("kinetic", [[1.0, 0.0], [0.0, 2.0]]))},
    # a term norm that overflows
    "fixed-point-term-norm": ("steady", {"model": HUGE_K, **BULK}, 2,
                              "generator has a non-finite term norm"),
    "finite-generator-term-norm": ("correlate", damp_finite_config(model=HUGE_K, separations=[0.5]),
                                   2, "generator has a non-finite term norm"),
    "overflowing-direction": ("family-deriv", rf_config(
        dK={"re": [[1e308, 0.0], [0.0, 0.0]]}, dR={"re": ZERO_2X2},
        insertions=[{"kind": "create", "position": 0.0},
                    {"kind": "annihilate", "position": 1.0}]), 2,
        "tangent generator's term norm is not finite"),
    **{f"fields/{geometry['geometry']}": (
        "trajectories", {**geometry, "model": HUGE_RDR, "length": 1.0, "n_traj": 3, "seed": 1,
                         "bins": [0.0, 0.5]}, 2, "no-jump generator Q is not finite")
       for geometry in (BULK, WINDOW)},
    "discretize/thermodynamic-generator": ("discretize", {"model": HUGE_RDR, **BULK,
                                                          "epsilons": [0.01]}, 2,
                                           "generator has a non-finite term norm"),
    "discretize/finite-generator": ("discretize", {"model": HUGE_K, **WINDOW,
                                                   "epsilons": [0.5, 0.25]}, 2,
                                    "generator has a non-finite term norm"),
    # the generator's term norm is finite, but (1 + eps ||Q||)^2 is not
    "discretize/thermodynamic-transfer": ("discretize", {"model": emitter(5e299, 1.0), **BULK,
                                                         "epsilons": [0.01]}, 2,
                                          "transfer matrix has a non-finite term norm"),
    # both term norms are finite, but the norm of the transfer defect is not
    "discretize/thermodynamic-defect": ("discretize", {"model": emitter(5e151, 1.0), **BULK,
                                                       "epsilons": [0.01]}, 2,
                                        "transfer defect is not finite"),
    # an exponent the term-norm certificate refuses before expm runs.  At
    # K = 1e50 sigma_x / 2, exp(L dx) is nan: correlate wrote "0.5,nan,nan"
    # and lindblad-check exited 1 with a traceback from the Choi eigensolve;
    # at K = 5e18 sigma_x scipy's expm warned
    "exponential/correlate": ("correlate", {"model": emitter(5e49, 1.0), **WINDOW,
                                            "separations": [0.5]}, 2,
                              unresolved("5.000e+49", 0.5)),
    "exponential/lindblad-check": ("lindblad-check", {"model": emitter(5e49, 1.0), **BULK,
                                                      "moments": VACUUM_MOMENTS}, 2,
                                   unresolved("1.000e+49", 0.1)),
    "exponential/lindblad-check-finite-exponential": (
        "lindblad-check", {"model": emitter(5e18, 1.0), **BULK, "moments": VACUUM_MOMENTS}, 2,
        unresolved("1.000e+18", 0.1)),
    # R = 1e150 sigma_minus: X = -[Q, R] overflows.  The sourced site formed
    # Q + lam R + 0 X, which warned (0 x inf) before a refusal on a nan term norm
    "sourced-x": ("zfunctional-check", {"model": emitter(0.5, 1e150), **BULK, "eps": 0.1,
                                        "h": 0.02, "n_sites": 10}, 2,
                  unresolved("2.000e+299", 0.1)),
    # |psi_dag_sq|^2 = 1e400 overflows, but the moments are admissible: the
    # admissibility test raised an OverflowError
    "admissible-moments": ("lindblad-check", {"model": RF_MODEL, **BULK, "moments": {
        "psi_dag_sq": {"re": 1e200}, "psi_dag_psi": 1e200}}, 2, unresolved("5.000e+199", 0.1)),
    # ||Q||_1 x length is far above what a sampled waiting time resolves
    "unresolved-drive": ("trajectories", {"model": emitter(5e19, 1.0), **WINDOW, "length": 10.0,
                                          "n_traj": 200, "seed": 3, "bins": [0.0, 1.0]}, 2,
                         "||Q||_1 x 10 = 5.000e+20 exceeds 1e+13: the no-jump evolution is not"
                         " resolved in double precision"),
    # a value that overflows: each printed overflow warnings and wrote null
    "value/kinetic": ("kinetic", {"model": HUGE_X, **BULK}, 2,
                      "correlator value closing on deriv_annihilate is not finite"),
    "value/ll-energy": ("ll-energy", {"model": HUGE_X, **BULK, "c": 1.0, "mu": 1.0}, 2,
                        "correlator value closing on deriv_annihilate is not finite"),
    "value/converge": ("converge", {"model": HUGE_X, **BULK, "epsilons": [0.02, 0.01]}, 2,
                       "transfer fixed-point residual nan"),
    "value/converge-finite": ("converge", {"model": HUGE_X, **WINDOW, "epsilons": [0.02, 0.01]},
                              2, "lattice occupation value is not finite"),
    "value/lindblad-check": ("lindblad-check", {"model": HUGE_RDR, **BULK, "moments": MOMENTS}, 2,
                             "generator has a non-finite term norm"),
    # at h = 200 the source functional's walk overflowed and wrote null; at
    # h = 1000 expm's own overflow warnings printed before the refusal
    "source/walk": ("zfunctional-check", {"model": SOURCE_MODEL, **BULK, "eps": 1.0, "h": 200.0,
                                          "n_sites": 4}, 2,
                    "correlator value closing on the trace is not finite"),
    "source/exponential": ("zfunctional-check", {"model": SOURCE_MODEL, **BULK, "eps": 1.0,
                                                 "h": 1000.0, "n_sites": 4}, 2,
                           "the exponential at step 1.0 is not finite"),
    # R = diag(2, 1): c <pair pair> at c = 1e308 is not finite; ll-energy
    # wrote "energy_density": null
    "energy-density": ("ll-energy", {"model": {"dim": 2, "K": RF_MODEL["K"],
                                               "R": {"re": [[2.0, 0.0], [0.0, 1.0]]}},
                                     **BULK, "c": 1e308, "mu": 0.0}, 2,
                       "energy density is not finite"),
    # R = 1e80 sigma_minus over a window of 1e-155: the density (5e159) and
    # the pair values are finite, but g2 divided them by n**2 in Python
    # floats and raised an OverflowError
    "squared-density": ("g2", {"model": emitter(0.5, 1e80), **WINDOW, "length": 1e-155,
                               "separations": [0.0, 1e-156]}, 2, "squared density is not finite"),
}
REFUSAL_PREFIX = {1: "error", 2: "numerical failure"}


def refusals(group):
    """Parametrize a test over the REFUSALS rows "group/case", by case."""
    rows = [row for row in REFUSALS if row.startswith(group + "/")]
    return pytest.mark.parametrize("row", rows, ids=[row[len(group) + 1:] for row in rows])


def check_refusal(row, rc, stdout, stderr, out):
    """A refused run exits with the row's code, prints its one line to
    stderr and nothing to stdout, and writes no output."""
    _, _, code, message, *_ = REFUSALS[row]
    assert (rc, stderr, stdout) == (code, f"{REFUSAL_PREFIX[code]}: {message}\n", "")
    assert not out.exists()


def assert_refused(tmp_path, capfd, row):
    """Run a REFUSALS row in-process under warnings as errors; check its refusal."""
    command, cfg, _, _, *overrides = REFUSALS[row]
    extra = ()
    if overrides:
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps(overrides[0]))
        extra = ("--tolerance-overrides", str(path))
    rc, printed, out = run_strict(tmp_path, capfd, command, cfg, extra=extra)
    check_refusal(row, rc, printed.out, printed.err, out)


@refusals("config")
def test_a_config_the_schema_or_the_geometry_refuses_exits_one(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


@pytest.mark.parametrize("command, cfg, message", [
    ("bogus", rf_config(), "argument command: invalid choice: 'bogus' "),
    ("steady", None, "the following arguments are required: --config\n"),
], ids=["unknown-command", "missing-config"])
def test_an_argument_the_parser_refuses_exits_one(tmp_path, capfd, command, cfg, message):
    # argparse would print its usage and exit 2; the parser raises its one
    # line as a ConfigError instead.  The choices' spelling varies with the
    # Python version, so the unknown command is matched up to them
    rc, printed, out = run_strict(tmp_path, capfd, command, cfg)
    assert (rc, printed.out) == (1, "")
    assert printed.err.startswith("error: " + message)
    assert printed.err.count("\n") == 1 and printed.err.endswith("\n")
    assert not out.exists()


def test_converge_repeated_epsilons_exit_one(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "repeated-epsilons")


def test_family_deriv_grid_step_is_an_unknown_key(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "grid-step")


def test_unknown_key_is_named_with_dotted_path(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "dotted-key")


def test_thermodynamic_trajectories_need_record_length(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "record-length")


def test_trajectories_negative_burn_in_exits_one(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "negative-burn-in")


@refusals("input")
def test_a_refusal_the_config_decides_exits_one(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


@refusals("dx")
def test_lindblad_check_step_that_is_not_positive_exits_one(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


def test_degenerate_fixed_space_exits_two(tmp_path, capfd):
    for row in ("degenerate-steady", "degenerate-kinetic"):
        assert_refused(tmp_path, capfd, row)


def test_a_fixed_point_whose_term_norm_overflows_exits_2_with_what_is_tested(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "fixed-point-term-norm")


def test_finite_generator_whose_term_norm_overflows_exits_two(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "finite-generator-term-norm")


def test_family_deriv_overflowing_direction_exits_two(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "overflowing-direction")


@refusals("fields")
def test_trajectories_whose_fields_overflow_exit_two(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


@refusals("discretize")
def test_discretize_refuses_an_overflowing_model_before_any_warning(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


@refusals("exponential")
def test_a_non_finite_exponential_exits_2_before_any_warning(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


def test_a_source_functional_whose_x_overflows_exits_2_before_any_warning(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "sourced-x")


def test_admissible_moments_whose_square_overflows_exit_2_before_any_warning(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "admissible-moments")


def test_a_drive_the_sampler_cannot_resolve_exits_2_before_any_warning(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "unresolved-drive")


@refusals("value")
def test_a_value_that_overflows_exits_2_before_any_warning(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


@refusals("source")
def test_a_source_functional_that_overflows_exits_2_before_any_warning(tmp_path, capfd, row):
    assert_refused(tmp_path, capfd, row)


def test_an_energy_density_that_overflows_exits_2_before_any_warning(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "energy-density")


def test_a_squared_density_that_overflows_exits_2_before_any_warning(tmp_path, capfd):
    assert_refused(tmp_path, capfd, "squared-density")


def test_a_refusal_exits_2_end_to_end_under_python_w_error(tmp_path):
    # the one row run as a user runs it: a fresh interpreter with -W error
    # proves that importing the package warns of nothing, and covers the
    # exit code that `python -m cmps_lab.cli` passes on
    row = "unresolved-drive"
    command, cfg, _, _ = REFUSALS[row]
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps(cfg))
    run = subprocess.run([sys.executable, "-W", "error", "-m", "cmps_lab.cli", command,
                          "--config", str(cfg_path), "--output", str(out)],
                         env=_package_env(), capture_output=True, text=True, timeout=120)
    check_refusal(row, run.returncode, run.stdout, run.stderr, out)


@pytest.mark.parametrize("model, finishing", [(HUGE_X, {"steady", "gap"}), (HUGE_RDR, set())],
                         ids=["huge-X", "huge-RdR"])
def test_every_command_on_an_overflowing_model_finishes_finite_or_exits_2(
        tmp_path, capfd, model, finishing):
    # MINIMAL holds one config per command of the table, so a new command
    # cannot land without its case here.  Each runs with warnings as
    # errors and either writes finite values or exits 2 with one
    # numerical-failure line
    assert set(MINIMAL) == set(cli._COMMANDS)
    finished = set()
    for command in MINIMAL:
        cfg = {**minimal_config(command), "model": model}
        rc, printed, out = run_strict(tmp_path, capfd, command, cfg, tag=command)
        assert printed.out == "", command
        if rc == 0:
            finished.add(command)
            assert printed.err == "", command
            if command in ("correlate", "g2"):
                assert np.isfinite(_csv_values(out)).all(), command
            else:
                assert "null" not in out.read_text(), command
        else:
            assert rc == 2, command
            assert printed.err.startswith("numerical failure: "), command
            assert printed.err.count("\n") == 1, command
            assert not out.exists(), command
    assert finished == finishing
