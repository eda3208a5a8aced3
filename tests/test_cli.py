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
    assert cli._json_text(payload, indent="  ") == json.dumps(reference, indent=2, sort_keys=True)
    assert cli._json_text(payload) == json.dumps(reference, sort_keys=True, separators=(",", ":"))
    for empty in ([], {}):
        assert cli._json_text(empty, indent="  ") == json.dumps(empty, indent=2)
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


def test_converge_repeated_epsilons_exit_one(tmp_path, capsys):
    rc, out = run_cli(tmp_path, "converge", rf_config(epsilons=[0.01, 0.01, 0.02]))
    assert rc == 1
    assert "eps values must be distinct" in capsys.readouterr().err
    assert not out.exists()


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
                             [(0.7, "pair_density")])
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
    for command, k_diag in (("steady", [0.0, 0.0]), ("kinetic", [1.0, 2.0])):
        cfg = rf_config()
        cfg["model"]["K"] = {"re": np.diag(k_diag).tolist()}
        cfg["model"]["R"] = {"re": [[0.0, 0.0], [0.0, 0.0]]}
        rc, _ = run_cli(tmp_path, command, cfg, tag=command)
        assert rc == 2
        assert "numerical failure:" in capsys.readouterr().err


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
    src = str(Path(cmps_lab.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", "from cmps_lab.cli import main\n" + calls],
                   env=env, check=True, timeout=300)
    return outs


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


def test_trajectories_negative_burn_in_exits_one(tmp_path, capsys):
    cfg = rf_config(length=30.0, n_traj=20, seed=3, bins=[0.0, 0.5, 1.0], burn_in=-10.0)
    rc, out = run_cli(tmp_path, "trajectories", cfg)
    assert rc == 1
    assert "burn_in must be finite and nonnegative, got -10.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dx", [-1.0, 0.0])
def test_lindblad_check_step_that_is_not_positive_exits_one(tmp_path, capsys, dx):
    cfg = rf_config(moments={"psi_dag_sq": {"re": 0.3}, "psi_dag_psi": 0.5}, dx=dx)
    rc, out = run_cli(tmp_path, "lindblad-check", cfg)
    assert rc == 1
    assert f"dx must be positive, got {dx}" in capsys.readouterr().err
    assert not out.exists()


def test_family_deriv_overflowing_direction_exits_two(tmp_path, capsys):
    cfg = rf_config(dK={"re": [[1e308, 0.0], [0.0, 0.0]]}, dR={"re": [[0.0, 0.0], [0.0, 0.0]]},
                    insertions=[{"kind": "create", "position": 0.0},
                                {"kind": "annihilate", "position": 1.0}])
    rc, out = run_cli(tmp_path, "family-deriv", cfg)
    assert rc == 2
    assert "term norm is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_finite_generator_whose_term_norm_overflows_exits_two(tmp_path, capsys):
    cfg = damp_finite_config(separations=[0.5])
    cfg["model"]["K"] = {"re": [[1e308, 1e308], [1e308, 1e308]]}
    rc, out = run_cli(tmp_path, "correlate", cfg)
    assert rc == 2
    assert "generator has a non-finite term norm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("geometry", ["thermodynamic", "finite"])
def test_trajectories_whose_fields_overflow_exit_two(tmp_path, capsys, geometry):
    # K = 1e300 sigma_x / 2 and R = 1e160 sigma_minus: R^dag R overflows,
    # and no warning (an error under this suite's settings) may escape first
    model = {"dim": 2, "K": {"re": [[0.0, 5e299], [5e299, 0.0]]},
             "R": {"re": [[0.0, 0.0], [1e160, 0.0]]}}
    cfg = {"model": model, "geometry": geometry, "length": 1.0, "n_traj": 3, "seed": 1,
           "bins": [0.0, 0.5]}
    if geometry == "finite":
        cfg["boundary_rho"] = {"re": [[0.5, 0.0], [0.0, 0.5]]}
    rc, out = run_cli(tmp_path, "trajectories", cfg)
    assert rc == 2
    assert "no-jump generator Q has non-finite entries" in capsys.readouterr().err
    assert not out.exists()


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
    given, defaults = MINIMAL[command]
    # correlate runs a finite chain, so boundary_rho's imaginary part is filled too
    make = damp_finite_config if command == "correlate" else rf_config
    rc, out = run_cli(tmp_path, command, make(**given), tag="minimal")
    assert rc == 0
    resolved = make(**given)
    for node in [resolved["model"]["K"], resolved["model"]["R"]] + (
            [resolved["boundary_rho"]] if "boundary_rho" in resolved else []):
        node["im"] = ZERO_2X2
    resolved.update(defaults)
    assert _echoed_config(out) == resolved
    rc, again = run_cli(tmp_path, command, _echoed_config(out), tag="replay")
    assert rc == 0
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("model, geometry, epsilons, message", [
    # the generator's term norm overflows: K = 1e300 sigma_x / 2, R = 1e160 sigma_minus
    ({"K": {"re": [[0.0, 5e299], [5e299, 0.0]]}, "R": {"re": [[0.0, 0.0], [1e160, 0.0]]}},
     "thermodynamic", [0.01], "generator has a non-finite term norm"),
    ({"K": {"re": [[1e308, 1e308], [1e308, 1e308]]}, "R": {"re": [[0.0, 0.0], [1.0, 0.0]]}},
     "finite", [0.5, 0.25], "generator has a non-finite term norm"),
    # the generator's is finite, but (1 + eps ||Q||)^2 is not
    ({"K": {"re": [[0.0, 5e299], [5e299, 0.0]]}, "R": {"re": [[0.0, 0.0], [1.0, 0.0]]}},
     "thermodynamic", [0.01], "transfer matrix has a non-finite term norm"),
    # both term norms are finite, but the norm of the transfer defect is not
    ({"K": {"re": [[0.0, 5e151], [5e151, 0.0]]}, "R": {"re": [[0.0, 0.0], [1.0, 0.0]]}},
     "thermodynamic", [0.01], "transfer defect is not finite"),
], ids=["thermodynamic-generator", "finite-generator", "thermodynamic-transfer",
        "thermodynamic-defect"])
def test_discretize_refuses_an_overflowing_model_before_any_warning(
        tmp_path, model, geometry, epsilons, message):
    cfg = {"model": {"dim": 2, **model}, "geometry": geometry, "epsilons": epsilons}
    if geometry == "finite":
        cfg.update(length=1.0, boundary_rho={"re": [[0.5, 0.0], [0.0, 0.5]]})
    _assert_numerical_failure_under_warnings_as_errors(tmp_path, "discretize", cfg, message)


def _assert_numerical_failure_under_warnings_as_errors(tmp_path, command, cfg, message):
    """Run the CLI in a subprocess under `python -W error`: it must exit 2,
    print only the numerical-failure line and write no output."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(cmps_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error", "-m", "cmps_lab.cli", command,
                          "--config", str(cfg_path), "--output", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stderr == f"numerical failure: {message}\n"
    assert not out.exists()


def test_a_drive_the_sampler_cannot_resolve_exits_2_before_any_warning(tmp_path):
    # K = 1e20 sigma_x / 2 over a record of length 10: ||Q||_1 x length is
    # far above what a sampled waiting time resolves
    cfg = {"model": {"dim": 2, "K": {"re": [[0.0, 5e19], [5e19, 0.0]]}, "R": DAMP_MODEL["R"]},
           "geometry": "finite", "length": 10.0,
           "boundary_rho": {"re": [[0.5, 0.0], [0.0, 0.5]]},
           "n_traj": 200, "seed": 3, "bins": [0.0, 1.0]}
    _assert_numerical_failure_under_warnings_as_errors(
        tmp_path, "trajectories", cfg,
        "||Q||_1 x 10 = 5.000e+20 exceeds 1e+13: the no-jump evolution is not resolved"
        " in double precision")


# K = 1e50 sigma_x / 2: exp(L dx) is nan.  correlate wrote the row
# "0.5,nan,nan" and exited 0; lindblad-check exited 1 with a traceback
# from the Choi eigensolve.  At K = 5e18 sigma_x, scipy's expm warned, so
# lindblad-check under -W error exited 1 with a traceback
HUGE_DRIVE = {"dim": 2, "K": {"re": [[0.0, 5e49], [5e49, 0.0]]}, "R": DAMP_MODEL["R"]}
LARGE_DRIVE = {"dim": 2, "K": {"re": [[0.0, 5e18], [5e18, 0.0]]}, "R": DAMP_MODEL["R"]}
LINDBLAD_CHECK = {"geometry": "thermodynamic",
                  "moments": {"psi_dag_sq": {"re": 0.0}, "psi_dag_psi": 0.0}}


@pytest.mark.parametrize("command, model, extra, bound, step", [
    ("correlate", HUGE_DRIVE, {"geometry": "finite", "length": 1.0,
                               "boundary_rho": {"re": [[0.5, 0.0], [0.0, 0.5]]},
                               "separations": [0.5]}, "5.000e+49", 0.5),
    ("lindblad-check", HUGE_DRIVE, LINDBLAD_CHECK, "1.000e+49", 0.1),
    ("lindblad-check", LARGE_DRIVE, LINDBLAD_CHECK, "1.000e+18", 0.1),
], ids=["correlate", "lindblad-check", "lindblad-check-finite-exponential"])
def test_a_non_finite_exponential_exits_2_before_any_warning(tmp_path, command, model, extra,
                                                              bound, step):
    # the exponent is refused by the term-norm certificate before expm runs
    cfg = {"model": json.loads(json.dumps(model)), **extra}
    _assert_numerical_failure_under_warnings_as_errors(
        tmp_path, command, cfg, f"term norm x |dx| = {bound} exceeds 1e+10: the exponential"
        f" at step {step} is not resolved in double precision")


# K = 5e150 sigma_x, R = 1e76 sigma_minus: a finite fixed point, but X^dag X
# and the lattice oracle's fixed points overflow (conftest.HUGE_X_K)
HUGE_X = {"dim": 2, "K": {"re": HUGE_X_K.tolist()}, "R": {"re": HUGE_X_R.tolist()}}
# K = 1e300 sigma_x / 2, R = 1e160 sigma_minus: R^dag R overflows
HUGE_RDR = {"dim": 2, "K": {"re": [[0.0, 5e299], [5e299, 0.0]]},
            "R": {"re": [[0.0, 0.0], [1e160, 0.0]]}}
FINITE_WINDOW = {"geometry": "finite", "length": 1.0,
                 "boundary_rho": {"re": [[0.5, 0.0], [0.0, 0.5]]}}


@pytest.mark.parametrize("command, model, extra, message", [
    ("kinetic", HUGE_X, {}, "correlator value closing on deriv_annihilate is not finite"),
    ("ll-energy", HUGE_X, {"c": 1.0, "mu": 1.0},
     "correlator value closing on deriv_annihilate is not finite"),
    ("converge", HUGE_X, {"epsilons": [0.02, 0.01]}, "transfer fixed-point residual nan"),
    ("converge", HUGE_X, {**FINITE_WINDOW, "epsilons": [0.02, 0.01]},
     "lattice occupation value is not finite"),
    ("lindblad-check", HUGE_RDR, {"moments": {"psi_dag_sq": {"re": 0.3}, "psi_dag_psi": 0.5}},
     "generator has a non-finite term norm"),
], ids=["kinetic", "ll-energy", "converge", "converge-finite", "lindblad-check"])
def test_a_value_that_overflows_exits_2_before_any_warning(tmp_path, command, model, extra,
                                                           message):
    # each printed overflow warnings and wrote null (converge, lindblad-check
    # exited 2 on a nan term norm), and exited 1 with a traceback under -W error
    cfg = {"model": model, "geometry": "thermodynamic", **extra}
    _assert_numerical_failure_under_warnings_as_errors(tmp_path, command, cfg, message)


# K = sigma_x / 2, R = diag(1, 1/2), four sites of step 1.  At h = 200 the
# source functional's walk overflowed: zfunctional-check printed
# RuntimeWarnings and wrote "two_insertion_error": null.  At h = 1000
# expm's own overflow warnings printed before the exponential's refusal.
# Under -W error both exited 1 with a traceback
SOURCE_MODEL = {"dim": 2, "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                "R": {"re": [[1.0, 0.0], [0.0, 0.5]]}}


@pytest.mark.parametrize("h, message", [
    (200.0, "correlator value closing on the trace is not finite"),
    (1000.0, "the exponential at step 1.0 is not finite"),
], ids=["walk", "exponential"])
def test_a_source_functional_that_overflows_exits_2_before_any_warning(tmp_path, h, message):
    cfg = {"model": SOURCE_MODEL, "geometry": "thermodynamic", "eps": 1.0, "h": h, "n_sites": 4}
    _assert_numerical_failure_under_warnings_as_errors(tmp_path, "zfunctional-check", cfg, message)


def test_a_source_functional_whose_x_overflows_exits_2_before_any_warning(tmp_path):
    # R = 1e150 sigma_minus: X = -[Q, R] overflows.  The sourced site formed
    # Q + lam R + 0 X, which warned (0 x inf) before the refusal on a nan
    # term norm; now the site's finite term norm is refused by the certificate
    cfg = {"model": {"dim": 2, "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                     "R": {"re": [[0.0, 0.0], [1e150, 0.0]]}},
           "geometry": "thermodynamic", "eps": 0.1, "h": 0.02, "n_sites": 10}
    _assert_numerical_failure_under_warnings_as_errors(
        tmp_path, "zfunctional-check", cfg, "term norm x |dx| = 2.000e+299 exceeds 1e+10: the"
        " exponential at step 0.1 is not resolved in double precision")


def test_an_energy_density_that_overflows_exits_2_before_any_warning(tmp_path):
    # R = diag(2, 1): c <pair pair> at c = 1e308 is not finite; ll-energy
    # exited 0 and wrote "energy_density": null, also under -W error
    cfg = {"model": {"dim": 2, "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                     "R": {"re": [[2.0, 0.0], [0.0, 1.0]]}},
           "geometry": "thermodynamic", "c": 1e308, "mu": 0.0}
    _assert_numerical_failure_under_warnings_as_errors(
        tmp_path, "ll-energy", cfg, "energy density is not finite")


def test_a_squared_density_that_overflows_exits_2_before_any_warning(tmp_path):
    # R = 1e80 sigma_minus over a window of 1e-155: the density (5e159) and
    # the pair correlator's values are finite, but g2 divided them by n**2
    # in Python floats and exited 1 with an OverflowError traceback
    cfg = {"model": {"dim": 2, "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                     "R": {"re": [[0.0, 0.0], [1e80, 0.0]]}},
           "geometry": "finite", "length": 1e-155,
           "boundary_rho": {"re": [[0.5, 0.0], [0.0, 0.5]]}, "separations": [0.0, 1e-156]}
    _assert_numerical_failure_under_warnings_as_errors(
        tmp_path, "g2", cfg, "squared density is not finite")


def test_admissible_moments_whose_square_overflows_exit_2_before_any_warning(tmp_path):
    # |psi_dag_sq|^2 = 1e400 and psi_dag_psi psi_psi_dag overflow, but the
    # moments are admissible: the admissibility test raised an OverflowError
    # (exit 1); the run now reaches the generator's term-norm certificate
    cfg = {"model": {"dim": 2, "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                     "R": {"re": [[0.0, 0.0], [1.0, 0.0]]}},
           "geometry": "thermodynamic",
           "moments": {"psi_dag_sq": {"re": 1e200}, "psi_dag_psi": 1e200}}
    _assert_numerical_failure_under_warnings_as_errors(
        tmp_path, "lindblad-check", cfg, "term norm x |dx| = 5.000e+199 exceeds 1e+10: the"
        " exponential at step 0.1 is not resolved in double precision")


def test_a_fixed_point_whose_term_norm_overflows_exits_2_with_what_is_tested(tmp_path):
    # every entry of K = 1e308 (1 1; 1 1) is finite: steady said
    # "generator has non-finite entries"
    cfg = {"model": {"dim": 2, "K": {"re": [[1e308, 1e308], [1e308, 1e308]]},
                     "R": {"re": [[0.0, 0.0], [1.0, 0.0]]}}, "geometry": "thermodynamic"}
    _assert_numerical_failure_under_warnings_as_errors(
        tmp_path, "steady", cfg, "generator has a non-finite term norm")


@pytest.mark.parametrize("model, finishing", [(HUGE_X, {"steady", "gap"}), (HUGE_RDR, set())],
                         ids=["huge-X", "huge-RdR"])
def test_every_command_on_an_overflowing_model_finishes_finite_or_exits_2(
        tmp_path, capfd, model, finishing):
    # MINIMAL holds one config per command of the table, so a new command
    # cannot land without its case here.  Each runs with warnings as errors,
    # as -W error sets them, and either writes finite values or exits 2
    # with one numerical-failure line
    assert set(MINIMAL) == set(cli._COMMANDS)
    finished = set()
    for command, (given, _) in MINIMAL.items():
        cfg = (damp_finite_config if command == "correlate" else rf_config)(**given)
        cfg["model"] = json.loads(json.dumps(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run_cli(tmp_path, command, cfg, tag=command)
        printed = capfd.readouterr()
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
