import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdmimo
from sdmimo.cli import cmd_dispatch
from sdmimo.pa import PaModel, compute_r1db
from sdmimo.report import wilson_interval


@pytest.fixture()
def tiny_config(tmp_path):
    doc = {
        "system": {"n": 4, "k": 2, "m": 64, "m_s": 40, "qam_d": 2},
        "pa": {"kind": "modified_rapp"},
        "precoder": {"name": "zf-tsd"},
        "noise": {"inv_sigma_v2_db": [20.0, 26.0]},
        "run": {"trials": 2, "blocks_per_trial": 1, "seed": 5,
                "self_check": False, "spectrum_frames": 10,
                "spectrum_samples": 64,
                "spectrum_angles_deg": [0.0, 15.0, 30.0]},
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    return path


def test_missing_config_exits_3(tmp_path, capsys):
    code = cmd_dispatch(["ber", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_invalid_config_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"n": 2, "k": 5, "m": 64, "m_s": 40}}))
    code = cmd_dispatch(["ber", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "k <= n" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cmd_dispatch(["frobnicate"]) == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(tiny_config, tmp_path, capsys, threads):
    out = tmp_path / "out"
    assert cmd_dispatch(["ber", "--config", str(tiny_config), "--out", str(out),
                         "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-1"])
def test_points_below_one_is_a_usage_error(tiny_config, tmp_path, capsys, points):
    out = tmp_path / "out"
    assert cmd_dispatch(["pa-curves", "--config", str(tiny_config), "--out", str(out),
                         "--points", points]) == 2
    assert "--points" in capsys.readouterr().err
    assert not out.exists()


def test_no_subcommand_prints_help(capsys):
    assert cmd_dispatch([]) == 2
    assert "pa-curves" in capsys.readouterr().out


def test_ber_writes_outputs_and_manifest(tiny_config, tmp_path, capsys):
    out = tmp_path / "results"
    code = cmd_dispatch(["ber", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader((out / "ber.csv").open()))
    assert len(rows) == 2
    assert {"scheme", "snr_db", "ber", "ber_lo", "ber_hi", "bits", "errors"} <= set(rows[0])
    for row in rows:
        lo, hi = wilson_interval(int(row["errors"]), int(row["bits"]))
        assert float(row["ber_lo"]) == pytest.approx(lo, rel=1e-11)
        assert float(row["ber_hi"]) == pytest.approx(hi, rel=1e-11)
        assert float(row["ber_lo"]) <= float(row["ber"]) <= float(row["ber_hi"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert "ber.csv" in manifest["outputs"]
    assert manifest["config"]["system"]["n"] == 4
    # config file untouched
    assert tiny_config.read_text()


def test_ber_with_cp_longer_than_block(tmp_path, capsys):
    # a cyclic prefix longer than the IDFT block repeats the block
    # cyclically, so the frame keeps its m_cp + m samples and the run
    # completes
    doc = {
        "system": {"n": 4, "k": 2, "m": 16, "m_s": 8, "m_cp": 40, "qam_d": 2},
        "pa": {"kind": "modified_rapp"},
        "precoder": {"name": "zf-tsd"},
        "noise": {"inv_sigma_v2_db": [20.0, 26.0]},
        "run": {"trials": 2, "blocks_per_trial": 1, "seed": 5, "self_check": False},
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "results"
    code = cmd_dispatch(["ber", "--config", str(path), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = list(csv.DictReader((out / "ber.csv").open()))
    assert len(rows) == 2
    assert all(int(row["failed_trials"]) == 0 for row in rows)


@pytest.mark.parametrize("errors,bits,lo,hi", [
    # Wilson score intervals without continuity correction: the first four
    # are the worked examples of R. G. Newcombe, Stat. Med. 17 (1998) 857,
    # the last two computed by hand (10/10 mirrors 0/10 = [0, 0.2775])
    (81, 263, 0.2553, 0.3662),
    (15, 148, 0.0624, 0.1605),
    (0, 20, 0.0, 0.1611),
    (1, 29, 0.0061, 0.1718),
    (5, 10, 0.2366, 0.7634),
    (10, 10, 0.7225, 1.0),
])
def test_wilson_interval_hand_values(errors, bits, lo, hi):
    got_lo, got_hi = wilson_interval(errors, bits)
    assert got_lo == pytest.approx(lo, abs=5e-5)
    assert got_hi == pytest.approx(hi, abs=5e-5)


def test_wilson_interval_edges():
    z2 = 1.959963984540054 ** 2
    # no errors: [0, z^2 / (n + z^2)]; all errors: [n / (n + z^2), 1]
    assert wilson_interval(0, 1000) == (0.0, pytest.approx(z2 / (1000 + z2), rel=1e-14))
    assert wilson_interval(1000, 1000) == (pytest.approx(1000 / (1000 + z2), rel=1e-14), 1.0)
    assert all(math.isnan(v) for v in wilson_interval(0, 0))


def test_failed_trials_reach_manifest_and_csv(tiny_config, tmp_path, monkeypatch):
    import sdmimo.harness as hz

    real = hz._run_trial

    def flaky(ctx, trial):
        if trial == 1:
            raise RuntimeError("synthetic failure")
        return real(ctx, trial)

    monkeypatch.setattr(hz, "_run_trial", flaky)
    out = tmp_path / "results"
    with pytest.warns(UserWarning, match="failed"):
        code = cmd_dispatch(["ber", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_trials"] == 1
    rows = list(csv.DictReader((out / "ber.csv").open()))
    assert [r["failed_trials"] for r in rows] == ["1", "1"]


def test_seed_override_changes_and_reproduces(tiny_config, tmp_path):
    outs = []
    for name, seed in (("a", "123"), ("b", "123"), ("c", "77")):
        out = tmp_path / name
        assert cmd_dispatch(["ber", "--config", str(tiny_config), "--out",
                             str(out), "--seed", seed]) == 0
        outs.append((out / "ber.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_scatter_and_spectrum_commands(tiny_config, tmp_path):
    out = tmp_path / "sc"
    assert cmd_dispatch(["scatter", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "scatter.csv").open()))
    assert len(rows) == 2 * 1  # users x blocks
    out2 = tmp_path / "sp"
    assert cmd_dispatch(["shaping-spectrum", "--config", str(tiny_config),
                         "--out", str(out2)]) == 0
    rows = list(csv.DictReader((out2 / "spectrum.csv").open()))
    assert [float(r["theta_deg"]) for r in rows] == [0.0, 15.0, 30.0]


def test_pa_curves_marker_matches_r1db(tiny_config, tmp_path):
    out = tmp_path / "pa"
    assert cmd_dispatch(["pa-curves", "--config", str(tiny_config),
                         "--out", str(out), "--points", "64"]) == 0
    rows = list(csv.DictReader((out / "pa_curves.csv").open()))
    marked = [r for r in rows if r["is_r1db"] == "1"]
    assert len(marked) == 1
    pa = PaModel.modified_rapp(16.0, 0.1187, 1.1, 4.0, -345.0, 0.17)
    assert float(marked[0]["r"]) == pytest.approx(compute_r1db(pa), rel=1e-9)
    # ideal reference column is min(A r, A r_max)
    r = float(rows[10]["r"])
    assert float(rows[10]["ideal_g_a"]) == pytest.approx(16.0 * min(r, 0.1187))


def test_pa_curves_ideal_has_no_marker(tmp_path):
    doc = {"pa": {"kind": "ideal"},
           "system": {"n": 4, "k": 2, "m": 64, "m_s": 40}}
    cfg = tmp_path / "ideal.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cmd_dispatch(["pa-curves", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "pa_curves.csv").open()))
    assert all(r["is_r1db"] == "0" for r in rows)


def test_empty_modulator_budget_exits_3_under_backoff(tmp_path, capsys):
    # a TWTA at chi = 0.3 has psi = 0.219, so chi - 3 psi < 0: the sd2 loop
    # has no admissible input whatever amplitude the back-off budget allows
    doc = {"system": {"n": 4, "k": 2, "m": 64, "m_s": 40},
           "pa": {"kind": "twta"}, "chi": 0.3, "scheme": "sd2",
           "precoder": {"name": "zf-bo"}, "noise": {"sigma_v2": [1e-3]},
           "run": {"trials": 2, "blocks_per_trial": 1, "self_check": False}}
    cfg = tmp_path / "twta.json"
    cfg.write_text(json.dumps(doc))
    code = cmd_dispatch(["ber", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


_SMALL = {"m": 64, "m_s": 40, "qam_d": 2}
_TSD_N1 = {"system": {"n": 1, "k": 1, **_SMALL}}
_ZF_BO_IDEAL = {"precoder": {"name": "zf-bo"}, "pa": {"kind": "ideal"}}
_SLP_BO_IDEAL = {"precoder": {"name": "slp-bo"}, "pa": {"kind": "ideal"}}


@pytest.mark.parametrize("command,edit,message", [
    # a tail-removing loop needs its tail antennas plus one shaped antenna
    ("ber", _TSD_N1, "at least 2 antennas"),
    ("scatter", _TSD_N1, "at least 2 antennas"),
    ("shaping-spectrum", _TSD_N1, "at least 2 antennas"),
    ("ber", {"system": {"n": 2, "k": 1, **_SMALL}, "scheme": "tsd2"}, "at least 3 antennas"),
    # the ideal PA has no 1 dB compression point to back off from
    ("ber", _ZF_BO_IDEAL, "back-off budget"),
    ("scatter", _ZF_BO_IDEAL, "back-off budget"),
    ("ber", _SLP_BO_IDEAL, "back-off budget"),
    ("scatter", _SLP_BO_IDEAL, "back-off budget"),
    # the shaping spectrum of an order-p loop needs more than p antennas
    ("shaping-spectrum", {"system": {"n": 1, "k": 1, **_SMALL}, "scheme": "sd1"},
     "at least 2 antennas"),
    ("shaping-spectrum", {"system": {"n": 2, "k": 1, **_SMALL}, "scheme": "sd2"},
     "at least 3 antennas"),
], ids=["ber-tsd1-n1", "scatter-tsd1-n1", "spectrum-tsd1-n1", "ber-tsd2-n2",
        "ber-zf-bo-ideal", "scatter-zf-bo-ideal", "ber-slp-bo-ideal", "scatter-slp-bo-ideal",
        "spectrum-sd1-n1", "spectrum-sd2-n2"])
def test_chain_the_array_or_pa_cannot_run_exits_3(tiny_config, tmp_path, capsys, command,
                                                  edit, message):
    # refused before any trial, not reported as every trial's runtime failure
    doc = {**json.loads(tiny_config.read_text()), **edit}
    cfg = tmp_path / "unrunnable.json"
    cfg.write_text(json.dumps(doc))
    code = cmd_dispatch([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and message in err["message"]


@pytest.mark.parametrize("argv_extra,edit", [
    ([], {"noise": {"sigma_v2": [float("nan")]}}),
    (["--seed", "-1"], {}),
    ([], {"system": {"n": 4, "k": 2, "m": 64, "m_s": 40, "qam_d": 3}}),
    ([], {"run": {"trials": 2, "blocks_per_trial": 1, "self_check": False,
                  "spectrum_angles_deg": []}}),
], ids=["sigma_v2-nan", "seed-override-negative", "qam_d-3", "spectrum_angles-empty"])
def test_invalid_values_exit_3(tiny_config, tmp_path, capsys, argv_extra, edit):
    doc = {**json.loads(tiny_config.read_text()), **edit}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))    # NaN is written as the JSON literal NaN
    code = cmd_dispatch(["ber", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         *argv_extra])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()


_NO_PLANNED_DISTORTION = {
    "slp-ref": {"precoder": {"name": "slp-ref"}},
    "slp-bo": {"precoder": {"name": "slp-bo"}},
    "slp-tsd-ideal": {"precoder": {"name": "slp-tsd"}, "pa": {"kind": "ideal"}},
    "slp-tsd-ideal-chi": {"precoder": {"name": "slp-tsd"}, "pa": {"kind": "ideal"},
                          "chi": 0.2},
}


@pytest.mark.parametrize("case", _NO_PLANNED_DISTORTION)
@pytest.mark.parametrize("command", ["ber", "scatter"])
def test_noise_free_slp_without_planned_distortion_exits_3(tiny_config, tmp_path, capsys,
                                                           command, case):
    # with no modulator, or an ideal PA, a symbol-level design plans no
    # distortion, and at sigma_v2 = 0 its noise level would be 0
    doc = {**json.loads(tiny_config.read_text()), **_NO_PLANNED_DISTORTION[case],
           "noise": {"sigma_v2": [1e-3, 0.0] if command == "ber" else [0.0]}}
    cfg = tmp_path / "noise_free.json"
    cfg.write_text(json.dumps(doc))
    assert cmd_dispatch([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "noise-free" in err["message"]


@pytest.mark.parametrize("command", ["ber", "scatter"])
def test_noise_free_slp_with_planned_distortion_runs(tiny_config, tmp_path, command):
    # slp-tsd through modified Rapp PAs plans the shaped distortion power
    doc = {**json.loads(tiny_config.read_text()), "precoder": {"name": "slp-tsd"},
           "noise": {"sigma_v2": [0.0]}}
    cfg = tmp_path / "noise_free.json"
    cfg.write_text(json.dumps(doc))
    assert cmd_dispatch([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_value_of_the_wrong_type_exits_3(tiny_config, tmp_path, capsys):
    # a fractional trial count is a config error, not a runtime failure
    doc = json.loads(tiny_config.read_text())
    doc["run"]["trials"] = 2.5
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert cmd_dispatch(["ber", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "run.trials" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spread", [1e-9, 1e-6, 1e-3])
def test_all_trials_failed_names_the_cause(tiny_config, tmp_path, capsys, spread):
    # a tiny positive angle spread passes the range check but leaves every
    # channel rank deficient: the run still fails, and says why
    doc = json.loads(tiny_config.read_text())
    doc["system"]["angle_spread_deg"] = spread
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="failed"):
        code = cmd_dispatch(["ber", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"
    assert "all trials failed" in err["message"] and "RankDeficient" in err["message"]


@pytest.mark.parametrize("precoder", ["zf-tsd", "slp-tsd"])
def test_ber_outputs_identical_across_thread_counts(tiny_config, tmp_path, precoder):
    doc = json.loads(tiny_config.read_text())
    doc["precoder"] = {"name": precoder}
    doc["run"]["trials"] = 3
    cfg = tmp_path / f"{precoder}.json"
    cfg.write_text(json.dumps(doc))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert cmd_dispatch(["ber", "--config", str(cfg), "--out", str(out),
                             "--threads", threads]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["started_utc"], manifest["finished_utc"]
        outs.append(((out / "ber.csv").read_bytes(), manifest))
    assert outs[0] == outs[1]


_COLD_START_SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np
import sdmimo
from sdmimo.cli import cmd_dispatch

tmp = Path(sys.argv[1])
for command in ("pa-curves", "shaping-spectrum", "scatter", "ber"):
    code = cmd_dispatch([command, "--config", sys.argv[2], "--out", str(tmp / command)])
    assert code == 0, (command, code)
loaded = sorted(m for m in sys.modules
                if m == "scipy" or m.startswith("scipy.") or m.startswith("concurrent.futures"))

from sdmimo.channel import RrcFilter, UlaGeometry, draw_channel
from sdmimo.ofdm import OfdmParams
from slp_functions import slp_objective
from sdmimo.qam import QamConstellation

rng = np.random.default_rng(0)
chan = draw_channel(rng, UlaGeometry(n=4, d_over_lambda=0.125),
                    OfdmParams(m=64, m_s=40, m_cp=40, osf=7), 2, 4, 20,
                    rx_filter=RrcFilter(), pa_gain=16.0)
symbols = QamConstellation(2).random_symbols(rng, (2, 40))
f = slp_objective(np.ones(2), np.zeros((4, 40), dtype=complex), chan, symbols, np.ones(2), d=2)
print(json.dumps({"loaded": loaded, "finite": bool(np.isfinite(f)),
                  "special_after_slp": "scipy.special" in sys.modules}))
"""


def test_zf_runs_load_no_scipy_and_no_process_pool(tiny_config, tmp_path):
    # import sdmimo and every non-SLP command stay at numpy's start-up cost;
    # SciPy arrives with the first symbol-level objective evaluation
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(sdmimo.__file__).resolve().parents[1]), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-c", _COLD_START_SCRIPT, str(tmp_path),
                          str(tiny_config)], env=env, check=True, capture_output=True,
                         text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"loaded": [], "finite": True, "special_after_slp": True}
