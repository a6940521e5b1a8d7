"""Command-line interface and WAV I/O tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reverbtrack
from reverbtrack.cli import load_config, main
from reverbtrack.enhancer import EnhancerConfig
from reverbtrack.simkit import speechlike_excitation
from reverbtrack.stft import AudioBuffer
from reverbtrack.wavio import WavFormatError, read_wav, write_wav

FS = 16000


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = np.clip(0.3 * rng.standard_normal(FS), -1.0, 1.0)
    path = tmp_path / "x.wav"
    write_wav(path, AudioBuffer(x))
    back = read_wav(path)
    assert back.sample_rate == FS
    assert np.allclose(back.samples, x, atol=1e-4)


def test_wav_rejects_wrong_rate(tmp_path):
    path = tmp_path / "x8k.wav"
    write_wav(path, AudioBuffer(np.zeros(8000), sample_rate=8000))
    with pytest.raises(WavFormatError):
        read_wav(path)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("gain_floor_db = -20\n"
                    "p = 3\n"
                    "lognormal_correction = false\n"
                    "# comment line\n")
    cfg = load_config(path)
    assert cfg.gain_floor_db == -20.0
    assert cfg.p == 3
    assert cfg.lognormal_correction is False
    assert cfg.q_gamma == EnhancerConfig().q_gamma    # untouched default


def test_load_config_bool_words(tmp_path):
    path = tmp_path / "cfg.txt"
    for word, value in [("1", True), ("0", False), ("TRUE", True), ("False", False),
                        ("yes", True), ("No", False), ("on", True), ("OFF", False)]:
        path.write_text(f"lognormal_correction = {word}\n")
        assert load_config(path).lognormal_correction is value
    for word in ("ture", "2", "", "enabled"):
        path.write_text(f"# header\nlognormal_correction = {word}\n")
        with pytest.raises(ValueError, match=f"{path}:2:"):
            load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    # the split's quadrature orders are no longer config keys
    for key in ("no_such_option", "k_u", "k_phase", "k_obs"):
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)


def test_load_config_rejects_invalid_value(tmp_path):
    path = tmp_path / "bad.txt"
    for key, value in (("q_beta", "-1"), ("rnr_threshold_db", "nan"), ("noise_bias", "inf"),
                       ("p", "0"), ("noise_smooth", "1.5"), ("init_t60", "-1"),
                       ("init_t60", "1e-9"), ("init_drr", "-4000")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)


def test_load_config_names_an_unparsable_number(tmp_path):
    path = tmp_path / "bad.txt"
    for key, value, word in (("p", "2.5", "an integer"), ("look_ahead", "x", "an integer"),
                             ("q_gamma", "abc", "a number"), ("gain_floor_db", "", "a number")):
        path.write_text(f"# header\n{key} = {value}\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:2: {key} expects {word}, got '{value}'"


def _loaded_after(code, modules):
    """Those of ``modules``, or of their submodules, that a fresh process
    has loaded once it has run ``code``."""
    code += (f"\nimport sys; print(','.join(sorted(m for m in sys.modules if any("
             f"m == n or m.startswith(n + '.') for n in {modules!r}))))")
    src = str(Path(reverbtrack.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("module, unloaded", [
    ("reverbtrack", ("scipy",)),
    ("reverbtrack.cli", ("scipy", "reverbtrack.simkit")),
])
def test_import_leaves_out_what_enhance_does_not_need(module, unloaded):
    """A fresh process that imports the package, or the CLI module, loads
    no scipy module at all, and the CLI module not the simulation kit."""
    assert _loaded_after(f"import {module}", unloaded) == ""


def test_enhance_loads_no_scipy():
    """The special functions and quadrature rules come from numpy and math,
    so a call to enhance loads no scipy module. The test session's oracles
    load scipy, hence the fresh process."""
    code = ("import numpy as np\n"
            "from reverbtrack import AudioBuffer, enhance\n"
            "x = 0.1 * np.random.default_rng(0).standard_normal(16000)\n"
            "enhance(AudioBuffer(x))")
    assert _loaded_after(code, ("scipy",)) == ""


# ---------------------------------------------------------------------------
# params command
# ---------------------------------------------------------------------------

def test_params_single_point(capsys):
    assert main(["params", "--t60", "0.18", "--drr", "8.43"]) == 0
    out = capsys.readouterr().out
    assert "a=0.5412" in out
    assert "b=0.0659" in out


def test_params_beta_reference_point(capsys):
    assert main(["params", "--t60", "0.5", "--drr", "0", "--L", "0.008"]) == 0
    out = capsys.readouterr().out
    assert "a=0.8017" in out
    assert "b=0.1983" in out
    assert "beta=-0.8089" in out


def test_params_table_lists_all_environments(capsys):
    assert main(["params", "--table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == 23


def test_params_rejects_nonpositive_t60(capsys):
    # RoomParams makes the check and names the field
    assert main(["params", "--t60", "-0.5", "--drr", "0"]) == 1
    assert "error: t60 must be finite and > 0" in capsys.readouterr().err
    # as is a DRR whose power ratio leaves the float range, by an error line
    assert main(["params", "--t60", "0.5", "--drr", "-4000"]) != 0
    assert "error: drr must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate / enhance / eval pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def clean_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "clean.wav"
    write_wav(path, speechlike_excitation(2.0, seed=1))
    return path


def test_simulate_truth_header_and_determinism(tmp_path, clean_wav):
    out1 = tmp_path / "n1.wav"
    out2 = tmp_path / "n2.wav"
    truth = tmp_path / "truth.csv"
    args = ["--t60", "0.61", "--drr", "-1.74", "--snr", "20",
            "--seed", "4", "--bins", "32"]
    assert main(["simulate", str(clean_wav), str(out1), "--truth", str(truth)]
                + args) == 0
    assert main(["simulate", str(clean_wav), str(out2)] + args) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = truth.read_text().splitlines()[0]
    assert "a=0.8343" in header and "b=0.2474" in header


def test_enhance_silence_round_trip(tmp_path):
    src = tmp_path / "sil.wav"
    dst = tmp_path / "out.wav"
    trace = tmp_path / "trace.csv"
    write_wav(src, AudioBuffer(np.zeros(FS)))
    assert main(["enhance", str(src), str(dst), "--trace", str(trace)]) == 0
    out = read_wav(dst)
    assert len(out.samples) == FS
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("frame,bin,")
    # default trace bin is the one nearest 1 kHz
    assert all(ln.split(",")[1] == "32" for ln in lines[1:])


def test_enhance_rejects_out_of_range_bins(tmp_path, capsys):
    src = tmp_path / "sil.wav"
    dst = tmp_path / "out.wav"
    trace = tmp_path / "trace.csv"
    write_wav(src, AudioBuffer(np.zeros(FS // 4)))
    # 257 bins: 0 and 256 are the edges
    assert main(["enhance", str(src), str(dst), "--trace", str(trace), "--bins", "0,256"]) == 0
    assert {ln.split(",")[1] for ln in trace.read_text().splitlines()[1:]} == {"0", "256"}
    dst.unlink()
    trace.unlink()
    for bins in ("999", "-1", "32,257"):
        assert main(["enhance", str(src), str(dst), "--trace", str(trace), "--bins", bins]) == 1
        assert "error:" in capsys.readouterr().err
        assert not dst.exists() and not trace.exists()
    for bins, word in (("1,x", "x"), ("2.5", "2.5"), ("3,", "")):
        assert main(["enhance", str(src), str(dst), "--trace", str(trace), "--bins", bins]) == 1
        assert capsys.readouterr().err == f"error: --bins: '{word}' is not an integer\n"
        assert not dst.exists() and not trace.exists()


def test_simulate_rejects_out_of_range_bins(tmp_path, clean_wav, capsys):
    out = tmp_path / "noisy.wav"
    truth = tmp_path / "truth.csv"
    for bins in ("999", "-1"):
        assert main(["simulate", str(clean_wav), str(out), "--t60", "0.5", "--drr", "0",
                     "--truth", str(truth), "--bins", bins]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not truth.exists()


def test_simulate_rejects_nonpositive_t60(tmp_path, clean_wav, capsys):
    out = tmp_path / "noisy.wav"
    assert main(["simulate", str(clean_wav), str(out), "--t60", "-0.5", "--drr", "0"]) == 1
    assert "error: t60 must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_non_finite_snr(tmp_path, clean_wav, capsys):
    out = tmp_path / "noisy.wav"
    truth = tmp_path / "truth.csv"
    for snr in ("nan", "inf", "-inf"):
        assert main(["simulate", str(clean_wav), str(out), "--t60", "0.5", "--drr", "0",
                     f"--snr={snr}", "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == "error: SNR must be finite\n"
        assert not out.exists() and not truth.exists()


def test_enhance_missing_input_fails(tmp_path):
    assert main(["enhance", str(tmp_path / "nope.wav"),
                 str(tmp_path / "out.wav")]) != 0


def test_eval_outputs(capsys, tmp_path, clean_wav):
    assert main(["eval", str(clean_wav), str(clean_wav)]) == 0
    out = capsys.readouterr().out
    assert "CD 0.00 dB" in out
    assert main(["eval", str(clean_wav), str(clean_wav), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"cepstral_distance", "log_spectral_distance",
                         "segmental_snr"}
    assert all(isinstance(v, float) for v in data.values())


def test_eval_length_mismatch(tmp_path, clean_wav, capsys):
    short = tmp_path / "short.wav"
    write_wav(short, AudioBuffer(np.zeros(FS // 2)))
    # the metrics make the check
    assert main(["eval", str(clean_wav), str(short)]) == 1
    assert capsys.readouterr().err == "error: metric inputs must have equal length\n"


def test_end_to_end_condition_g_improves_cd(tmp_path, clean_wav):
    noisy = tmp_path / "noisy.wav"
    enhanced = tmp_path / "enhanced.wav"
    assert main(["simulate", str(clean_wav), str(noisy),
                 "--t60", "0.61", "--drr", "-1.74", "--snr", "15",
                 "--seed", "2"]) == 0
    assert main(["enhance", str(noisy), str(enhanced)]) == 0
    from reverbtrack.simkit import cepstral_distance
    clean = read_wav(clean_wav)
    noisy_a = read_wav(noisy)
    enhanced_a = read_wav(enhanced)
    n = len(noisy_a.samples)
    ref = AudioBuffer(clean.samples[:n])
    before = cepstral_distance(ref, noisy_a)
    after = cepstral_distance(ref, AudioBuffer(enhanced_a.samples[:n]))
    assert after < before
