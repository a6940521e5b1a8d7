"""Command-line interface and WAV I/O tests."""

import json

import numpy as np
import pytest

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
    path.write_text("no_such_option = 1\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_load_config_rejects_invalid_value(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q_beta = -1\n")
    with pytest.raises(ValueError, match="q_beta"):
        load_config(path)


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
    assert main(["params", "--t60", "-0.5", "--drr", "0"]) != 0


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


def test_eval_length_mismatch(tmp_path, clean_wav):
    short = tmp_path / "short.wav"
    write_wav(short, AudioBuffer(np.zeros(FS // 2)))
    assert main(["eval", str(clean_wav), str(short)]) != 0


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
