"""Command-line interface and WAV I/O tests."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reverbtrack
from reverbtrack import cli
from reverbtrack.cli import _join_negative_values, load_config, main
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
    assert np.allclose(back.samples, x, atol=1e-4)


def test_wav_read_and_written_back_keeps_its_bytes(tmp_path):
    """write_wav scales as read_wav does, so every int16 value survives."""
    pcm = np.arange(-32768, 32768, dtype="<i2")
    first = tmp_path / "all.wav"
    with wave.open(str(first), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(FS)
        wf.writeframes(pcm.tobytes())
    second = tmp_path / "again.wav"
    write_wav(second, read_wav(first))
    assert second.read_bytes() == first.read_bytes()
    # full scale clips to the int16 range
    write_wav(second, AudioBuffer(np.array([-2.0, -1.0, 1.0, 2.0])))
    assert read_wav(second).samples.tolist() == [-1.0, -1.0, 32767 / 32768, 32767 / 32768]


def test_wav_rejects_wrong_rate(tmp_path):
    # an 8 kHz, a stereo and an 8-bit file, each named for what it holds
    for rate, channels, width, message in (
            (8000, 1, 2, "sample rate 8000 unsupported, need 16000"),
            (FS, 2, 2, "need mono, got 2 channels"),
            (FS, 1, 1, "need 16-bit PCM, got 8-bit")):
        path = tmp_path / f"x{rate}x{channels}x{width}.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(width)
            wf.setframerate(rate)
            wf.writeframes(bytes(channels * width * 16))
        with pytest.raises(WavFormatError, match=message):
            read_wav(path)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("init_drr = -5\n"
                    "look_ahead = 4\n"
                    "# comment line\n")
    cfg = load_config(path)
    assert cfg.init_drr == -5.0
    assert cfg.look_ahead == 4
    assert cfg.noise_window_s == EnhancerConfig().noise_window_s    # untouched default


def test_readme_config_example_loads(tmp_path):
    """The example file of the README's config section loads, and sets
    each key it names to the value it gives."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("Config files for `enhance --config`"):]
    example = re.search(r"```\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "cfg.txt"
    path.write_text(example)
    cfg = load_config(path)
    pairs = [line.split("=") for line in example.splitlines() if "=" in line]
    assert pairs
    for key, value in pairs:
        assert getattr(cfg, key.strip()) == float(value)


def test_load_config_refuses_the_fixed_parameters(tmp_path):
    """A file that sets one of the cascade's fixed parameters, once config
    fields, fails as an unknown key, naming its file and line."""
    path = tmp_path / "cfg.txt"
    for key in ("p", "q_gamma", "q_beta", "init_param_variance", "noise_variance",
                "gain_floor_db", "noise_smooth", "noise_bias", "fdr_skip", "fdr_beta_extra_var",
                "preclean_gain_floor_db", "min_fdr_length", "rnr_threshold_db",
                "lognormal_correction"):
        path.write_text(f"# header\nlook_ahead = 3\n{key} = 1\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:3: unknown config key {key!r}"


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    # the split's quadrature orders are no longer config keys
    for key in ("no_such_option", "k_u", "k_phase", "k_obs"):
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)
    # a line with no "=" names neither key nor value
    path.write_text("# header\np 3\n")
    with pytest.raises(ValueError, match=f"{path}:2: expected key=value"):
        load_config(path)


def test_load_config_rejects_invalid_value(tmp_path):
    path = tmp_path / "bad.txt"
    for key, value in (("look_ahead", "-1"), ("init_drr", "nan"), ("noise_window_s", "inf"),
                       ("modulation_frame", "0"), ("noise_window_s", "-1.5"), ("init_t60", "-1"),
                       ("init_t60", "1e-9"), ("init_drr", "-4000")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)


def test_load_config_names_an_unparsable_number(tmp_path):
    path = tmp_path / "bad.txt"
    for key, value, word in (("look_ahead", "2.5", "an integer"), ("look_ahead", "x", "an integer"),
                             ("init_t60", "abc", "a number"), ("noise_window_s", "", "a number")):
        path.write_text(f"# header\n{key} = {value}\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:2: {key} expects {word}, got '{value}'"


_FIELD_KINDS = {f.name: type(getattr(EnhancerConfig(), f.name))
                for f in dataclasses.fields(EnhancerConfig)}
_NUMBER_WORDS = ["0", "-1", "1", "2", "3", "0.5", "1e-4", "-20", "1e400", "-1e400", "inf",
                 "-inf", "nan", "1e300", "-1e300", "1_000", " 2 ", "2.5", "0x10", "", "true",
                 "off", "x"]


@st.composite
def _config_lines(draw):
    """A line of a config file: key=value with a known or unknown key and a
    number, bool or other word, a comment, a blank line or a line with no
    "=". Returns (line, key or None, value or None)."""
    kind = draw(st.sampled_from(["pair", "pair", "pair", "pair", "comment", "blank", "no_eq"]))
    if kind == "comment":
        return "# " + draw(st.text(st.characters(min_codepoint=32, max_codepoint=126),
                                   max_size=8)), None, None
    if kind == "blank":
        return "   ", None, None
    key = draw(st.sampled_from(sorted(_FIELD_KINDS) + ["k_u", "no_such"]))
    if kind == "no_eq":
        return key, None, None
    value = draw(st.sampled_from(_NUMBER_WORDS) | st.floats().map(repr)
                 | st.integers(-5, 10 ** 6).map(str))
    return f"{key} = {value}", key, value


def _parsed(key, value):
    """What load_config stores for a key=value line, or None for a value
    its field's kind cannot take."""
    kind, word = _FIELD_KINDS[key], value.strip()
    try:
        return kind(word)
    except ValueError:
        return None


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(lines=st.lists(_config_lines(), max_size=6))
def test_load_config_names_the_line_or_yields_the_values(tmp_path_factory, lines):
    """A generated key=value file either fails with a ValueError whose
    message starts with the file and the number of one of its lines, or
    yields the parsed value of the last line of each key."""
    path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    path.write_text("".join(line + "\n" for line, _, _ in lines))
    try:
        cfg = load_config(path)
    except ValueError as exc:
        match = re.match(rf"{re.escape(str(path))}:(\d+)(,\d+)*: ", str(exc))
        assert match, str(exc)
        assert 1 <= int(match.group(1)) <= len(lines)
        return
    last = {key: value for _, key, value in lines if key is not None}
    for key, value in last.items():
        assert getattr(cfg, key) == _parsed(key, value)


def test_load_config_names_the_line_of_a_value_the_config_rejects(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# header\nnoise_window_s = 1e400\nlook_ahead = 2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: noise_window_s must be"):
        load_config(path)
    # fields rejected together: the lines that set them
    path.write_text("init_t60 = 1e-9\nlook_ahead = 2\ninit_drr = 5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1,3: init_t60 = "):
        load_config(path)


@pytest.fixture(scope="module")
def short_clean_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "short.wav"
    write_wav(path, speechlike_excitation(0.1, seed=1))
    return path


_CLI_NUMBERS = ["-inf", "inf", "nan", "NaN", "1e400", "-1e400", "1e300", "-1e300", "3083",
                "-3090", "0", "-0.5", "0.5", "20", "1e-320", "x", "", "--"]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(option=st.sampled_from(["--t60", "--drr", "--snr"]),
       value=st.sampled_from(_CLI_NUMBERS) | st.floats().map(repr), joined=st.booleans())
def test_cli_numbers_name_the_option_or_run(short_clean_wav, tmp_path_factory, option,
                                            value, joined):
    """simulate with one of --t60, --drr or --snr drawn, as its own word or
    joined by "=": status 1 with an error that names the option's quantity,
    a usage error (status 2) naming the option, or status 0 and the file."""
    out = tmp_path_factory.mktemp("sim") / "noisy.wav"
    words = {"--t60": "0.5", "--drr": "0", "--snr": "20"}
    words[option] = value
    argv = ["simulate", str(short_clean_wav), str(out)]
    for opt, word in words.items():
        argv += [f"{opt}={word}"] if joined and opt == option else [opt, word]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    if status == 0:
        assert out.exists() and err.getvalue() == ""
    elif status == 1:
        assert option[2:] in err.getvalue().lower() and not out.exists()
    else:
        assert status == 2 and option in err.getvalue() and not out.exists()


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
    ("reverbtrack", ("scipy", "numpy.polynomial", "fractions")),
    ("reverbtrack.cli", ("scipy", "numpy.polynomial", "fractions", "reverbtrack.simkit")),
])
def test_import_leaves_out_what_enhance_does_not_need(module, unloaded):
    """A fresh process that imports the package, or the CLI module, loads
    no scipy module at all, and the CLI module not the simulation kit.
    Neither loads numpy.polynomial or fractions, which only the first use
    of a quadrature rule or of the dilogarithm's series needs."""
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
    assert main(["params", "--t60", "0.5", "--drr", "0"]) == 0
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
    # a single point needs both values
    for args in (["--t60", "0.5"], ["--drr", "0"], []):
        assert main(["params"] + args) == 2
        assert capsys.readouterr().err == "error: need --t60 and --drr (or --table / --fig1)\n"


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


def test_enhance_skips_digital_silence_without_fallbacks(tmp_path, capsys):
    """speechlike_excitation leaves its gaps as exact zeros, and 0.5 s of it
    (seed 1) holds 6 all-zero frames. Every bin of them sits at the
    magnitude floor, so the cascade keeps its priors there: the
    diagnostics line names 6 x 257 floored bin-frames and no fallback."""
    src, dst = tmp_path / "in.wav", tmp_path / "out.wav"
    write_wav(src, speechlike_excitation(0.5, seed=1))
    assert main(["enhance", str(src), str(dst)]) == 0
    assert capsys.readouterr().err == (
        f"diagnostics: 0 fallbacks, 0 variance clamps, {6 * 257} floored bin-frames\n")


def test_enhance_rejects_out_of_range_bins(tmp_path, capsys, monkeypatch):
    src = tmp_path / "sil.wav"
    dst = tmp_path / "out.wav"
    trace = tmp_path / "trace.csv"
    write_wav(src, AudioBuffer(np.zeros(FS // 4)))
    # 257 bins: 0 and 256 are the edges
    assert main(["enhance", str(src), str(dst), "--trace", str(trace), "--bins", "0,256"]) == 0
    assert {ln.split(",")[1] for ln in trace.read_text().splitlines()[1:]} == {"0", "256"}
    dst.unlink()
    trace.unlink()

    # the list is checked before the input is enhanced
    def no_enhance(*args):
        raise AssertionError("enhance ran before --bins was checked")
    monkeypatch.setattr(cli, "enhance", no_enhance)
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


def test_simulate_checks_bins_before_making_the_scene(tmp_path, clean_wav, capsys, monkeypatch):
    from reverbtrack import simkit

    def no_scene(*args, **kwargs):
        raise AssertionError("make_scene ran before --bins was checked")
    monkeypatch.setattr(simkit, "make_scene", no_scene)
    out = tmp_path / "noisy.wav"
    for bins in ("999", "-1", "0,257", "x"):
        assert main(["simulate", str(clean_wav), str(out), "--t60", "0.5", "--drr", "0",
                     "--truth", str(tmp_path / "t.csv"), "--bins", bins]) == 1
        assert capsys.readouterr().err.startswith("error: --bins")
        assert not out.exists()


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


def test_negative_value_as_its_own_word_reaches_the_library_check(tmp_path, clean_wav,
                                                                capsys):
    out = tmp_path / "noisy.wav"
    assert main(["simulate", str(clean_wav), str(out), "--t60", "0.5", "--drr", "0",
                 "--snr", "-inf"]) == 1
    assert capsys.readouterr().err == "error: SNR must be finite\n"
    assert main(["simulate", str(clean_wav), str(out), "--t60", "-inf", "--drr", "0"]) == 1
    assert "error: t60 must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()
    assert main(["params", "--t60", "0.5", "--drr", "-1e400"]) == 1
    assert "error: drr must be finite" in capsys.readouterr().err
    # the words after a bare "--" are left as they are
    assert (_join_negative_values(["--snr", "-1", "--", "--t60", "-2"])
            == ["--snr=-1", "--", "--t60", "-2"])


def test_enhance_names_a_wav_cut_inside_a_sample(tmp_path, short_clean_wav, capsys):
    """A WAV whose data ends inside its last 2-byte sample ends enhance
    with one error line that names the file and the odd byte count."""
    cut, out = tmp_path / "cut.wav", tmp_path / "out.wav"
    cut.write_bytes(short_clean_wav.read_bytes()[:-1])
    assert main(["enhance", str(cut), str(out)]) == 1
    data_bytes = len(read_wav(short_clean_wav).samples) * 2 - 1
    assert capsys.readouterr().err == (
        f"error: {cut}: the data ends inside a sample: {data_bytes} bytes is not a whole "
        "number of 2-byte samples\n")
    assert not out.exists()


def test_enhance_missing_input_fails(tmp_path):
    assert main(["enhance", str(tmp_path / "nope.wav"),
                 str(tmp_path / "out.wav")]) != 0


def test_enhance_file_errors_print_one_line_naming_the_path(tmp_path, short_clean_wav):
    """Input that is no WAV file, and an output path that cannot be
    written, end enhance with status 1 and one stderr line that names the
    path: no traceback, and no report of a half-made wave writer. The
    console script runs in its own process, whose stderr is all of it."""
    text, bare = tmp_path / "five.txt", tmp_path / "bare.wav"
    text.write_text("hello")
    bare.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
    out = tmp_path / "out.wav"
    src = str(Path(reverbtrack.__file__).resolve().parents[1])
    for given_in, given_out, named in ((text, out, text), (bare, out, bare),
                                       (short_clean_wav, tmp_path, tmp_path),
                                       (short_clean_wav, tmp_path / "no" / "out.wav",
                                        tmp_path / "no" / "out.wav")):
        done = subprocess.run(
            [sys.executable, "-m", "reverbtrack.cli", "enhance", str(given_in), str(given_out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
        lines = done.stderr.splitlines()
        assert done.returncode == 1 and len(lines) == 1, done.stderr
        assert lines[0].startswith("error:") and str(named) in lines[0], lines[0]


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
