"""Command-line front end: enhance, simulate, params, eval."""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .enhancer import EnhancerConfig, enhance
from .reverb import ENVIRONMENTS, RoomParams, ab_to_gamma_beta, room_to_ab
from .stft import SAMPLE_RATE
from .wavio import WavFormatError, read_wav, write_wav


# accepted config spellings of a boolean, case-insensitive
_BOOL_WORDS = {"1": True, "0": False, "true": True, "false": False,
               "yes": True, "no": False, "on": True, "off": False}


def load_config(path) -> EnhancerConfig:
    """Flat key=value config file over the defaults; every EnhancerConfig field addressable."""
    values = dataclasses.asdict(EnhancerConfig())
    valid = {f.name: f.type for f in dataclasses.fields(EnhancerConfig)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in valid:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            cur = values[key]
            if isinstance(cur, bool):
                word = val.lower()
                if word not in _BOOL_WORDS:
                    raise ValueError(
                        f"{path}:{lineno}: {key} expects one of "
                        f"{'/'.join(_BOOL_WORDS)}, got {val!r}")
                values[key] = _BOOL_WORDS[word]
            else:
                kind, word = (int, "an integer") if isinstance(cur, int) else (float, "a number")
                try:
                    values[key] = kind(val)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: {key} expects {word}, got {val!r}") from None
    return EnhancerConfig(**values)


def _bin_for_hz(hz, cfg: EnhancerConfig):
    return int(round(hz * cfg.analysis().frame_samples(SAMPLE_RATE) / SAMPLE_RATE))


def _parse_bins(text, n_bins):
    """The bins of a comma-separated --bins list, each checked against 0 <= b < n_bins."""
    bins = []
    for word in text.split(","):
        try:
            bins.append(int(word))
        except ValueError:
            raise ValueError(f"--bins: {word!r} is not an integer") from None
    for b in bins:
        if not 0 <= b < n_bins:
            raise ValueError(f"--bins: bin {b} is outside 0..{n_bins - 1}")
    return bins


def cmd_enhance(args):
    cfg = load_config(args.config) if args.config else EnhancerConfig()
    audio = read_wav(args.input)
    out, trace, diag = enhance(audio, cfg)
    bins = (_parse_bins(args.bins, trace.n_bins) if args.bins
            else [_bin_for_hz(1000.0, cfg)])
    write_wav(args.output, out)
    if args.trace:
        trace.write_csv(args.trace, bins)
    if diag.fallbacks or diag.variance_clamps:
        print(f"diagnostics: {diag.fallbacks} fallbacks, "
              f"{diag.variance_clamps} variance clamps", file=sys.stderr)
    return 0


def cmd_simulate(args):
    room = RoomParams(args.t60, args.drr)
    from . import simkit        # scipy.signal, which enhance and params never load

    clean = read_wav(args.clean)
    noisy, truth, _ = simkit.make_scene(clean, room, args.snr,
                                        noise_kind=args.noise, seed=args.seed)
    t_frames, k_bins = truth.s_true.shape
    bins = _parse_bins(args.bins, k_bins) if args.bins else range(k_bins)
    write_wav(args.out, noisy)
    if args.truth:
        a, b = room_to_ab(room)
        with open(args.truth, "w", newline="") as fh:
            fh.write(f"# t60={args.t60} drr={args.drr} a={a:.4f} b={b:.4f} "
                     f"snr={args.snr} noise={args.noise} seed={args.seed}\n")
            fh.write("frame,bin,s_true,r_true,z_true,n_true\n")
            for b_ in bins:
                for t in range(t_frames):
                    fh.write(f"{t},{b_},{truth.s_true[t, b_]:.6g},"
                             f"{truth.r_true[t, b_]:.6g},{truth.z_true[t, b_]:.6g},"
                             f"{truth.n_true[t, b_]:.6g}\n")
    return 0


def cmd_params(args):
    if args.table:
        print("index,t60,drr,room,a,b,gamma,beta")
        for idx, t60, drr, room_dims in ENVIRONMENTS:
            a, b = room_to_ab(RoomParams(t60, drr, args.L))
            g, be = ab_to_gamma_beta(a, b)
            print(f"{idx},{t60:.4f},{drr:.4f},{room_dims},{a:.4f},{b:.4f},{g:.4f},{be:.4f}")
        return 0
    if args.fig1:
        # beta against T60 at fixed DRRs, and against DRR at fixed T60s
        print("curve,x,beta")
        for drr in (4.0, 0.0, -4.0):
            for t60 in np.linspace(0.1, 1.2, 56):
                a, b = room_to_ab(RoomParams(t60, drr, args.L))
                print(f"beta_vs_t60_drr{drr:g},{t60:.4f},{0.5 * np.log(b):.6f}")
        for t60 in (0.2, 0.5, 0.8):
            for drr in np.linspace(-8.0, 8.0, 65):
                a, b = room_to_ab(RoomParams(t60, drr, args.L))
                print(f"beta_vs_drr_t60{t60:g},{drr:.4f},{0.5 * np.log(b):.6f}")
        return 0
    if args.t60 is None or args.drr is None:
        print("error: need --t60 and --drr (or --table / --fig1)", file=sys.stderr)
        return 2
    a, b = room_to_ab(RoomParams(args.t60, args.drr, args.L))
    g, be = ab_to_gamma_beta(a, b)
    print(f"a={a:.4f} b={b:.4f} gamma={g:.4f} beta={be:.4f}")
    return 0


def cmd_eval(args):
    from . import simkit

    ref = read_wav(args.ref)
    test = read_wav(args.test)
    cd = simkit.cepstral_distance(ref, test)
    lsd = simkit.log_spectral_distance(ref, test)
    ssnr = simkit.segmental_snr(ref, test)
    if args.json:
        print(json.dumps({"cepstral_distance": cd, "log_spectral_distance": lsd,
                          "segmental_snr": ssnr}))
    else:
        print(f"CD {cd:.2f} dB")
        print(f"LSD {lsd:.2f} dB")
        print(f"segSNR {ssnr:.2f} dB")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="reverbtrack",
                                 description="Blind joint denoising and dereverberation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance a noisy reverberant WAV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--trace", help="write per-frame trace CSV")
    p.add_argument("--bins", help="comma-separated bin list for --trace")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("simulate", help="synthesise a noisy reverberant scene")
    p.add_argument("clean")
    p.add_argument("out")
    p.add_argument("--t60", type=float, required=True)
    p.add_argument("--drr", type=float, required=True)
    p.add_argument("--snr", type=float, default=20.0)
    p.add_argument("--noise", choices=("white", "pink"), default="white")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", help="write ground-truth CSV")
    p.add_argument("--bins", help="comma-separated bin list for --truth")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("params", help="print reverberation parameters")
    p.add_argument("--t60", type=float)
    p.add_argument("--drr", type=float)
    p.add_argument("--L", type=float, default=0.008)
    p.add_argument("--table", action="store_true", help="print the full environment table")
    p.add_argument("--fig1", action="store_true", help="emit the beta curve CSV")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("eval", help="objective metrics between two WAVs")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WavFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
