"""Command-line entry points.

Four subcommands cover the full workflow: ``optimize-split`` builds the
cached split library, ``benchmark`` runs the univariate accuracy
protocol, ``run`` anticipates a scenario and writes JSON-Lines frames
plus a run manifest, and ``evaluate`` scores a frames file against
truth data.

Exit codes: 0 success, 2 invalid flags, 3 optimizer failure, 4 split
cache missing required keys, 5 model evaluation failure, 6 misaligned
timestamps.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .benchmark import BENCHMARK_MODELS, run_benchmark
from .core import Gaussian, HybridMixand, HybridMixture
from .engine import EngineConfig, anticipate
from .errors import (
    MaxIterationsError,
    ModelEvaluationFailure,
    NoFrameMatchError,
    QpInfeasibleError,
)
from .evaluation import (
    ParticleSet,
    TrackObservations,
    collision_probability,
    eote,
    log_likelihood,
    nll,
)
from .models import BicycleModel, CubicModel, RoadNetwork, UngmModel, builtin_network
from .reduction import ReductionConfig
from .serialize import to_json
from .splitting import SplitLibrary, build_library

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OPTIMIZER = 3
EXIT_CACHE = 4
EXIT_MODEL = 5
EXIT_TIMESTAMPS = 6

BUILTIN_NETWORKS = ("straight", "turn", "intersection")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# optimize-split
# ---------------------------------------------------------------------------

def cmd_optimize_split(args, parser) -> int:
    try:
        n_values = _int_list(args.n)
        sigma_values = _float_list(args.sigma)
    except ValueError:
        parser.error("--n and --sigma must be comma-separated numbers")
    if not n_values or not sigma_values:
        parser.error("--n and --sigma must be non-empty")
    for n in n_values:
        if n < 1 or n % 2 == 0:
            parser.error("N must be odd")
    for s in sigma_values:
        if not 0.0 < s <= 1.0:
            parser.error("sigma must lie in (0, 1]")
    if args.grid_step <= 0 or args.grid_max <= 0:
        parser.error("grid step and max must be positive")

    try:
        lib = build_library(n_values, sigma_values, args.grid_step, args.grid_max)
    except (QpInfeasibleError, MaxIterationsError) as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    lib.save(args.out)
    print(f"{'N':>3} {'sigma':>6} {'delta_mu':>10} {'J_ISD':>12}")
    for (n, sigma) in sorted(lib.entries):
        e = lib.entries[(n, sigma)]
        print(f"{e.n:>3} {e.sigma:>6.3f} {e.delta_mu:>10.6f} {e.isd:>12.6e}")
    print(f"wrote {len(lib.entries)} entries to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def cmd_benchmark(args, parser) -> int:
    if args.samples <= 0:
        parser.error("--samples must be positive")
    if not args.e_res_max >= 0.0:
        parser.error("--e-res-max must be non-negative or inf")
    lib = None
    if not args.no_split:
        if args.cache is None:
            parser.error("--cache is required unless --no-split is given")
        lib = SplitLibrary.load(args.cache)
        try:
            lib.get(args.split_n, args.split_sigma)
        except KeyError as exc:
            print(f"split cache error: {exc}", file=sys.stderr)
            return EXIT_CACHE
    res = run_benchmark(
        args.model,
        args.samples,
        args.seed,
        lib,
        split_n=args.split_n,
        split_sigma=args.split_sigma,
        e_res_max=args.e_res_max,
        max_split_depth=args.max_depth,
    )
    print(
        f"model={res.model} samples={res.samples} seed={res.seed} "
        f"no-split KLD mean={res.no_split_kld.mean():.4f} "
        f"std={res.no_split_kld.std():.4f}"
    )
    if res.split_kld is not None:
        print(
            f"split (N={args.split_n}, sigma={args.split_sigma}) "
            f"KLD mean={res.split_kld.mean():.4f} std={res.split_kld.std():.4f} "
            f"ratio={res.split_kld.mean() / res.no_split_kld.mean():.4f}"
        )
    print(f"pearson(e_res, no-split KLD)={res.correlation:.4f}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            header = ["sample", "e_res", "kld_no_split"]
            if res.split_kld is not None:
                header.append("kld_split")
            w.writerow(header)
            for i in range(res.samples):
                row = [i, repr(res.e_res[i]), repr(res.no_split_kld[i])]
                if res.split_kld is not None:
                    row.append(repr(res.split_kld[i]))
                w.writerow(row)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _load_network(args, scenario):
    if args.network:
        if args.network in BUILTIN_NETWORKS:
            return builtin_network(args.network), args.network
        return RoadNetwork.load(args.network), args.network
    name = scenario.get("network")
    if name is None:
        return None, None
    if name in BUILTIN_NETWORKS:
        return builtin_network(name), name
    path = os.path.join(os.path.dirname(os.path.abspath(args.scenario)), name)
    return RoadNetwork.load(path), name


def _build_model(scenario, network):
    name = scenario.get("model", "bicycle")
    if name == "bicycle":
        if network is None:
            raise ValueError("bicycle scenarios require a road network")
        return BicycleModel(network), name
    if name == "ungm":
        return UngmModel(), name
    if name == "cubic":
        return CubicModel(), name
    raise ValueError(f"unknown model {name!r}")


def _initial_mixture(scenario, model_name) -> HybridMixture:
    mixands = []
    for m in scenario["initial"]["mixands"]:
        alpha = m["alpha"]
        if model_name in BENCHMARK_MODELS:
            alpha = int(alpha)
        mixands.append(
            HybridMixand(
                float(m["w"]),
                alpha,
                Gaussian(np.asarray(m["mu"], dtype=float), np.asarray(m["sigma"], dtype=float)),
            )
        )
    return HybridMixture(tuple(mixands))


def _engine_config(scenario, args) -> EngineConfig:
    eng = dict(scenario.get("engine", {}))
    for flag in ("e_res_max", "horizon", "dt"):
        val = getattr(args, flag)
        if val is not None:
            eng[flag] = val
    if args.max_mixands is not None:
        eng["max_mixands"] = args.max_mixands
    cap = int(eng.pop("max_mixands", 10))
    return EngineConfig(
        e_res_max=float(eng.get("e_res_max", 0.1)),
        split_n=int(eng.get("split_n", 5)),
        split_sigma=float(eng.get("split_sigma", 0.3)),
        max_split_depth=int(eng.get("max_split_depth", 4)),
        reduction=ReductionConfig(cap),
        lam=eng.get("lam"),
        dt=float(eng.get("dt", 0.1)),
        horizon=float(eng.get("horizon", 3.5)),
        normalization=str(eng.get("normalization", "scaled")),
    )


def _frame_record(k: int, t: float, mix: HybridMixture) -> dict:
    return {
        "k": k,
        "t": t,
        "mixands": [
            {
                "w": m.weight,
                "alpha": str(m.discrete),
                "mu": [float(v) for v in m.gaussian.mean],
                "sigma": [[float(v) for v in row] for row in m.gaussian.cov],
            }
            for m in mix.mixands
        ],
    }


def cmd_run(args, parser) -> int:
    timings = {}
    t0 = time.perf_counter()
    with open(args.scenario, "r", encoding="utf-8") as fh:
        scenario = json.load(fh)
    try:
        network, network_name = _load_network(args, scenario)
        model, model_name = _build_model(scenario, network)
        cfg = _engine_config(scenario, args)
        initial = _initial_mixture(scenario, model_name)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    lib = SplitLibrary.load(args.cache) if args.cache else None
    if lib is not None and np.isfinite(cfg.e_res_max):
        try:
            lib.get(cfg.split_n, cfg.split_sigma)
        except KeyError as exc:
            print(f"split cache error: {exc}", file=sys.stderr)
            return EXIT_CACHE
    seed = args.seed if args.seed is not None else int(scenario.get("seed", 0))
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        frames = anticipate(initial, model, cfg, lib)
    except ModelEvaluationFailure as exc:
        log.error("model evaluation failure: %s", exc)
        print(f"model evaluation failure: {exc}", file=sys.stderr)
        return EXIT_MODEL
    timings["anticipate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, mix in enumerate(frames):
            fh.write(to_json(_frame_record(i + 1, (i + 1) * cfg.dt, mix)))
            fh.write("\n")
    timings["write"] = time.perf_counter() - t0

    manifest = {
        "command": "run",
        "version": __version__,
        "seed": seed,
        "config": {
            "model": model_name,
            "network": network_name,
            "e_res_max": cfg.e_res_max,
            "split_n": cfg.split_n,
            "split_sigma": cfg.split_sigma,
            "max_split_depth": cfg.max_split_depth,
            "max_mixands": cfg.reduction.max_mixands,
            "dt": cfg.dt,
            "horizon": cfg.horizon,
            "normalization": cfg.normalization,
        },
        "inputs": {
            os.path.basename(p): _sha256(p)
            for p in [args.scenario]
            + ([args.cache] if args.cache else [])
            + ([args.network] if args.network and os.path.exists(args.network) else [])
        },
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    manifest_path = args.manifest or args.out + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(to_json(manifest))
        fh.write("\n")
    print(
        f"wrote {len(frames)} frames to {args.out} "
        f"({timings['anticipate']:.3f} s anticipation)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def load_frames(path):
    """Read a JSON-Lines frames file; returns (times, mixtures)."""
    times, mixtures = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            mixands = tuple(
                HybridMixand(
                    float(m["w"]),
                    m["alpha"],
                    Gaussian(np.asarray(m["mu"], dtype=float), np.asarray(m["sigma"], dtype=float)),
                )
                for m in rec["mixands"]
            )
            times.append(float(rec["t"]))
            mixtures.append(HybridMixture(mixands, time_index=int(rec["k"])))
    return np.array(times), mixtures


def _write_metric_csv(path, times, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "t", "value"])
        for i, (t, v) in enumerate(zip(times, values)):
            w.writerow([i + 1, repr(float(t)), repr(float(v))])


def cmd_evaluate(args, parser) -> int:
    times, frames = load_frames(args.frames)
    if len(frames) == 0:
        parser.error("frames file is empty")
    dt = args.dt if args.dt is not None else (times[1] - times[0] if len(times) > 1 else 0.1)

    if args.metric == "nll":
        if not args.particles:
            parser.error("--particles is required for the nll metric")
        data = np.load(args.particles)
        part_t, states = data["t"], data["states"]
        if part_t.shape[0] != len(frames) or np.abs(part_t - times).max() > dt / 2:
            print("timestamp mismatch between frames and particle truth", file=sys.stderr)
            return EXIT_TIMESTAMPS
        particle_frames = [ParticleSet(states[i], ("*",) * states.shape[1]) for i in range(states.shape[0])]
        values = nll(frames, particle_frames)
        summary = f"nll mean={values.mean():.4f} over {len(values)} steps"
    elif args.metric == "ll":
        if not args.observations:
            parser.error("--observations is required for the ll metric")
        rows = np.genfromtxt(args.observations, delimiter=",", names=True)
        rows = np.atleast_1d(rows)
        names = [n for n in rows.dtype.names if n != "t"]
        obs_t = rows["t"]
        obs_v = np.column_stack([rows[n] for n in names])
        values = []
        try:
            for t, row in zip(obs_t, obs_v):
                single = TrackObservations(np.array([t]), row[None, :])
                values.append(log_likelihood(frames, single, dt))
        except NoFrameMatchError as exc:
            print(f"timestamp mismatch: {exc}", file=sys.stderr)
            return EXIT_TIMESTAMPS
        times_out = obs_t
        values = np.array(values)
        summary = f"ll total={values.sum():.4f} over {len(values)} observations"
        if args.out:
            _write_metric_csv(args.out, times_out, values)
        print(summary)
        return EXIT_OK
    elif args.metric == "eote":
        if not args.network or not args.route:
            parser.error("--network and --route are required for the eote metric")
        network = (
            builtin_network(args.network)
            if args.network in BUILTIN_NETWORKS
            else RoadNetwork.load(args.network)
        )
        route = [tok for tok in args.route.split(",") if tok]
        values = np.array(
            [eote([mix], network, route, args.samples, args.seed) for mix in frames]
        )
        summary = f"eote total={values.sum():.4f} over {len(values)} steps"
    elif args.metric == "collision":
        if not args.ego:
            parser.error("--ego is required for the collision metric")
        rows = np.atleast_1d(np.genfromtxt(args.ego, delimiter=",", names=True))
        ego_t = rows["t"]
        if len(ego_t) != len(frames) or np.abs(ego_t - times).max() > dt / 2:
            print("timestamp mismatch between frames and ego trajectory", file=sys.stderr)
            return EXIT_TIMESTAMPS
        poses = np.column_stack([rows["x"], rows["y"], rows["theta"]])
        values, _, _ = collision_probability(
            frames, poses, samples=args.samples, seed=args.seed
        )
        summary = f"collision max={values.max():.4f} over {len(values)} steps"
    else:  # pragma: no cover - argparse restricts choices
        parser.error(f"unknown metric {args.metric!r}")

    if args.out:
        _write_metric_csv(args.out, times, values)
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgmm", description="Hybrid Gaussian mixture obstacle anticipation."
    )
    parser.add_argument("--version", action="version", version=f"hgmm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize-split", help="build the cached split library")
    p.add_argument("--n", required=True, help="comma-separated odd component counts")
    p.add_argument("--sigma", required=True, help="comma-separated std reductions in (0, 1]")
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("--grid-max", type=float, default=4.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("benchmark", help="univariate propagation accuracy protocol")
    p.add_argument("--model", required=True, choices=BENCHMARK_MODELS)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-split", action="store_true", help="baseline arm only")
    p.add_argument("--cache", help="split library file")
    p.add_argument("--split-n", type=int, default=5)
    p.add_argument("--split-sigma", type=float, default=0.3)
    p.add_argument("--e-res-max", type=float, default=0.01)
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--out", help="per-sample metrics CSV")

    p = sub.add_parser("run", help="anticipate a scenario; write frames + manifest")
    p.add_argument("--scenario", required=True)
    p.add_argument("--network", help="builtin name or network JSON path")
    p.add_argument("--cache", help="split library file")
    p.add_argument("--out", required=True, help="frames JSON-Lines path")
    p.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")
    p.add_argument("--e-res-max", type=float, default=None)
    p.add_argument("--max-mixands", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("evaluate", help="score a frames file")
    p.add_argument("--frames", required=True)
    p.add_argument("--metric", required=True, choices=("nll", "ll", "eote", "collision"))
    p.add_argument("--particles", help="npz truth file with arrays t, states")
    p.add_argument("--observations", help="CSV with columns t,x,y[,v,theta]")
    p.add_argument("--network", help="builtin name or network JSON path")
    p.add_argument("--route", help="comma-separated segment ids")
    p.add_argument("--ego", help="CSV with columns t,x,y,theta")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="metric CSV path")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "optimize-split": cmd_optimize_split,
        "benchmark": cmd_benchmark,
        "run": cmd_run,
        "evaluate": cmd_evaluate,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
