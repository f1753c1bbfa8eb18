"""Command-line entry points.

Four subcommands cover the full workflow: ``optimize-split`` builds the
cached split library, ``benchmark`` runs the univariate accuracy
protocol, ``run`` anticipates a scenario and writes JSON-Lines frames
plus a run manifest, and ``evaluate`` scores a frames file against
truth data.

Exit codes: 0 success, 2 invalid flags or an unreadable input file, 3
optimizer failure, 4 split cache missing required keys, 5 model
evaluation failure, 6 misaligned timestamps.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import logging
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .benchmark import BENCHMARK_MODELS, run_benchmark, split_config
from .core import Gaussian, HybridMixand, HybridMixture
from .engine import EngineConfig, anticipate
from .errors import (
    HgmmError,
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
from .models import BicycleConfig, BicycleModel, RoadNetwork, builtin_network
from .reduction import ReductionConfig
from .serialize import to_json
from .splitting import (DEFAULT_GRID_MAX, DEFAULT_GRID_STEP, SplitLibrary, build_library,
                        default_library)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OPTIMIZER = 3
EXIT_CACHE = 4
EXIT_MODEL = 5
EXIT_TIMESTAMPS = 6

BUILTIN_NETWORKS = ("straight", "turn", "intersection")
# The benchmark flags default to run_benchmark's own keyword defaults.
_BENCHMARK_DEFAULTS = {name: param.default
                       for name, param in inspect.signature(run_benchmark).parameters.items()}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _number_list(text: str, kind) -> list:
    return [kind(tok) for tok in text.split(",") if tok.strip()]


def _split_library(cache, split=None) -> SplitLibrary | None:
    """The ``cache`` file's split library, or the shipped one; None if the file
    is unreadable or lacks the (n, sigma) ``split``, with the cache error printed.
    """
    try:
        lib = SplitLibrary.load(cache) if cache else default_library()
        if split is not None:
            lib.get(*split)
    except (KeyError, OSError, ValueError) as exc:
        print(f"split cache error: {exc}", file=sys.stderr)
        return None
    return lib


# What a missing or malformed input file raises; HgmmError is a mixture that fails validation.
_BAD_FILE = (HgmmError, IndexError, KeyError, OSError, TypeError, ValueError)


def _read_file(kind: str, path, reader, parser):
    """``reader(path)``; a file it cannot read is a usage error (exit 2) naming the file."""
    try:
        return reader(path)
    except _BAD_FILE as exc:
        parser.error(f"{kind} file {path}: {exc}")


# ---------------------------------------------------------------------------
# optimize-split
# ---------------------------------------------------------------------------

def cmd_optimize_split(args, parser) -> int:
    try:
        n_values = _number_list(args.n, int)
        sigma_values = _number_list(args.sigma, float)
    except ValueError:
        parser.error("--n and --sigma must be comma-separated numbers")
    if not n_values or not sigma_values:
        parser.error("--n and --sigma must be non-empty")
    if any(n < 1 or n % 2 == 0 for n in n_values):
        parser.error("N must be odd")
    if not all(0.0 < s <= 1.0 for s in sigma_values):
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
    try:
        split_config(args.split_n, args.split_sigma, args.e_res_max, args.max_depth)
    except ValueError as exc:
        parser.error(str(exc))
    lib = None
    if not args.no_split:
        lib = _split_library(args.cache, (args.split_n, args.split_sigma))
        if lib is None:
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
    corr = f"{res.correlation:.4f}" if res.samples >= 3 else "n/a"   # pearson needs 3
    print(f"pearson(e_res, no-split KLD)={corr}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            cols = [c for c in (res.e_res, res.no_split_kld, res.split_kld) if c is not None]
            w.writerow(["sample", "e_res", "kld_no_split", "kld_split"][: 1 + len(cols)])
            for i, row in enumerate(zip(*(c.tolist() for c in cols))):
                w.writerow([i, *map(repr, row)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _network(spec: str, parser) -> RoadNetwork:
    """A builtin network by name, or one read from a JSON path (a bad file is a usage error)."""
    if spec in BUILTIN_NETWORKS:
        return builtin_network(spec)
    return _read_file("network", spec, RoadNetwork.load, parser)


def _load_network(args, scenario, parser):
    if args.network:
        return _network(args.network, parser), args.network
    name = scenario.get("network")
    if name is None:
        return None, None
    # A file name in the scenario is relative to the scenario's directory.
    scenario_dir = os.path.dirname(os.path.abspath(args.scenario))
    path = name if name in BUILTIN_NETWORKS else os.path.join(scenario_dir, name)
    return _network(path, parser), name


def _build_model(scenario, network, dt: float):
    name = scenario.get("model", "bicycle")
    if name == "bicycle":
        if network is None:
            raise ValueError("bicycle scenarios require a road network")
        return BicycleModel(network, BicycleConfig(dt=dt)), name
    if name in BENCHMARK_MODELS:
        return BENCHMARK_MODELS[name][0](), name
    raise ValueError(f"unknown model {name!r}")


def _read_mixture(records, time_index: int = 0, int_labels: bool = False) -> HybridMixture:
    """Mixture from scenario or frame file records; the public constructors validate it."""
    return HybridMixture(tuple(
        HybridMixand(float(m["w"]), int(m["alpha"]) if int_labels else m["alpha"], Gaussian(
            np.asarray(m["mu"], dtype=float), np.asarray(m["sigma"], dtype=float)))
        for m in records
    ), time_index)


def _flat_config(cfg: EngineConfig) -> dict:
    """The fields of ``cfg`` by scenario key, ``reduction`` flattened to ``max_mixands``."""
    flat = {}
    for key, value in asdict(cfg).items():
        flat.update(value if isinstance(value, dict) else {key: value})
    return flat


def _engine_config(scenario, args) -> EngineConfig:
    """The scenario's ``engine`` settings over EngineConfig's defaults, flags overriding.

    Each value is coerced to its default's type, so ``"inf"`` is a valid ``e_res_max``;
    a number that is not integral is rejected for an integer setting.
    """
    settings = _flat_config(EngineConfig())
    flags = {key: getattr(args, key) for key in ("e_res_max", "horizon", "dt", "max_mixands")}
    given = {**scenario.get("engine", {}), **{k: v for k, v in flags.items() if v is not None}}
    for key, value in given.items():
        if key not in settings:
            raise ValueError(f"unknown engine setting {key!r}; accepted: {', '.join(settings)}")
        try:
            kind = type(settings[key])
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{value!r} is not an integer")
            settings[key] = kind(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"engine setting {key!r}: {exc}") from exc
    max_mixands = settings.pop("max_mixands")
    return EngineConfig(reduction=ReductionConfig(max_mixands), **settings)


def _frame_record(k: int, t: float, mix: HybridMixture) -> dict:
    return {
        "k": k,
        "t": t,
        "mixands": [
            {"w": w, "alpha": str(alpha), "mu": mean.tolist(), "sigma": cov.tolist()}
            for w, alpha, mean, cov in zip(mix.weights.tolist(), mix.labels, mix.means, mix.covs)
        ],
    }


def _load_scenario(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        scenario = json.load(fh)
    if not isinstance(scenario, dict):
        raise ValueError(f"expected a JSON object, got {type(scenario).__name__}")
    return scenario


def cmd_run(args, parser) -> int:
    timings = {}
    t0 = time.perf_counter()
    scenario = _read_file("scenario", args.scenario, _load_scenario, parser)
    try:
        network, network_name = _load_network(args, scenario, parser)
        cfg = _engine_config(scenario, args)
        model, model_name = _build_model(scenario, network, cfg.dt)
        initial = _read_mixture(scenario["initial"]["mixands"],
                                int_labels=model_name in BENCHMARK_MODELS)
    except (HgmmError, KeyError, TypeError, ValueError) as exc:
        parser.error(str(exc))
    lib = _split_library(args.cache, (cfg.split_n, cfg.split_sigma)
                         if np.isfinite(cfg.e_res_max) else None)
    if lib is None:
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
        "config": {"model": model_name, "network": network_name, **_flat_config(cfg)},
        # The --cache file, hashed under "inputs", or the library this version ships.
        "split_library": os.path.basename(args.cache) if args.cache else "shipped",
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
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return (np.array([float(rec["t"]) for rec in records]),
            [_read_mixture(rec["mixands"], int(rec["k"])) for rec in records])


def _load_particles(path):
    """The ``t`` and ``states`` arrays of a particle truth npz file."""
    data = np.load(path)
    return data["t"], data["states"]


def _load_csv(path, columns=None):
    """A headed CSV file's ``t`` column, and its ``columns`` (default: all others) stacked."""
    rows = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    columns = columns or [n for n in rows.dtype.names if n != "t"]
    return rows["t"], np.column_stack([rows[n] for n in columns])


def _write_metric_csv(path, times, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "t", "value"])
        for i, (t, v) in enumerate(zip(times, values)):
            w.writerow([i + 1, repr(float(t)), repr(float(v))])


def cmd_evaluate(args, parser) -> int:
    if args.samples < 1:
        parser.error("--samples must be positive")
    times, frames = _read_file("frames", args.frames, load_frames, parser)
    if len(frames) == 0:
        parser.error("frames file is empty")
    dt = args.dt if args.dt is not None else (
        times[1] - times[0] if len(times) > 1 else EngineConfig().dt)

    if args.metric == "nll":
        if not args.particles:
            parser.error("--particles is required for the nll metric")
        part_t, states = _read_file("particles", args.particles, _load_particles, parser)
        if part_t.shape[0] != len(frames) or np.abs(part_t - times).max() > dt / 2:
            print("timestamp mismatch between frames and particle truth", file=sys.stderr)
            return EXIT_TIMESTAMPS
        particle_frames = [ParticleSet(states[i], ("*",) * states.shape[1]) for i in range(states.shape[0])]
        values = nll(frames, particle_frames)
        summary = f"nll mean={values.mean():.4f} over {len(values)} steps"
    elif args.metric == "ll":
        if not args.observations:
            parser.error("--observations is required for the ll metric")
        obs_t, obs_v = _read_file("observations", args.observations, _load_csv, parser)
        values = []
        try:
            for t, row in zip(obs_t, obs_v):
                single = TrackObservations(np.array([t]), row[None, :])
                values.append(log_likelihood(frames, single, dt))
        except NoFrameMatchError as exc:
            print(f"timestamp mismatch: {exc}", file=sys.stderr)
            return EXIT_TIMESTAMPS
        times, values = obs_t, np.array(values)
        summary = f"ll total={values.sum():.4f} over {len(values)} observations"
    elif args.metric == "eote":
        if not args.network or not args.route:
            parser.error("--network and --route are required for the eote metric")
        network = _network(args.network, parser)
        route = [tok for tok in args.route.split(",") if tok]
        unknown = [seg for seg in route if seg not in network.segments]
        if unknown:
            parser.error(f"--route: no segment {', '.join(map(repr, unknown))} in the network "
                         f"(segments: {', '.join(network.segments)})")
        values = np.array(
            [eote([mix], network, route, args.samples, args.seed) for mix in frames]
        )
        summary = f"eote total={values.sum():.4f} over {len(values)} steps"
    elif args.metric == "collision":
        if not args.ego:
            parser.error("--ego is required for the collision metric")
        ego_t, poses = _read_file("ego", args.ego,
                                  lambda path: _load_csv(path, ["x", "y", "theta"]), parser)
        if len(ego_t) != len(frames) or np.abs(ego_t - times).max() > dt / 2:
            print("timestamp mismatch between frames and ego trajectory", file=sys.stderr)
            return EXIT_TIMESTAMPS
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
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--grid-max", type=float, default=DEFAULT_GRID_MAX)
    p.add_argument("--out", required=True)

    p = sub.add_parser("benchmark", help="univariate propagation accuracy protocol")
    p.add_argument("--model", required=True, choices=BENCHMARK_MODELS)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-split", action="store_true", help="baseline arm only")
    p.add_argument("--cache", help="split library file (default: the shipped library)")
    p.add_argument("--split-n", type=int, default=_BENCHMARK_DEFAULTS["split_n"])
    p.add_argument("--split-sigma", type=float, default=_BENCHMARK_DEFAULTS["split_sigma"])
    p.add_argument("--e-res-max", type=float, default=_BENCHMARK_DEFAULTS["e_res_max"])
    p.add_argument("--max-depth", type=int, default=_BENCHMARK_DEFAULTS["max_split_depth"])
    p.add_argument("--out", help="per-sample metrics CSV")

    p = sub.add_parser("run", help="anticipate a scenario; write frames + manifest")
    p.add_argument("--scenario", required=True)
    p.add_argument("--network", help="builtin name or network JSON path")
    p.add_argument("--cache", help="split library file (default: the shipped library)")
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
