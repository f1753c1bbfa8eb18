"""End-to-end command-line interface tests."""

import csv
import json
import logging
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from hgmm import cli, default_library
from hgmm.benchmark import run_benchmark
from hgmm.serialize import to_json

LIB_PATH = str(files("hgmm.data") / "split_library.json")
DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    """Invoke the CLI; normalize argparse SystemExit into a return code."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def write_scenario(path, horizon=1.0, e_res_max=0.1, cov=None, max_mixands=10,
                   normalization="raw", **engine):
    cov = cov or [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 0.05]]
    scenario = {
        "model": "bicycle",
        "network": "turn",
        "seed": 7,
        "engine": {
            "e_res_max": e_res_max,
            "max_split_depth": 2,
            "max_mixands": max_mixands,
            "dt": 0.1,
            "horizon": horizon,
            "normalization": normalization,
            **engine,
        },
        "initial": {
            "mixands": [
                {"w": 1.0, "alpha": "approach", "mu": [20.0, 0.0, 9.0, 0.0], "sigma": cov}
            ]
        },
    }
    path.write_text(json.dumps(scenario), encoding="utf-8")


def write_frames(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(to_json(rec) + "\n")


def point_mass_frame(k, t, xy, v=9.0, theta=0.0):
    return {
        "k": k,
        "t": t,
        "mixands": [
            {
                "w": 1.0,
                "alpha": "main",
                "mu": [xy[0], xy[1], v, theta],
                "sigma": np.diag([1e-10, 1e-10, 1e-10, 1e-10]).tolist(),
            }
        ],
    }


class TestOptimizeSplit:
    def test_build_and_rebuild_identical(self, tmp_path):
        args = ["optimize-split", "--n", "3,5", "--sigma", "0.2,0.4", "--grid-step", "0.05"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(p1)) == 0
        assert run_cli(*args, "--out", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert len(json.loads(p1.read_text())["entries"]) == 4

    def test_even_n_rejected(self, tmp_path):
        code = run_cli(
            "optimize-split", "--n", "4", "--sigma", "0.3", "--out", str(tmp_path / "x.json")
        )
        assert code == 2

    def test_sigma_out_of_range(self, tmp_path):
        code = run_cli(
            "optimize-split", "--n", "3", "--sigma", "1.5", "--out", str(tmp_path / "x.json")
        )
        assert code == 2


class TestBenchmark:
    def test_nonpositive_samples(self):
        assert run_cli("benchmark", "--model", "ungm", "--samples", "0", "--no-split") == 2

    @pytest.mark.parametrize("value", ["nan", "-0.1"])
    def test_invalid_e_res_max(self, value):
        assert run_cli("benchmark", "--model", "ungm", "--samples", "2",
                       "--cache", LIB_PATH, "--e-res-max", value) == 2

    def test_missing_cache_key(self, tmp_path):
        lib = tmp_path / "small.json"
        assert run_cli(
            "optimize-split", "--n", "3", "--sigma", "0.2",
            "--grid-step", "0.05", "--out", str(lib),
        ) == 0
        code = run_cli(
            "benchmark", "--model", "ungm", "--samples", "2",
            "--cache", str(lib), "--split-n", "5", "--split-sigma", "0.3",
        )
        assert code == 4

    def test_missing_cache_file(self, tmp_path, capsys):
        code = run_cli("benchmark", "--model", "ungm", "--samples", "2",
                       "--cache", str(tmp_path / "missing.json"))
        assert code == 4
        assert "split cache error" in capsys.readouterr().err

    def test_without_cache_splits_with_the_shipped_library(self, capsys):
        assert run_cli("benchmark", "--model", "ungm", "--samples", "3", "--seed", "1") == 0
        assert "split (N=" in capsys.readouterr().out

    def test_shipped_library_missing_key(self, capsys):
        assert run_cli("benchmark", "--model", "ungm", "--samples", "2", "--split-n", "99") == 4
        assert "split cache error" in capsys.readouterr().err

    def test_no_split_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "benchmark", "--model", "cubic", "--samples", "3", "--seed", "1",
            "--no-split", "--out", str(out),
        )
        assert code == 0
        assert "no-split KLD mean=" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample", "e_res", "kld_no_split"]
        assert len(rows) == 4

    def test_csv_holds_the_benchmarks_values_exactly(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("benchmark", "--model", "ungm", "--samples", "3", "--seed", "1",
                       "--no-split", "--out", str(out)) == 0
        res = run_benchmark("ungm", 3, 1)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [[float(cell) for cell in row[1:]] for row in rows] == \
            np.column_stack([res.e_res, res.no_split_kld]).tolist()

    @pytest.mark.parametrize("samples", ["1", "2"])
    def test_fewer_than_three_samples_have_no_correlation(self, capsys, samples):
        assert run_cli("benchmark", "--model", "ungm", "--samples", samples) == 0
        assert "pearson(e_res, no-split KLD)=n/a" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, setting", [
        (["--max-depth", "-1"], "max_split_depth"),
        (["--max-depth", "-1", "--no-split"], "max_split_depth"),
        (["--e-res-max", "-0.1", "--no-split"], "e_res_max"),
    ])
    def test_setting_the_engine_rejects_is_usage_error(self, capsys, flag, setting):
        assert run_cli("benchmark", "--model", "ungm", "--samples", "3", *flag) == 2
        captured = capsys.readouterr()
        assert setting in captured.err and not captured.out


    def test_depth_cap_warnings_summed_in_one_line(self, capsys, caplog):
        # The engine warns once per prior that reaches the split depth cap;
        # the benchmark reports them on one line instead of one line each.
        with caplog.at_level(logging.WARNING, logger="hgmm.engine"):
            run_benchmark("ungm", 10, 7, default_library())
        capped = [r for r in caplog.records if "depth cap" in r.msg]
        assert capped
        caplog.clear()
        assert run_cli("benchmark", "--model", "ungm", "--samples", "10", "--seed", "7") == 0
        captured = capsys.readouterr()
        assert "depth cap" not in captured.err + caplog.text
        lines = [line for line in captured.out.splitlines() if "depth cap" in line]
        assert lines == [f"split depth cap 2 reached for {len(capped)} of 10 priors, "
                         f"{sum(r.args[1] for r in capped)} mixand(s) in all; recombined anyway"]


class TestRun:
    def test_frames_manifest_and_reproducibility(self, tmp_path):
        scen = tmp_path / "scenario.json"
        write_scenario(scen)
        out1, out2 = tmp_path / "f1.jsonl", tmp_path / "f2.jsonl"
        base = ["run", "--scenario", str(scen), "--cache", LIB_PATH]
        assert run_cli(*base, "--out", str(out1)) == 0
        assert run_cli(*base, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 10
        rec = json.loads(lines[-1])
        assert rec["k"] == 10 and rec["t"] == pytest.approx(1.0)
        manifest = json.loads((tmp_path / "f1.jsonl.manifest.json").read_text())
        assert manifest["config"]["e_res_max"] == 0.1
        assert "scenario.json" in manifest["inputs"]

    def test_no_split_keeps_one_mixand_per_hypothesis(self, tmp_path):
        scen = tmp_path / "scenario.json"
        write_scenario(scen)
        out = tmp_path / "frames.jsonl"
        code = run_cli(
            "run", "--scenario", str(scen), "--out", str(out),
            "--e-res-max", "inf",
        )
        assert code == 0
        for line in out.read_text().strip().splitlines():
            rec = json.loads(line)
            alphas = [m["alpha"] for m in rec["mixands"]]
            assert len(alphas) == len(set(alphas))

    def test_without_cache_splits_with_the_shipped_library(self, tmp_path):
        # A finite e_res_max splits whether or not --cache is given: the
        # scenario keeps one mixand per frame only with --e-res-max inf.
        scen = Path(__file__).parent / "data" / "turn_scenario.json"
        outs = {}
        for name, argv in (("shipped", ()), ("cache", ("--cache", LIB_PATH))):
            out = tmp_path / f"{name}.jsonl"
            assert run_cli("run", "--scenario", str(scen), "--horizon", "1.0",
                           "--out", str(out), *argv) == 0
            manifest = json.loads((tmp_path / f"{name}.jsonl.manifest.json").read_text())
            outs[manifest["split_library"]] = out.read_bytes()
        assert set(outs) == {"shipped", "split_library.json"}
        assert outs["shipped"] == outs["split_library.json"]
        counts = [len(json.loads(line)["mixands"]) for line in outs["shipped"].splitlines()]
        assert max(counts) > 1
        out = tmp_path / "no-split.jsonl"
        assert run_cli("run", "--scenario", str(scen), "--horizon", "1.0", "--out", str(out),
                       "--e-res-max", "inf") == 0
        assert all(len(json.loads(line)["mixands"]) == 1
                   for line in out.read_text().splitlines())

    def test_scenario_without_engine_keys_splits(self, tmp_path):
        # EngineConfig's defaults split the README's wide turn prior.
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({
            "model": "bicycle", "network": "turn",
            "initial": {"mixands": [{"w": 1.0, "alpha": "approach", "mu": [20, 0, 9, 0],
                                     "sigma": np.diag([2.0, 2.0, 2.0, 0.1]).tolist()}]},
        }), encoding="utf-8")
        out = tmp_path / "frames.jsonl"
        assert run_cli("run", "--scenario", str(scen), "--out", str(out)) == 0
        counts = [len(json.loads(line)["mixands"]) for line in out.read_text().splitlines()]
        assert len(counts) == 35 and max(counts) == 10
        manifest = json.loads((tmp_path / "frames.jsonl.manifest.json").read_text())
        assert manifest["config"]["normalization"] == "raw"
        assert manifest["config"]["max_split_depth"] == 2

    def test_scaled_normalization_is_usage_error(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        write_scenario(scen, horizon=0.3, normalization="scaled")
        out = tmp_path / "frames.jsonl"
        assert run_cli("run", "--scenario", str(scen), "--out", str(out)) == 2
        assert not out.exists()
        assert "'scaled' mode was removed" in capsys.readouterr().err

    def test_manifest_has_no_concurrency_fields(self, tmp_path):
        scen = tmp_path / "scenario.json"
        write_scenario(scen, horizon=0.3)
        out = tmp_path / "frames.jsonl"
        assert run_cli("run", "--scenario", str(scen), "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "frames.jsonl.manifest.json").read_text())
        assert "threads" not in manifest and "sequential" not in manifest
        for flag in (["--threads", "2"], ["--sequential"]):
            assert run_cli("run", "--scenario", str(scen), "--out", str(out), *flag) == 2

    @pytest.mark.parametrize("flag", [
        ["--dt", "0"], ["--dt", "-0.1"], ["--dt", "nan"], ["--horizon", "0"],
        ["--horizon", "-1"], ["--horizon", "inf"], ["--e-res-max", "nan"],
        ["--e-res-max", "-0.1"],
        pytest.param({"normalization": "bogus"}, id="scenario-normalization-bogus"),
        pytest.param({"max_split_dpeth": 2}, id="scenario-unknown-key"),
        pytest.param({"lam": 1.0}, id="scenario-removed-key-lam"),
        pytest.param({"split_n": "x"}, id="scenario-split-n-not-int"),
        pytest.param({"max_split_depth": -1}, id="scenario-negative-depth"),
        pytest.param({"max_split_depth": 1.5}, id="scenario-fractional-depth"),
        pytest.param({"max_mixands": 2.5}, id="scenario-fractional-cap"),
        pytest.param({"max_mixands": float("inf")}, id="scenario-infinite-cap"),
    ])
    def test_degenerate_engine_config_is_usage_error(self, tmp_path, capsys, flag):
        # A dict case sets scenario engine fields instead of command-line flags.
        fields = flag if isinstance(flag, dict) else {}
        argv = [] if isinstance(flag, dict) else flag
        scen = tmp_path / "scenario.json"
        write_scenario(scen, horizon=0.3, **fields)
        out = tmp_path / "frames.jsonl"
        assert run_cli("run", "--scenario", str(scen), "--out", str(out), *argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(key in err for key in fields)

    def test_missing_cache_file(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        write_scenario(scen, horizon=0.3)
        out = tmp_path / "frames.jsonl"
        code = run_cli("run", "--scenario", str(scen), "--cache", str(tmp_path / "missing.json"),
                       "--out", str(out))
        assert code == 4
        assert "split cache error" in capsys.readouterr().err
        assert not out.exists()

    def test_dt_sets_the_bicycle_step(self, tmp_path):
        # A frame stamped t predicts time t whatever the frame spacing: the
        # bicycle integrates with the engine's dt.
        scen = Path(__file__).parent / "data" / "turn_scenario.json"
        mean_x = {}
        for dt in ("0.1", "0.2"):
            out = tmp_path / f"dt{dt}.jsonl"
            assert run_cli("run", "--scenario", str(scen), "--out", str(out), "--dt", dt,
                           "--horizon", "2.0", "--e-res-max", "inf") == 0
            last = json.loads(out.read_text().strip().splitlines()[-1])
            assert last["t"] == pytest.approx(2.0)
            mean_x[dt] = sum(m["w"] * m["mu"][0] for m in last["mixands"])
        assert abs(mean_x["0.1"] - mean_x["0.2"]) < 0.5

    def test_split_heavy_sequential_identical_across_processes(self, tmp_path):
        # Every mixand splits and the cap forces many merges per step, so the
        # frames depend on every reduction decision.
        scen = tmp_path / "scenario.json"
        write_scenario(scen, horizon=3.5, e_res_max=0.05, max_mixands=4,
                       cov=np.diag([2.0, 2.0, 2.0, 0.1]).tolist())
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "hgmm.cli", "run", "--scenario", str(scen),
                 "--cache", LIB_PATH, "--out", str(out)],
                check=True, env=env, capture_output=True,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name", ["turn", "intersection"])
    def test_frames_match_golden_files(self, name, tmp_path):
        # tests/data/<name>_frames.jsonl are a fixed reference: frames that an
        # earlier version of `hgmm run` wrote for the scenario next to them,
        # with the shipped split library at --horizon 1.0.  Labels and counts
        # must match exactly; weights, means and covariances to 1e-12 relative
        # to the largest value of that quantity in the frame.
        data = Path(__file__).parent / "data"
        out = tmp_path / "frames.jsonl"
        code = run_cli("run", "--scenario", str(data / f"{name}_scenario.json"),
                       "--cache", LIB_PATH, "--horizon", "1.0", "--out", str(out))
        assert code == 0
        got = [json.loads(line) for line in out.read_text().splitlines()]
        want = [json.loads(line) for line in (data / f"{name}_frames.jsonl").read_text()
                .splitlines()]
        assert [(f["k"], f["t"]) for f in got] == [(f["k"], f["t"]) for f in want]
        for frame, ref in zip(got, want):
            assert [m["alpha"] for m in frame["mixands"]] == [m["alpha"] for m in ref["mixands"]]
            for key in ("w", "mu", "sigma"):
                a = np.array([m[key] for m in frame["mixands"]])
                b = np.array([m[key] for m in ref["mixands"]])
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    @pytest.mark.parametrize("centerline, code", [
        pytest.param([[0.0, 0.0], [0.0, 0.0]], 2, id="zero-length"),
        pytest.param([[0.0, 0.0], [float("nan"), 0.0]], 2, id="nan-coordinate"),
        pytest.param([[0.0, 0.0], [60.0, 0.0], [60.0, 0.0]], 0, id="repeated-final-vertex"),
    ])
    def test_network_file_centerlines(self, tmp_path, centerline, code):
        net = tmp_path / "network.json"
        net.write_text(json.dumps({"segments": [{"id": "approach", "centerline": centerline,
                                                 "half_width": 2.0, "successors": []}]}))
        scen = Path(__file__).parent / "data" / "turn_scenario.json"
        out = tmp_path / "frames.jsonl"
        assert run_cli("run", "--scenario", str(scen), "--network", str(net),
                       "--horizon", "0.3", "--out", str(out)) == code

    # `run` on a zero-length centerline is a case of test_network_file_centerlines.
    @pytest.mark.parametrize("command, centerline", [
        pytest.param("evaluate", [[0.0, 0.0], [0.0, 0.0]], id="evaluate-zero-length"),
        pytest.param("run", None, id="run-missing-file"),
        pytest.param("evaluate", None, id="evaluate-missing-file"),
    ])
    def test_network_file_errors_are_usage_errors(self, tmp_path, command, centerline):
        net = tmp_path / "network.json"
        if centerline is not None:
            net.write_text(json.dumps({"segments": [{"id": "approach", "centerline": centerline,
                                                     "half_width": 2.0, "successors": []}]}))
        data = Path(__file__).parent / "data"
        if command == "run":
            argv = ("run", "--scenario", str(data / "turn_scenario.json"),
                    "--out", str(tmp_path / "frames.jsonl"))
        else:
            argv = ("evaluate", "--frames", str(data / "turn_frames.jsonl"), "--metric", "eote",
                    "--route", "approach", "--samples", "10")
        assert run_cli(*argv, "--network", str(net)) == 2

    def test_missing_scenario_key(self, tmp_path):
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps({"model": "bicycle", "network": "turn"}))
        code = run_cli("run", "--scenario", str(scen), "--out", str(tmp_path / "o.jsonl"))
        assert code == 2


class TestUnreadableInput:
    EOTE = ["--metric", "eote", "--network", "turn", "--route", "approach"]

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["run", "--scenario", "{missing}"], "scenario file", id="scenario-missing"),
        pytest.param(["run", "--scenario", "{malformed}"], "scenario file",
                     id="scenario-malformed"),
        pytest.param(["run", "--scenario", "{json_list}"], "expected a JSON object",
                     id="scenario-list"),
        pytest.param(["run", "--scenario", "{asymmetric}"], "symmetric",
                     id="scenario-asymmetric-covariance"),
        pytest.param(["evaluate", "--frames", "{missing}", *EOTE], "frames file",
                     id="frames-missing"),
        pytest.param(["evaluate", "--frames", "{malformed}", *EOTE], "frames file",
                     id="frames-malformed"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "nll",
                      "--particles", "{missing}"], "particles file", id="particles-missing"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "nll",
                      "--particles", "{particles_2d}"], "particles file", id="particles-2d"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "nll",
                      "--particles", "{particles_width}"], "particles file",
                     id="particles-state-width"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "nll",
                      "--particles", "{particles_nan}"], "particles file", id="particles-nan"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "nll",
                      "--particles", "{particles_empty}"], "particles file", id="particles-empty"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "eote", "--network", "turn",
                      "--route", "approach,bogus"], "no segment 'bogus'", id="route-unknown"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "ll",
                      "--observations", "{missing}"], "observations file",
                     id="observations-missing"),
        pytest.param(["evaluate", "--frames", "{frames}", "--metric", "collision",
                      "--ego", "{malformed}"], "ego file", id="ego-malformed"),
    ])
    def test_unreadable_input_is_usage_error(self, tmp_path, capsys, argv, message):
        (tmp_path / "malformed.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[1, 2]")
        write_scenario(tmp_path / "asymmetric.json", cov=[[1.0, 0.5, 0, 0], [0, 1.0, 0, 0],
                                                          [0, 0, 1.0, 0], [0, 0, 0, 0.05]])
        times, _ = cli.load_frames(DATA / "turn_frames.jsonl")
        states = np.zeros((len(times), 5, 4))
        nan_states = states.copy()
        nan_states[1, 2, 0] = np.nan
        particles = {"particles_2d": states[:, :, 0], "particles_width": states[:, :, :3],
                     "particles_nan": nan_states, "particles_empty": states[:, :0]}
        for name, array in particles.items():
            np.savez(tmp_path / f"{name}.npz", t=times, states=array)
        paths = {"missing": tmp_path / "missing.json", "malformed": tmp_path / "malformed.json",
                 "json_list": tmp_path / "list.json", "asymmetric": tmp_path / "asymmetric.json",
                 "frames": DATA / "turn_frames.jsonl",
                 **{name: tmp_path / f"{name}.npz" for name in particles}}
        argv = [arg.format(**paths) for arg in argv]
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err


class TestEvaluate:
    def make_frames(self, tmp_path):
        scen = tmp_path / "scenario.json"
        write_scenario(scen)
        out = tmp_path / "frames.jsonl"
        assert run_cli(
            "run", "--scenario", str(scen), "--cache", LIB_PATH,
            "--out", str(out),
        ) == 0
        times, frames = cli.load_frames(out)
        return out, times, frames

    def test_nll_metric(self, tmp_path, capsys):
        out, times, frames = self.make_frames(tmp_path)
        rng = np.random.default_rng(0)
        states = np.stack(
            [rng.normal(f.mixands[0].gaussian.mean, 1.0, size=(50, 4)) for f in frames]
        )
        npz = tmp_path / "truth.npz"
        np.savez(npz, t=times, states=states)
        csv_out = tmp_path / "nll.csv"
        code = run_cli(
            "evaluate", "--frames", str(out), "--metric", "nll",
            "--particles", str(npz), "--out", str(csv_out),
        )
        assert code == 0
        assert "nll mean=" in capsys.readouterr().out
        with open(csv_out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 11
        assert all(np.isfinite(float(r[2])) for r in rows[1:])

    def test_nll_timestamp_mismatch(self, tmp_path):
        out, times, frames = self.make_frames(tmp_path)
        npz = tmp_path / "truth.npz"
        np.savez(npz, t=times + 5.0, states=np.zeros((len(frames), 10, 4)))
        code = run_cli(
            "evaluate", "--frames", str(out), "--metric", "nll", "--particles", str(npz)
        )
        assert code == 6

    def test_eote_centerline_point_mass(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        write_frames(
            frames,
            [point_mass_frame(i + 1, 0.1 * (i + 1), (40.0 + i, 0.0)) for i in range(3)],
        )
        code = run_cli(
            "evaluate", "--frames", str(frames), "--metric", "eote",
            "--network", "straight", "--route", "main",
        )
        assert code == 0
        assert "eote total=0.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("route", [",", ",,", ""])
    def test_route_without_a_segment_id_is_usage_error(self, tmp_path, capsys, route):
        frames = tmp_path / "frames.jsonl"
        write_frames(frames, [point_mass_frame(1, 0.1, (40.0, 0.0))])
        code = run_cli("evaluate", "--frames", str(frames), "--metric", "eote",
                       "--network", "straight", "--route", route)
        assert code == 2
        assert "--route" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["nan", "inf", "-1", "0"])
    def test_dt_not_finite_and_positive_is_usage_error(self, tmp_path, capsys, dt):
        # Without the check, nan turned the dt/2 frame-matching gate off and
        # -1 reported a timestamp mismatch (exit 6).
        frames = tmp_path / "frames.jsonl"
        write_frames(frames, [point_mass_frame(1, 0.1, (40.0, 0.0))])
        obs = tmp_path / "obs.csv"
        obs.write_text("t,x,y\n0.1,40.0,0.0\n")
        code = run_cli("evaluate", "--frames", str(frames), "--metric", "ll",
                       "--observations", str(obs), "--dt", dt)
        assert code == 2
        assert "--dt must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["eote", "collision"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples(self, tmp_path, metric, samples):
        frames = tmp_path / "frames.jsonl"
        write_frames(frames, [point_mass_frame(1, 0.1, (40.0, 0.0))])
        code = run_cli(
            "evaluate", "--frames", str(frames), "--metric", metric,
            "--network", "straight", "--route", "main", "--ego", str(tmp_path / "ego.csv"),
            "--samples", samples,
        )
        assert code == 2

    def test_collision_disjoint_is_zero(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        write_frames(
            frames,
            [point_mass_frame(i + 1, 0.1 * (i + 1), (40.0 + i, 0.0)) for i in range(3)],
        )
        ego = tmp_path / "ego.csv"
        with open(ego, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "y", "theta"])
            for i in range(3):
                w.writerow([0.1 * (i + 1), 200.0, 200.0, 0.0])
        code = run_cli(
            "evaluate", "--frames", str(frames), "--metric", "collision",
            "--ego", str(ego), "--samples", "500",
        )
        assert code == 0
        assert "collision max=0.0000" in capsys.readouterr().out

    def test_ll_metric_and_mismatch(self, tmp_path, capsys):
        out, times, frames = self.make_frames(tmp_path)
        obs = tmp_path / "obs.csv"
        with open(obs, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "y"])
            for t, f in zip(times[:3], frames[:3]):
                mu = f.mixands[0].gaussian.mean
                w.writerow([t, mu[0], mu[1]])
        code = run_cli("evaluate", "--frames", str(out), "--metric", "ll",
                       "--observations", str(obs))
        assert code == 0
        assert "ll total=" in capsys.readouterr().out
        bad = tmp_path / "bad_obs.csv"
        bad.write_text("t,x,y\n9.77,1.0,1.0\n")
        assert run_cli(
            "evaluate", "--frames", str(out), "--metric", "ll", "--observations", str(bad)
        ) == 6


class TestTopLevel:
    def test_unknown_flag(self):
        assert run_cli("run", "--bogus") == 2

    def test_version(self, capsys):
        assert run_cli("--version") == 0
        assert "hgmm" in capsys.readouterr().out
