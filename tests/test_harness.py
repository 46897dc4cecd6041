import json

import numpy as np
import pytest

from tracelab.errors import ConfigError
from tracelab.harness import CACHE_ENV_VAR, ExperimentConfig, parse_lambda_grid, run
from tracelab import cli


def test_parse_lambda_grid_linear():
    g = parse_lambda_grid("100:200:5")
    assert np.allclose(g, [100, 125, 150, 175, 200])


def test_parse_lambda_grid_geometric():
    g = parse_lambda_grid("10:1000:3:geometric")
    assert np.allclose(g, [10, 100, 1000])


def test_parse_lambda_grid_errors():
    with pytest.raises(ConfigError):
        parse_lambda_grid("1:2")
    with pytest.raises(ConfigError):
        parse_lambda_grid("1:2:3:cubic")
    with pytest.raises(ConfigError):
        parse_lambda_grid("a:2:3")
    with pytest.raises(ConfigError):
        parse_lambda_grid("-1:10:4:geometric")


def _base_config(**over):
    d = {
        "kind": "trace",
        "model": {"weights": [1, 2]},
        "k_max": 40,
        "window": {"shape": "gaussian", "tau0": 0.0, "eps": 0.15},
        "lambda_grid": [10.0, 15.0, 20.0],
    }
    d.update(over)
    return d


def test_config_missing_field_names_path():
    with pytest.raises(ConfigError, match="config.model.weights"):
        ExperimentConfig.from_dict({"kind": "trace", "model": {}, "k_max": 10})


def test_config_bad_kind():
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict(_base_config(kind="scan"))


def test_config_dim_consistency():
    cfg = _base_config()
    cfg["model"]["dim"] = 2
    with pytest.raises(ConfigError, match="config.model.dim"):
        ExperimentConfig.from_dict(cfg)


def test_config_tolerance_positive():
    with pytest.raises(ConfigError, match="tail_tol"):
        ExperimentConfig.from_dict(_base_config(tail_tol=-1.0))


def test_config_grid_monotone():
    with pytest.raises(ConfigError, match="lambda_grid"):
        ExperimentConfig.from_dict(_base_config(lambda_grid=[10.0, 9.0]))


def test_window_width_guard():
    # period gap of w=(1,2) is pi; a bump of half-width 2 cannot fit
    cfg = _base_config(window={"shape": "bump", "tau0": 0.0, "eps": 2.0})
    with pytest.raises(ConfigError, match="period gap"):
        ExperimentConfig.from_dict(cfg)
    # gaussian guard uses four standard deviations
    cfg = _base_config(window={"shape": "gaussian", "tau0": 0.0, "eps": 0.5})
    with pytest.raises(ConfigError, match="period gap"):
        ExperimentConfig.from_dict(cfg)


def test_spectrum_run_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "spectrum",
            "model": {"weights": [1, 2]},
            "k_max": 25,
            "cache_dir": str(tmp_path / "cache"),
            "out_dir": str(tmp_path / "a"),
        }
    )
    res1 = run(cfg)
    cfg2 = ExperimentConfig.from_dict(
        {
            "kind": "spectrum",
            "model": {"weights": [1, 2]},
            "k_max": 25,
            "cache_dir": str(tmp_path / "cache"),
            "out_dir": str(tmp_path / "b"),
        }
    )
    res2 = run(cfg2)
    a = (tmp_path / "a" / "spectrum.csv").read_bytes()
    b = (tmp_path / "b" / "spectrum.csv").read_bytes()
    assert a == b
    assert res1.exit_code == 0
    assert res2.manifest["package"]["provenance"] == "cache"


def test_corrupt_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    base = {
        "kind": "spectrum",
        "model": {"weights": [1, 2]},
        "k_max": 12,
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(tmp_path / "a"),
    }
    run(ExperimentConfig.from_dict(base))
    cache_file = next((tmp_path / "cache").glob("*.npz"))
    blob = bytearray(cache_file.read_bytes())
    blob[len(blob) // 3] ^= 0xFF
    cache_file.write_bytes(bytes(blob))
    res = run(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / "b"))))
    assert res.manifest["package"]["provenance"] == "rebuilt"
    a = (tmp_path / "a" / "spectrum.csv").read_bytes()
    b = (tmp_path / "b" / "spectrum.csv").read_bytes()
    assert a == b


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "spectrum",
            "model": {"weights": [1, 2]},
            "k_max": 8,
            "cache_dir": str(tmp_path / "ignored"),
            "out_dir": str(tmp_path / "out"),
        }
    )
    run(cfg)
    assert list((tmp_path / "envcache").glob("*.npz"))
    assert not (tmp_path / "ignored").exists()


def test_trace_run_manifest(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "kind": "trace",
            "model": {"weights": [1, 2]},
            "k_max": 130,
            "window": {"shape": "gaussian", "tau0": 0.0, "eps": 0.15},
            "lambda_grid": "30:60:4",
            "out_dir": str(tmp_path),
        }
    )
    res = run(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_sha256"] == cfg.digest()
    assert "trace.csv" in res.artifacts
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert rows[0] == "grid,exact_re,exact_im,pred_re,pred_im,ratio_abs,ratio_arg"
    assert len(rows) == 5


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = cli.main(["trace", "--weights", "1,2", "--kmax", "10"])
    assert code == 2  # no window given for a trace run
    assert "config error" in capsys.readouterr().err


def test_cli_spectrum_smoke(tmp_path):
    code = cli.main(
        [
            "spectrum",
            "--weights",
            "1,2",
            "--kmax",
            "10",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "kind": "spectrum",
                "model": {"weights": [1, 2]},
                "k_max": 6,
                "out_dir": str(tmp_path / "x"),
            }
        )
    )
    code = cli.main(
        ["spectrum", "--config", str(cfg_path), "--kmax", "9", "--out", str(tmp_path / "y")]
    )
    assert code == 0
    data = (tmp_path / "y" / "spectrum.csv").read_text().splitlines()
    # k_max 9 covers eigenvalues up to 2*9 = 18 -> 19 distinct values
    assert len(data) - 1 == 19


def test_toy_package_at_model_path_is_rebuilt(tmp_path, monkeypatch):
    from test_spectral import write_weightless_cache

    from tracelab.harness import cache_path
    from tracelab.spectral import SpectralPackage

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    base = {
        "kind": "spectrum",
        "model": {"weights": [1, 2]},
        "k_max": 12,
        "cache_dir": str(tmp_path / "cache"),
        "out_dir": str(tmp_path / "a"),
    }
    cfg = ExperimentConfig.from_dict(base)
    path = cache_path(cfg)
    path.parent.mkdir(parents=True)
    write_weightless_cache(path)
    res = run(cfg)
    assert res.manifest["package"]["provenance"] == "rebuilt"
    assert SpectralPackage.load(path).model.weights == (1, 2)


def test_run_calibrates_once(tmp_path, monkeypatch):
    import tracelab.harness as harness

    calls = []
    real = harness.make_model
    monkeypatch.setattr(harness, "make_model", lambda *a, **k: calls.append(a) or real(*a, **k))
    code = cli.main(
        ["local", "--weights", "1,2", "--kmax", "10", "--shape", "gaussian", "--tau0",
         "3.141592653589793", "--eps", "0.15", "--lambda-grid", "50:60:2", "--out", str(tmp_path)]
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--u", "0.5,0.25"], "config.u"),  # the (1, 2) chart has one normal direction
        (["--u", "0.5,abc"], "config.u"),
        (["--weights", "1,two"], "config.model.weights"),
    ],
)
def test_cli_bad_numbers_are_config_errors(tmp_path, capsys, flags, field):
    argv = ["local", "--weights", "1,2", "--kmax", "10", "--shape", "gaussian", "--tau0",
            "3.141592653589793", "--eps", "0.15", "--lambda-grid", "50:60:2",
            "--out", str(tmp_path)] + flags
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err


def test_config_file_bad_displacement():
    with pytest.raises(ConfigError, match="config.u"):
        ExperimentConfig.from_dict(_base_config(u=["x"]))


@pytest.mark.parametrize(
    "content, field",
    [
        (None, "missing.json"),  # no such file
        ("[1, 2]", "expected a JSON object"),
        ('{"model": [1, 2]}', "config.model"),
        ('{"window": 5}', "config.window"),
    ],
)
def test_cli_bad_config_file_is_config_error(tmp_path, capsys, content, field):
    path = tmp_path / "missing.json"
    if content is not None:
        path.write_text(content)
    argv = ["trace", "--config", str(path), "--weights", "1,2", "--tau0", "3.141592653589793",
            "--eps", "0.15", "--lambda-grid", "50:60:2", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err


@pytest.mark.parametrize(
    "kind, override, flags, field",
    [
        ("trace", {"window": {"shape": "foo"}}, [], "config.window.shape"),
        ("trace", {"model": {"calibration": "bogus"}}, [], "config.model.calibration"),
        ("spectrum", {"model": {"calibration": {"lift_sign": 2}}}, [], "config.model.calibration"),
        ("local", {}, ["--eps", "nan"], "config.window.eps"),
        ("local", {}, ["--u", "nan"], "config.u"),
        ("trace", {}, ["--tau0", "inf"], "config.window.tau0"),
        ("offlocus", {}, ["--C", "nan"], "config.C"),
        ("trace", {"tail_tol": float("nan")}, [], "config.tail_tol"),
        ("trace", {"lambda_grid": [50.0, float("nan")]}, [], "config.lambda_grid"),
        ("trace", {}, ["--lambda-grid", "50:inf:3"], "lambda_grid: endpoints"),
    ],
)
def test_cli_malformed_config_exits_2(tmp_path, capsys, kind, override, flags, field):
    config = {
        "model": {"weights": [1, 2]},
        "k_max": 10,
        "window": {"shape": "gaussian", "tau0": float(np.pi), "eps": 0.15},
        "lambda_grid": "50:60:2",
    }
    for key, value in override.items():
        config[key] = {**config[key], **value} if isinstance(value, dict) else value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = [kind, "--config", str(path), *flags, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert not (tmp_path / "out").exists()


def test_config_from_file_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="missing.json"):
        ExperimentConfig.from_file(tmp_path / "missing.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected a JSON object"):
        ExperimentConfig.from_file(tmp_path / "list.json")
    (tmp_path / "model.json").write_text(json.dumps(_base_config(model=[1, 2])))
    with pytest.raises(ConfigError, match="config.model"):
        ExperimentConfig.from_file(tmp_path / "model.json")
    (tmp_path / "window.json").write_text(json.dumps(_base_config(window=[0.0, 0.15])))
    with pytest.raises(ConfigError, match="config.window"):
        ExperimentConfig.from_file(tmp_path / "window.json")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_base_config()))
    expected = ExperimentConfig.from_dict(_base_config()).digest()
    assert ExperimentConfig.from_file(path).digest() == expected


def test_window_guard_measures_the_gap_to_negative_periods(tmp_path, capsys):
    # on (1, 2, 3) the period -2 pi/3 lies pi/3 from tau0 = -pi, as 2 pi/3
    # does from pi: a gaussian of half-width 4 * 0.3 overlaps it either way
    for tau0 in ("-3.141592653589793", "3.141592653589793"):
        argv = ["trace", "--weights", "1,2,3", "--shape", "gaussian", "--tau0", tau0,
                "--eps", "0.3", "--lambda-grid", "20:40:5", "--out", str(tmp_path / tau0)]
        assert cli.main(argv) == 2
        assert "period gap" in capsys.readouterr().err


def test_trace_ignores_kmax(tmp_path):
    # the trace sums over every degree: no k_max can leave it uncovered
    runs = {}
    for kmax in ("0", "460"):
        out = tmp_path / kmax
        argv = ["trace", "--weights", "1,2", "--kmax", kmax, "--shape", "gaussian", "--tau0", "0",
                "--eps", "0.15", "--lambda-grid", "100:140:5", "--out", str(out)]
        assert cli.main(argv) == 0
        runs[kmax] = (out / "trace.csv").read_bytes(), json.loads((out / "trace.json").read_text())
    assert runs["0"] == runs["460"]
    remainders = runs["0"][1]["meta"]["window_cut_remainders"]
    assert len(remainders) == 5 and max(remainders) < 1e-20
    assert "package" not in json.loads((tmp_path / "0" / "manifest.json").read_text())


def test_offlocus_ignores_precision(tmp_path):
    # each row picks its arithmetic from its conditioning: neither the flag
    # nor a config-file key changes a byte, and every off-locus row cancels
    args = ["--weights", "1,2", "--shape", "gaussian", "--tau0", "3.141592653589793",
            "--eps", "0.15", "--lambda-grid", "80:400:3", "--C", "1.3"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision": "double"}))
    runs = {}
    for name, extra in {"none": [], "flag": ["--precision", "longdouble"],
                        "config": ["--config", str(cfg)]}.items():
        out = tmp_path / name
        assert cli.main(["offlocus", *args, *extra, "--out", str(out)]) == 0
        runs[name] = (out / "offlocus.csv").read_bytes(), (out / "offlocus.json").read_bytes()
    assert runs["none"] == runs["flag"] == runs["config"]
    assert json.loads(runs["none"][1])["meta"]["precision"] == ["decimal"] * 3


@pytest.mark.parametrize("kind", ["local", "offlocus", "parity"])
def test_kernel_scans_record_the_chart(tmp_path, kind):
    # the default charts of (1, 1, 2) and (1, 2, 2) at tau0 = pi: the point
    # [0:0:1] (c = 2) and a point of the line {z1 = 0} (c = 1); at u = 0 their
    # local rows coincide byte for byte, so only the JSON tells them apart
    outs = {}
    for weights in ("1,1,2", "1,2,2"):
        out = tmp_path / weights
        argv = [kind, "--weights", weights, "--shape", "gaussian", "--tau0",
                "3.141592653589793", "--eps", "0.15", "--lambda-grid", "30:40:3",
                "--out", str(out)]
        assert cli.main(argv) == 0
        outs[weights] = out
    a, b = (json.loads((outs[w] / f"{kind}.json").read_text())["meta"] for w in outs)
    assert (a["index_set"], a["normal_dim"]) == ([2], 2)
    assert (b["index_set"], b["normal_dim"]) == ([1, 2], 1)
    assert a["chart_center"] != b["chart_center"]
    if kind == "local":
        assert (outs["1,1,2"] / "local.csv").read_bytes() == (outs["1,2,2"] / "local.csv").read_bytes()
