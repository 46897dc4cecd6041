import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracelab.errors import ConfigError
from tracelab.harness import CACHE_ENV_VAR, FIELDS, KINDS, ExperimentConfig, parse_lambda_grid, run
from tracelab.harness import _displacement, _grid, _integer, _integers, _number
from tracelab.windows import Window
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
    # 10^11 points raised numpy's _ArrayMemoryError, 10^7 ran past a minute
    assert parse_lambda_grid("1:2:65536").size == 65536
    with pytest.raises(ConfigError, match="count must be between 1 and 65536, got 100000000000"):
        parse_lambda_grid("1:2:100000000000")


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


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(-3, 9).filter(lambda d: d != 1))
@example(dim=2)
def test_config_dim_consistency(dim):
    cfg = _base_config()
    cfg["model"]["dim"] = dim
    with pytest.raises(ConfigError, match="config.model.dim"):
        ExperimentConfig.from_dict(cfg)


def test_integral_numbers_are_integers():
    cfg = ExperimentConfig.from_dict(_base_config(k_max=10.0, model={"weights": [1.0, 2]}))
    assert (cfg.k_max, cfg.weights) == (10, (1, 2))
    assert type(cfg.k_max) is int and all(type(w) is int for w in cfg.weights)


_fraction = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
_not_integer = st.one_of(_fraction, st.booleans(), st.text(max_size=4))
_not_number = st.one_of(
    st.booleans(), st.text(max_size=4), st.just([1.0]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
# per caster of the table: values it refuses, and values it takes (the range
# check of the field then decides)
_MALFORMED = {
    str: st.nothing(),
    _integer: _not_integer,
    _number: _not_number,
    _integers: st.one_of(
        st.text(max_size=4),
        st.lists(st.one_of(st.integers(1, 5), _not_integer), min_size=2, max_size=4).filter(
            lambda w: not all(type(v) is int for v in w)),
    ),
    _grid: st.one_of(
        st.lists(st.one_of(st.floats(1, 100), _not_number), min_size=1, max_size=4).filter(
            lambda g: not all(type(v) is float and np.isfinite(v) for v in g)),
        st.integers(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    ),
    _displacement: st.one_of(
        st.lists(_not_number, min_size=1, max_size=1),
        st.lists(st.tuples(st.floats(-1, 1), _not_number).map(list), min_size=1, max_size=1),
        st.lists(st.lists(st.floats(-1, 1), min_size=0, max_size=3).filter(lambda p: len(p) != 2),
                 min_size=1, max_size=1),
    ),
}
_WELL_FORMED = {
    str: st.one_of(st.text(max_size=6), st.integers(),
                   st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)),
    _integer: st.integers(-10, 10),
    _number: st.floats(-1e3, 1e3),
    _integers: st.lists(st.integers(-3, 5), max_size=4),
    _grid: st.lists(st.floats(1, 100), max_size=4),
}


def _bad_values(f):
    """(path, value) with a value field ``f``'s caster or range check refuses."""
    bad = _MALFORMED[f.cast]
    if f.check is not None:
        bad = st.one_of(bad, _WELL_FORMED[f.cast].filter(lambda v: not f.check[0](f.cast(v))))
    return bad.map(lambda v: (f.path, v))


_FAULTS = st.sampled_from([f for f in FIELDS if f.cast is not str or f.check]).flatmap(_bad_values)


def _trace_with(path: str, value) -> dict:
    """A valid trace config with ``value`` at ``path``."""
    cfg = {
        "kind": "trace", "model": {"weights": [1, 2]}, "k_max": 10,
        "window": {"shape": "gaussian", "tau0": 0.0, "eps": 0.15}, "lambda_grid": "20:40:5",
    }
    section, _, key = path.rpartition(".")
    (cfg[section] if section else cfg)[key] = value
    return cfg


@settings(max_examples=150, deadline=None)
@given(fault=_FAULTS)
@example(fault=("model.weights", [1.5, 2.7]))  # int() would truncate these to (1, 2) and 10
@example(fault=("model.weights", "12"))
@example(fault=("k_max", 10.9))
@example(fault=("lambda_grid", ["abc", 10]))  # numpy raised a ValueError traceback
@example(fault=("lambda_grid", [[1, 2], 10]))
@example(fault=("C", True))  # these three were taken as 1.0, 1e-10 and 0.0
@example(fault=("tail_tol", "1e-10"))
@example(fault=("window.tau0", "0"))
@example(fault=("C", -1.0))  # offlocus sampled at a negative distance
def test_malformed_config_fields_are_config_errors_naming_the_field(fault):
    # every field of the table refuses what its caster or range check
    # refuses: in from_dict, in the constructor and on the command line
    path, value = fault
    named = re.escape(f"config.{path}:")
    with pytest.raises(ConfigError, match=named):
        ExperimentConfig.from_dict(_trace_with(path, value))
    window = Window("gaussian", 0.0, 0.15)
    keywords = {"kind": "trace", "weights": (1, 2), "lambda_grid": "20:40:5"}
    section, _, key = path.rpartition(".")
    if section == "window":
        setattr(window, key, value)  # past the Window's own checks, as a caller could
    else:
        keywords[key] = value
    with pytest.raises(ConfigError, match=named):
        ExperimentConfig(window=window, **keywords)
    if path == "kind":
        return  # the subcommand names the kind
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "cfg.json")
        config.write_text(json.dumps(_trace_with(path, value)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["trace", "--config", str(config), "--out", str(Path(tmp, "out"))])
        assert code == 2 and f"config.{path}:" in err.getvalue()
        assert not Path(tmp, "out").exists()


_NUMBER_FAULTS = st.sampled_from(
    [f for f in FIELDS if f.cast in (_number, _grid, _displacement)]
).flatmap(lambda f: _MALFORMED[f.cast].map(lambda v: (f.path, v)))


@settings(max_examples=150, deadline=None)
@given(fault=_NUMBER_FAULTS)
@example(fault=("lambda_grid", ["abc", 10]))  # numpy raised a ValueError traceback
@example(fault=("lambda_grid", [[1, 2], 10]))
@example(fault=("C", True))  # these three were taken as 1.0, 1e-10 and 0.0
@example(fault=("tail_tol", "1e-10"))
@example(fault=("window.tau0", "0"))
def test_malformed_numbers_are_config_errors_naming_the_field(fault):
    path, value = fault
    with pytest.raises(ConfigError, match=re.escape(f"config.{path}:")):
        ExperimentConfig.from_dict(_trace_with(path, value))


@pytest.mark.parametrize(
    "field, value",
    [("weights", (1.5, 2.7)), ("k_max", 10.9), ("x0_index", 0.5), ("seed", "1"), ("C", "1.3")],
)
def test_constructor_refuses_what_from_dict_refuses(field, value):
    # the Python constructor used to truncate (1.5, 2.7) to (1, 2) and keep k_max 10.9
    kwargs = {"kind": "spectrum", "weights": (1, 2), "k_max": 10, field: value}
    with pytest.raises(ConfigError, match=re.escape(f"{field}:")):
        ExperimentConfig(**kwargs)


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


# a trace on (1, 3) past 2^52, where the closed form leaves its rows to the
# eigen-sum; a kernel row on (2, 3) at tau0 = pi whose moments are
# (3/4, 1/4), where p_t(x) = (1 - x)(1 + x/2)^2 has a double root: its
# poles are not separated, so the closed form leaves it to the eigen-sum.
# Its chart radius |u|/sqrt(lambda) = pi/6 at lambda = 1e12 puts sin^2 = 1/4
# on the normal coordinate
_BEYOND_THE_CUT_TABLE = {
    "trace": ["--weights", "1,3", "--tau0", "0", "--eps", "0.15", "--lambda-grid", "1e16:2e16:2"],
    "local": ["--weights", "2,3", "--tau0", "3.141592653589793", "--eps", "0.1",
              "--u", repr(1e6 * math.pi / 6), "--lambda-grid", "1e12:2e12:2"],
}


@pytest.mark.parametrize("kind", ["trace", "local"])
def test_cli_lambda_beyond_the_cut_table_exits_3(tmp_path, capsys, kind):
    argv = [kind, *_BEYOND_THE_CUT_TABLE[kind], "--shape", "gaussian", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: lambda=") and "needs a window-cut table" in err


def test_cli_trace_at_a_large_period(tmp_path):
    # tau0 = 2 pi 1e9 + pi on (1, 2): the period gap is pi, so eps 0.15 fits,
    # and the component that period fixes is the one the prediction uses
    argv = ["trace", "--weights", "1,2", "--shape", "gaussian", "--tau0", "6283185310.321179",
            "--eps", "0.15", "--lambda-grid", "100:110:3", "--out", str(tmp_path / "t")]
    assert cli.main(argv) == 0
    assert len((tmp_path / "t" / "trace.csv").read_text().splitlines()) == 4
    assert json.loads((tmp_path / "t" / "trace.json").read_text())["meta"]["n_components"] == 1


def test_cli_trace_window_over_a_large_period_gap_exits_2(tmp_path, capsys):
    # tau0 = 2 pi 6.4e11 on (1, 2): the neighbouring periods sit at +-pi, so
    # the eps 0.5 window (half-width 2) overlaps them
    argv = ["trace", "--weights", "1,2", "--shape", "gaussian", "--tau0", repr(2 * math.pi * 6.4e11),
            "--eps", "0.5", "--lambda-grid", "100:110:3", "--out", str(tmp_path / "t")]
    assert cli.main(argv) == 2
    assert "config.window.eps" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


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
            "--out", str(tmp_path / "out")] + flags
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert not (tmp_path / "out").exists()  # refused before the run made its directory


_WINDOW_PI = ["--weights", "1,2", "--shape", "gaussian", "--tau0", "3.141592653589793",
              "--eps", "0.15"]


@pytest.mark.parametrize(
    "kind, flags, field",
    [
        ("local", ["--lambda-grid", "50:60:2", "--u", "1e200"], "config.u"),  # wrote NaN rows
        ("offlocus", ["--lambda-grid", "50:60:2", "--C", "1e300"], "config.C"),  # NaN exact columns
        ("offlocus", ["--lambda-grid", "50:60:2", "--C", "-1"], "config.C"),
        ("trace", ["--lambda-grid", "50:60:2", "--tau0", "1e300"], "config.window.tau0"),
        ("offlocus", ["--lambda-grid", "0:10:3"], "config.lambda_grid"),  # NaN rows at lambda 0
        ("parity", ["--lambda-grid", "0:10:3"], "config.lambda_grid"),
        ("local", ["--lambda-grid=-10:10:3"], "config.lambda_grid"),  # a math domain error
        ("parity", ["--lambda-grid", "0.01:1:3"], "config.u"),  # the default u, 0.5, at lambda 0.01
        ("trace", ["--lambda-grid", "1:2:100000000000"], "lambda_grid"),  # numpy's _ArrayMemoryError
    ],
)
def test_cli_out_of_range_configs_exit_2_before_writing(tmp_path, capsys, kind, flags, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # |u| and 2C lambda^(-7/18) are taken without overflow
        assert cli.main([kind, *_WINDOW_PI, *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert not (tmp_path / "out").exists()


def _refusal(config: dict) -> str:
    try:
        ExperimentConfig.from_dict(config)
    except ConfigError as exc:
        return str(exc)
    return ""


def test_window_phase_limit_follows_eps():
    # |tau0| < 2^52 eps / sqrt(1400): 1.8e13 at eps 0.15, twice that at 0.3 (far
    # out, the period-gap guard may refuse the window too, naming window.eps)
    limit = 2.0**52 * 0.15 / math.sqrt(1400.0)
    for tau0, eps, refused in ((0.99 * limit, 0.15, False), (1.01 * limit, 0.15, True),
                               (1.01 * limit, 0.3, False), (-1.01 * limit, 0.15, True)):
        config = {"kind": "spectrum", "model": {"weights": [1, 1]},
                  "window": {"shape": "gaussian", "tau0": tau0, "eps": eps}}
        assert _refusal(config).startswith("config.window.tau0") == refused


def test_chart_radius_limit_is_pi_over_2():
    # local at lambda = 4: |u| = 2 pi/2 - 1e-9 samples radius just below pi/2, 2 pi/2 at it
    base = {"kind": "local", "model": {"weights": [1, 2]}, "lambda_grid": [4.0, 9.0],
            "window": {"shape": "gaussian", "tau0": math.pi, "eps": 0.15}}
    ExperimentConfig.from_dict({**base, "u": [math.pi - 1e-9]})
    with pytest.raises(ConfigError, match="config.u: the chart radius"):
        ExperimentConfig.from_dict({**base, "u": [[0.0, math.pi]]})
    # offlocus at lambda = 1: the radius is 2C
    base = {**base, "kind": "offlocus", "lambda_grid": [1.0, 2.0]}
    ExperimentConfig.from_dict({**base, "C": math.pi / 4 - 1e-9})
    with pytest.raises(ConfigError, match="config.C: the chart radius"):
        ExperimentConfig.from_dict({**base, "C": math.pi / 4})


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
        ("trace", {"model": {"weights": [1.5, 2]}}, [], "config.model.weights"),
        ("trace", {"model": {"calibration": "none"}}, [], "config.model.calibration"),
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


_KIND_CONFIGS = {
    "spectrum": {"model": {"weights": [1, 2]}, "cache_dir": "cache"},
    "trace": {"model": {"weights": [1, 2]}, "lambda_grid": [10.0, 15.0, 20.0],
              "window": {"shape": "gaussian", "tau0": 0.0, "eps": 0.15}},
    "local": {"model": {"weights": [1, 1, 2], "dim": 2}, "lambda_grid": "20:60:3",
              "window": {"shape": "gaussian", "tau0": math.pi, "eps": 0.15},
              "u": [0.5, [0.25, -0.1]], "x0_index": 2},
    "offlocus": {"model": {"weights": [1, 2]}, "lambda_grid": [80.0, 160.0], "C": 0.9,
                 "window": {"shape": "gaussian", "tau0": math.pi, "eps": 0.15}},
    "parity": {"model": {"weights": [1, 2]}, "lambda_grid": [80.0, 160.0], "u": [0.7],
               "window": {"shape": "gaussian", "tau0": math.pi, "eps": 0.15}, "seed": 4},
    "verify": {"seed": 5},  # verify builds its own models and needs no weights
}


@pytest.mark.parametrize("kind", KINDS)
def test_to_dict_round_trips_for_every_kind(kind):
    cfg = ExperimentConfig.from_dict({**_KIND_CONFIGS[kind], "kind": kind})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict() and again.digest() == cfg.digest()
    assert cfg.k_max == 120  # a config without k_max takes the default the CLI always filled


def test_config_digests_are_pinned():
    # to_dict's format is the manifests' and the digests': these two were
    # computed before the config table existed
    trace = {"kind": "trace", "model": {"weights": [1, 2]}, "k_max": 120,
             "window": {"shape": "gaussian", "tau0": math.pi, "eps": 0.15},
             "lambda_grid": "150:400:26:geometric", "out_dir": "out/trace"}
    local = {"kind": "local", "model": {"weights": [1, 1, 2], "dim": 2}, "k_max": 120,
             "window": {"shape": "gaussian", "tau0": math.pi, "eps": 0.15},
             "lambda_grid": [20.5, 40.0], "u": [0.5, [0.25, -0.1]], "x0_index": 2, "C": 0.9,
             "seed": 3}
    assert ExperimentConfig.from_dict(trace).digest() == (
        "b450491cf703389c9bc3906f7c09e07b2dcef5a40e6fee894739bcb6d9fea6eb")
    assert ExperimentConfig.from_dict(local).digest() == (
        "de9b67b6aeb75426e5d1c1edfdf791da293f08b8159c760df0f2a6c0c7477280")


def _readme_row(f) -> str:
    default = ("required" if f.default is ... else "unset" if f.default is None
               else f"`{json.dumps(f.default)}`")
    flag = f"`{f.flag}`" if f.flag else "—"
    return f"| `{f.path}` | {flag} | {default} | {f.check[1] if f.check else '—'} |"


def test_readme_config_table_is_the_field_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = "\n".join(["| field | flag | default | range |", "|---|---|---|---|",
                       *map(_readme_row, FIELDS)])
    assert table in readme, table


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_base_config()))
    cfg = ExperimentConfig.from_dict(_base_config())
    assert ExperimentConfig.from_file(path).digest() == cfg.digest()
    # a manifest's config, nulls included, reads back as the same run
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.digest() == cfg.digest() and again.cache_dir is None


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
    meta = runs["0"][1]["meta"]
    remainders = meta["window_cut_remainders"]
    assert len(remainders) == 5 and max(remainders) < 1e-20
    # every row is closed-form, with a small bound
    assert meta["precision"] == ["closed-form"] * 5
    assert len(meta["rounding_bounds"]) == 5 and 0 < max(meta["rounding_bounds"]) < 1e-8
    assert "package" not in json.loads((tmp_path / "0" / "manifest.json").read_text())


def test_cancellation_trace_prediction_is_real(tmp_path):
    # (1,1,1,2) at tau0 = pi: c_value = (1 - e^{i pi})^3 and the phase are
    # taken at the exact half period, so the prediction is real, as the exact
    # trace is, and ratio_arg is the exact trace's own rounding
    argv = ["trace", "--weights", "1,1,1,2", "--shape", "gaussian", "--tau0", "3.141592653589793",
            "--eps", "0.15", "--lambda-grid", "1000:100000:4", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        grid, exact_re, exact_im, pred_re, pred_im, ratio_abs, ratio_arg = map(float, row.split(","))
        assert pred_im == 0.0 and abs(exact_im) <= 1e-40
        assert abs(ratio_arg) < 1e-30 and abs(ratio_abs - 1.0) < 1e-12


def test_offlocus_ignores_precision(tmp_path):
    # each row picks its arithmetic by itself: neither the flag nor a
    # config-file key changes a byte, and every off-locus row is in closed form
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
    assert json.loads(runs["none"][1])["meta"]["precision"] == ["closed-form"] * 3


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
    for meta in (a, b):
        assert len(meta["rounding_bounds"]) == len(meta["window_cut_remainders"]) == 3
    if kind == "local":
        assert (outs["1,1,2"] / "local.csv").read_bytes() == (outs["1,2,2"] / "local.csv").read_bytes()
