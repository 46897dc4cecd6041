"""Experiment orchestration: validated configs, caching, deterministic artifacts.

A run is: validate an ExperimentConfig, dispatch on the experiment kind, and
write the artifacts — CSV + JSON report, a gnuplot script, and a manifest
carrying the config hash so identical configs are provably identical runs.
Traces and kernel scans sum over every degree of the calibrated model; only
the ``spectrum`` kind builds a degree-truncated spectral package, from the
cache when a valid one exists (rebuilding on checksum mismatch).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from numbers import Complex, Integral, Real
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CacheError, ConfigError, PeriodError
from .geometry import ProjectiveModel, fixed_components, heisenberg_chart, make_model, period_gap
from .reports import ScanReport
from .smoothing import _row_budgets, offlocus_decay_scan, parity_scan, scaled_diagonal_scan
from .smoothing import smoothed_trace
from .spectral import SpectralPackage, eigendata
from .windows import SHAPES, Window

CACHE_ENV_VAR = "TRACELAB_CACHE"

KINDS = ("spectrum", "trace", "local", "offlocus", "parity", "verify")


def parse_lambda_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count[:geometric]' into a monotone grid."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"lambda_grid: expected start:stop:count[:geometric], got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"lambda_grid: {exc}") from None
    if count < 1:
        raise ConfigError("lambda_grid: count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"lambda_grid: endpoints must be finite, got {text!r}")
    if len(parts) == 4:
        if parts[3] != "geometric":
            raise ConfigError(f"lambda_grid: unknown spacing {parts[3]!r}")
        if start * stop <= 0:
            raise ConfigError("lambda_grid: geometric spacing needs same-sign endpoints")
        grid = np.geomspace(start, stop, count)
    else:
        grid = np.linspace(start, stop, count)
    if grid.size > 1 and not (np.diff(grid) > 0).all():
        grid = grid[::-1].copy()
    return grid


def _cast(path: str, caster, value):
    """``caster(value)``; a TypeError or ValueError becomes a ConfigError naming ``path``."""
    try:
        return caster(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _field(d: dict, key: str, caster, default=..., where: str = "config"):
    """``caster(d[key])``, naming the field on failure; null counts as absent."""
    if d.get(key) is None:
        if default is ...:
            raise ConfigError(f"{where}.{key}: missing required field")
        return default
    return _cast(f"{where}.{key}", caster, d[key])


def config_section(d: dict, key: str) -> dict:
    """The JSON object under ``d[key]``, {} when absent or null."""
    value = d.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config.{key}: expected a JSON object, got {type(value).__name__}")
    return value


def read_config_file(path) -> dict:
    """The JSON object in a config file; an unreadable file is a ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: line {exc.lineno}: {exc.msg}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a JSON object, got {type(data).__name__}")
    return data


def _integer(value) -> int:
    """A config integer: integral numbers pass; strings, booleans and fractions raise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _sequence(values) -> list:
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise TypeError(f"expected a list, got {values!r}")
    return list(values)


def _integers(values) -> tuple:
    return tuple(_integer(v) for v in _sequence(values))


def _number(value) -> float:
    """A config number: finite ints and floats pass; strings, booleans and non-finite values raise."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _grid(values) -> np.ndarray:
    """A lambda grid: 'start:stop:count[:geometric]' or a list of numbers."""
    if isinstance(values, str):
        return parse_lambda_grid(values)
    return np.array([_number(v) for v in _sequence(values)], dtype=float)


def _displacement(values) -> np.ndarray:
    """Normal displacement: numbers, [re, im] pairs of numbers, or complex numbers."""

    def entry(v):
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ValueError(f"{v!r} is not a number or an [re, im] pair")
            return complex(_number(v[0]), _number(v[1]))
        if isinstance(v, Complex) and not isinstance(v, Real):
            return complex(_number(v.real), _number(v.imag))
        return complex(_number(v))

    return np.array([entry(v) for v in _sequence(values)], dtype=complex)


@dataclasses.dataclass
class ExperimentConfig:
    """Validated description of one run.

    ``window`` may be None only for the spectrum and verify kinds.  The
    window-width guard keeps the window's `Window.halfwidth` inside half the
    period gap around tau0.  The constructor checks every field as
    `from_dict` does: integers by `_integer`, other numbers by `_number`.
    """

    kind: str
    weights: tuple
    k_max: int
    window: Window | None = None
    lambda_grid: np.ndarray | None = None
    u: np.ndarray | None = None
    C: float = 1.3
    tail_tol: float = 1e-10
    x0_index: int | None = None
    cache_dir: str | None = None
    out_dir: str = "out"
    seed: int = 0
    _model: ProjectiveModel | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"config.kind: {self.kind!r} not one of {KINDS}")
        self.weights = _cast("config.model.weights", _integers, self.weights)
        if len(self.weights) < 2 or any(w <= 0 for w in self.weights):
            raise ConfigError("config.model.weights: need at least two positive integers")
        self.k_max = _cast("config.k_max", _integer, self.k_max)
        if self.k_max < 0:
            raise ConfigError("config.k_max: must be >= 0")
        if self.x0_index is not None:
            self.x0_index = _cast("config.x0_index", _integer, self.x0_index)
        self.seed = _cast("config.seed", _integer, self.seed)
        self.C = _cast("config.C", _number, self.C)
        self.tail_tol = _cast("config.tail_tol", _number, self.tail_tol)
        if self.window is not None:
            _cast("config.window.tau0", _number, self.window.tau0)
            _cast("config.window.eps", _number, self.window.eps)
        if self.tail_tol <= 0:
            raise ConfigError("config.tail_tol: tolerances must be positive")
        if self.u is not None:
            self.u = _cast("config.u", _displacement, self.u)
        if self.lambda_grid is not None:
            g = _cast("config.lambda_grid", _grid, self.lambda_grid)
            if g.size == 0:
                raise ConfigError("config.lambda_grid: grid must be nonempty")
            if g.size > 1 and not (np.diff(g) > 0).all():
                raise ConfigError("config.lambda_grid: grid must be strictly increasing")
            self.lambda_grid = g
        if self.kind in ("trace", "local", "offlocus", "parity"):
            if self.window is None:
                raise ConfigError(f"config.window: required for kind {self.kind!r}")
            if self.lambda_grid is None:
                raise ConfigError(f"config.lambda_grid: required for kind {self.kind!r}")
        if self.window is not None:
            gap = period_gap(self.model(), self.window.tau0)
            halfwidth = self.window.halfwidth
            if halfwidth >= gap / 2.0:
                raise ConfigError(
                    f"config.window.eps: effective half-width {halfwidth:.3g} must stay "
                    f"below half the period gap {gap / 2.0:.3g} at tau0={self.window.tau0:.6g}"
                )

    def model(self) -> ProjectiveModel:
        """The calibrated model, built once per config."""
        if self._model is None:
            self._model = make_model(self.weights)
        return self._model

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config: expected a JSON object")
        kind = _field(d, "kind", str)
        model_d = config_section(d, "model")
        weights = _field(model_d, "weights", _integers, where="config.model")
        dim = _field(model_d, "dim", _integer, default=None, where="config.model")
        if dim is not None and dim != len(weights) - 1:
            raise ConfigError(
                f"config.model.dim: {dim} inconsistent with {len(weights)} weights"
            )
        calibration = model_d.get("calibration")
        if calibration not in (None, "auto"):  # the contact field fixes the flow; nothing to choose
            raise ConfigError(f"config.model.calibration: {calibration!r} is not 'auto'")
        win = None
        if d.get("window") is not None:
            wd = config_section(d, "window")
            shape = _field(wd, "shape", str, default="bump", where="config.window")
            if shape not in SHAPES:
                raise ConfigError(f"config.window.shape: {shape!r} not one of {SHAPES}")
            tau0 = _field(wd, "tau0", _number, where="config.window")
            eps = _field(wd, "eps", _number, where="config.window")
            if eps <= 0:
                raise ConfigError("config.window.eps: must be positive")
            win = Window(shape, tau0, eps)
        return cls(
            kind=kind,
            weights=weights,
            k_max=_field(d, "k_max", _integer),
            window=win,
            lambda_grid=_field(d, "lambda_grid", _grid, default=None),
            u=_field(d, "u", _displacement, default=None),
            C=_field(d, "C", _number, default=1.3),
            tail_tol=_field(d, "tail_tol", _number, default=1e-10),
            x0_index=_field(d, "x0_index", _integer, default=None),
            cache_dir=_field(d, "cache_dir", str, default=None),
            out_dir=_field(d, "out_dir", str, default="out"),
            seed=_field(d, "seed", _integer, default=0),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "model": {"weights": list(self.weights), "calibration": "auto"},
            "k_max": self.k_max,
            "C": self.C,
            "tail_tol": self.tail_tol,
            "x0_index": self.x0_index,
            "cache_dir": self.cache_dir,
            "out_dir": self.out_dir,
            "seed": self.seed,
        }
        if self.window is not None:
            d["window"] = {
                "shape": self.window.shape,
                "tau0": self.window.tau0,
                "eps": self.window.eps,
            }
        if self.lambda_grid is not None:
            d["lambda_grid"] = [float(x) for x in self.lambda_grid]
        if self.u is not None:
            d["u"] = [[v.real, v.imag] for v in np.asarray(self.u, dtype=complex)]
        return d

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------------
# cache and package acquisition
# ----------------------------------------------------------------------------


def cache_path(cfg: ExperimentConfig) -> Path | None:
    root = os.environ.get(CACHE_ENV_VAR) or cfg.cache_dir
    if root is None:
        return None
    tag = "-".join(str(w) for w in cfg.weights)
    return Path(root) / f"package_w{tag}_k{cfg.k_max}.npz"


def obtain_package(cfg: ExperimentConfig, model: ProjectiveModel) -> tuple[SpectralPackage, str]:
    """Load the spectral package from cache or build it; never trust corruption.

    Returns (package, provenance) with provenance in
    {"cache", "built", "rebuilt"} — "rebuilt" means a cache file existed but
    failed its checksum and was replaced.
    """
    path = cache_path(cfg)
    if path is not None and path.exists():
        try:
            pkg = SpectralPackage.load(path)
            if pkg.model.weights == model.weights and pkg.k_max == cfg.k_max:
                return pkg, "cache"
            provenance = "rebuilt"
        except CacheError:
            provenance = "rebuilt"
    else:
        provenance = "built"
    pkg = eigendata(model, cfg.k_max)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        pkg.save(path)
    return pkg, provenance


def _default_chart(model: ProjectiveModel, tau0: float, x0_index: int | None):
    """The chart at coordinate point ``x0_index`` (or the first) of the sphere-fixed component."""
    comp = fixed_components(model, tau0)[0]
    idx = comp.index_set[0] if x0_index is None else x0_index
    if idx not in comp.index_set:
        raise ConfigError(f"config.x0_index: {idx} not on the fixed component {comp.index_set}")
    x0 = np.zeros(model.dim + 1, dtype=complex)
    x0[idx] = 1.0
    return heisenberg_chart(model, x0, tau0)


# ----------------------------------------------------------------------------
# run dispatch
# ----------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RunResult:
    exit_code: int
    artifacts: tuple
    manifest: dict


def _write_artifacts(report: ScanReport, out: Path, stem: str) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    plot_path = out / f"{stem}.gp"
    report.to_csv(csv_path)
    report.to_json(json_path)
    plot_path.write_text(report.gnuplot_script(csv_path.name))
    return [csv_path.name, json_path.name, plot_path.name]


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute one validated experiment and write its artifacts."""
    t_start = time.perf_counter()
    out = Path(cfg.out_dir)
    if cfg.kind == "verify":
        from .verify import run_all

        results, manifest, code = run_all(out_dir=out, seed=cfg.seed)
        return RunResult(code, tuple(manifest.get("artifacts", ())), manifest)

    out.mkdir(parents=True, exist_ok=True)
    manifest = {"config": cfg.to_dict(), "config_sha256": cfg.digest()}
    if cfg.kind == "spectrum":
        pkg, provenance = obtain_package(cfg, cfg.model())
        rows = np.column_stack([pkg.values, pkg.multiplicities.astype(float)])
        path = out / "spectrum.csv"
        header = "eigenvalue,multiplicity"
        np.savetxt(path, rows, fmt="%.17e", delimiter=",", header=header, comments="")
        artifacts = [path.name]
        manifest["package"] = {
            "k_max": pkg.k_max,
            "n_eigenvalues": pkg.n_eigenvalues,
            "provenance": provenance,
        }
    else:
        report = _trace_report(cfg) if cfg.kind == "trace" else _kernel_report(cfg)
        artifacts = _write_artifacts(report, out, cfg.kind)
    manifest.update(
        artifacts=artifacts,
        runtime_seconds=round(time.perf_counter() - t_start, 3),
        versions={"tracelab": __version__, "numpy": np.__version__},
    )
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return RunResult(0, tuple(artifacts), manifest)


def _kernel_report(cfg: ExperimentConfig) -> ScanReport:
    """The local, offlocus or parity scan at the default chart of the window's period."""
    model = cfg.model()
    chart = _default_chart(model, cfg.window.tau0, cfg.x0_index)
    args = (cfg.lambda_grid, cfg.tail_tol)
    if cfg.kind == "offlocus":
        return offlocus_decay_scan(model, cfg.window, chart, cfg.C, *args)
    c = chart.normal_dim
    if cfg.u is None:
        u = np.full(c, 0.5 + 0j) if cfg.kind == "parity" else np.zeros(c, dtype=complex)
    elif len(cfg.u) != c:
        raise ConfigError(
            f"config.u: {len(cfg.u)} components given, the chart at tau0="
            f"{cfg.window.tau0:.6g} has normal dimension {c}"
        )
    else:
        u = cfg.u
    scan = scaled_diagonal_scan if cfg.kind == "local" else parity_scan
    return scan(model, cfg.window, chart, u, *args)


def _trace_report(cfg: ExperimentConfig) -> ScanReport:
    from .asymptotics import predict_global_component

    model, win, grid = cfg.model(), cfg.window, cfg.lambda_grid
    trace = smoothed_trace(model, win, grid, cfg.tail_tol)
    try:
        comp = fixed_components(model, win.tau0)[0]
    except PeriodError:  # no periodic contribution: report raw values
        comp, predicted = None, np.ones_like(trace.value)
    else:  # adding to zeros keeps the signed zeros the reports have always written
        predicted = np.zeros_like(trace.value) + predict_global_component(model, comp, win, grid)
    meta = {
        "kind_detail": "smoothed trace vs sum of component leading terms",
        "tau0": win.tau0,
        "n_components": int(comp is not None),
        **_row_budgets(trace.cut_remainder, trace.rounding_bound, trace.decimal),
    }
    return ScanReport("trace", grid, trace.value, predicted, meta=meta)
