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
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CacheError, ConfigError, PeriodError
from .geometry import ProjectiveModel, fixed_components, heisenberg_chart, make_model, period_gap
from .reports import ScanReport
from .smoothing import offlocus_decay_scan, parity_scan, scaled_diagonal_scan, smoothed_trace
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


def _field(d: dict, key: str, caster, default=..., where: str = "config"):
    if key not in d:
        if default is ...:
            raise ConfigError(f"{where}.{key}: missing required field")
        return default
    try:
        return caster(d[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from None


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


def _check_calibration(cal) -> None:
    """"auto", "none", or {"lift_sign": +-1, "lift_shift": finite number}."""
    if isinstance(cal, dict):
        sign, shift = cal.get("lift_sign"), cal.get("lift_shift")
        ok = sign in (-1, 1) and isinstance(shift, (int, float)) and math.isfinite(shift)
    else:
        ok = isinstance(cal, str) and cal in ("auto", "none")
    if not ok:
        raise ConfigError(
            f"config.model.calibration: {cal!r} is not 'auto', 'none' or "
            "{lift_sign: +-1, lift_shift: number}"
        )


def _displacement(values) -> np.ndarray:
    """Normal displacement: numbers, or [re, im] pairs."""
    return np.asarray(
        [complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v) for v in values]
    )


@dataclasses.dataclass
class ExperimentConfig:
    """Validated description of one run.

    ``window`` may be None only for the spectrum and verify kinds.  The
    window-width guard keeps the effective support inside half the period
    gap around tau0: the literal half-width for the bump shape, four standard
    deviations for the gaussian.
    """

    kind: str
    weights: tuple
    k_max: int
    window: Window | None = None
    lambda_grid: np.ndarray | None = None
    u: np.ndarray | None = None
    C: float = 1.3
    tail_tol: float = 1e-10
    calibration: object = "auto"
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
        if len(self.weights) < 2 or any(int(w) <= 0 for w in self.weights):
            raise ConfigError("config.model.weights: need at least two positive integers")
        self.weights = tuple(int(w) for w in self.weights)
        _check_calibration(self.calibration)
        if self.k_max < 0:
            raise ConfigError("config.k_max: must be >= 0")
        numbers = {"C": self.C, "tail_tol": self.tail_tol}
        if self.window is not None:
            numbers.update({"window.tau0": self.window.tau0, "window.eps": self.window.eps})
        for where, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"config.{where}: {value!r} is not a finite number")
        if self.tail_tol <= 0:
            raise ConfigError("config.tail_tol: tolerances must be positive")
        if self.u is not None and not np.isfinite(self.u).all():
            raise ConfigError("config.u: components must be finite")
        if self.lambda_grid is not None:
            g = np.asarray(self.lambda_grid, dtype=float)
            if g.size == 0:
                raise ConfigError("config.lambda_grid: grid must be nonempty")
            if not np.isfinite(g).all():
                raise ConfigError("config.lambda_grid: entries must be finite")
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
            halfwidth = self.window.eps if self.window.shape == "bump" else 4.0 * self.window.eps
            if halfwidth >= gap / 2.0:
                raise ConfigError(
                    f"config.window.eps: effective half-width {halfwidth:.3g} must stay "
                    f"below half the period gap {gap / 2.0:.3g} at tau0={self.window.tau0:.6g}"
                )

    def model(self) -> ProjectiveModel:
        """The calibrated model, built once per config."""
        if self._model is None:
            self._model = make_model(self.weights, calibration=self.calibration)
        return self._model

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config: expected a JSON object")
        kind = _field(d, "kind", str)
        model_d = config_section(d, "model")
        weights = _field(model_d, "weights", lambda v: tuple(int(w) for w in v), where="config.model")
        dim = _field(model_d, "dim", int, default=None, where="config.model")
        if dim is not None and dim != len(weights) - 1:
            raise ConfigError(
                f"config.model.dim: {dim} inconsistent with {len(weights)} weights"
            )
        calibration = model_d.get("calibration", "auto")
        win = None
        if d.get("window") is not None:
            wd = config_section(d, "window")
            shape = _field(wd, "shape", str, default="bump", where="config.window")
            if shape not in SHAPES:
                raise ConfigError(f"config.window.shape: {shape!r} not one of {SHAPES}")
            tau0 = _field(wd, "tau0", float, where="config.window")
            eps = _field(wd, "eps", float, where="config.window")
            if eps <= 0:
                raise ConfigError("config.window.eps: must be positive")
            win = Window(shape, tau0, eps)
        grid = None
        if "lambda_grid" in d and d["lambda_grid"] is not None:
            lg = d["lambda_grid"]
            grid = parse_lambda_grid(lg) if isinstance(lg, str) else np.asarray(lg, dtype=float)
        u = None
        if "u" in d and d["u"] is not None:
            u = _field(d, "u", _displacement)
        return cls(
            kind=kind,
            weights=weights,
            k_max=_field(d, "k_max", int),
            window=win,
            lambda_grid=grid,
            u=u,
            C=_field(d, "C", float, default=1.3),
            tail_tol=_field(d, "tail_tol", float, default=1e-10),
            calibration=calibration,
            x0_index=_field(d, "x0_index", int, default=None),
            cache_dir=_field(d, "cache_dir", str, default=None),
            out_dir=_field(d, "out_dir", str, default="out"),
            seed=_field(d, "seed", int, default=0),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "model": {"weights": list(self.weights), "calibration": self.calibration},
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
    comps = [c for c in fixed_components(model, tau0) if not c.m_only]
    if not comps:
        raise PeriodError(f"no sphere-fixed components at tau0={tau0}")
    comp = comps[0]
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
        versions=_versions(),
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
    from .asymptotics import component_f_integral, predict_global_component

    model = cfg.model()
    win = cfg.window
    grid = cfg.lambda_grid
    trace = smoothed_trace(model, win, grid, cfg.tail_tol)
    try:
        comps = [c for c in fixed_components(model, win.tau0) if not c.m_only]
    except PeriodError:
        comps = []
    predicted = np.zeros_like(trace.value)
    for comp in comps:
        fi = component_f_integral(model, comp)
        predicted = predicted + predict_global_component(comp, win, grid, f_integral=fi)
    if not comps:
        predicted = np.ones_like(trace.value)  # no periodic contribution: report raw values
    meta = {
        "kind_detail": "smoothed trace vs sum of component leading terms",
        "tau0": win.tau0,
        "n_components": len(comps),
        "window_cut_remainders": trace.cut_remainder,
    }
    return ScanReport("trace", grid, trace.value, predicted, meta=meta)


def _versions() -> dict:
    import numpy
    import scipy

    return {"tracelab": __version__, "numpy": numpy.__version__, "scipy": scipy.__version__}
