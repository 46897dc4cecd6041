"""Experiment orchestration: one config table, validated configs, caching, deterministic artifacts.

`FIELDS` lists each config field once (JSON path, caster, default, range
check, CLI flag).  The CLI, `from_dict`, validation and `to_dict` loop over
it, and the fields are checked together before `run` creates an output
directory.  A run writes a CSV + JSON report, a gnuplot script and a
manifest carrying the config hash.  Traces and kernel scans sum over every
degree of the model; only ``spectrum`` builds a degree-truncated spectral
package, from the cache when a valid one exists.
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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .asymptotics import predict_global_component
from .errors import CacheError, ConfigError, CoverageError, PeriodError
from .geometry import ProjectiveModel, fixed_components, heisenberg_chart, make_model, period_gap
from .reports import ScanReport
from .smoothing import _check_tau0, _row_budgets, offlocus_decay_scan, parity_scan
from .smoothing import scaled_diagonal_scan, smoothed_trace
from .spectral import SpectralPackage, check_multiplicity_table, eigendata
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


class Field(NamedTuple):
    """One entry of `FIELDS`: JSON path, caster, default (``...``: required,
    within a window for ``window.`` fields), (predicate, range in words)
    check, CLI flag and help.  The path's last part, `key`, is the keyword
    and attribute of `ExperimentConfig`, or of its `Window`.  `to_dict` leaves
    out a None value (writes null if ``null``) and skips a field not ``written``."""

    path: str
    cast: Callable
    default: object = ...
    check: tuple | None = None
    flag: str | None = None
    help: str | None = None
    written: bool = True
    null: bool = False

    @property
    def section(self) -> str:
        return self.path.rpartition(".")[0]

    @property
    def key(self) -> str:
        return self.path.rpartition(".")[2]


FIELDS = (
    Field("kind", str, check=(lambda k: k in KINDS, f"one of {', '.join(KINDS)}")),
    Field("model.weights", _integers, ..., (lambda w: len(w) >= 2 and min(w) > 0,
          "at least two positive integers"), "--weights", "comma-separated, e.g. 1,2"),
    Field("model.dim", _integer, None, None, "--dim", "checks len(weights) - 1", written=False),
    Field("model.calibration", str, "auto", (lambda c: c == "auto", "'auto'")),
    Field("k_max", _integer, 120, (lambda k: k >= 0, ">= 0"), "--kmax",
          "degree truncation of spectrum; others ignore it"),
    Field("window.shape", str, "bump", (lambda s: s in SHAPES, f"one of {', '.join(SHAPES)}"),
          "--shape", "bump or gaussian (default bump)"),
    Field("window.tau0", _number, ..., None, "--tau0", "window center (a period for trace kinds)"),
    Field("window.eps", _number, ..., (lambda e: e > 0, "> 0"), "--eps", "window width parameter"),
    Field("lambda_grid", _grid, None, (lambda g: g.size > 0 and (np.diff(g) > 0).all(),
          "nonempty and strictly increasing"), "--lambda-grid", "start:stop:count[:geometric]"),
    Field("u", _displacement, None, None, "--u", "comma-separated real normal displacement"),
    Field("C", _number, 1.3, (lambda c: c > 0, "> 0"), "--C", "off-locus distance constant"),
    Field("tail_tol", _number, 1e-10, (lambda t: t > 0, "> 0")),
    Field("x0_index", _integer, None, null=True),
    Field("cache_dir", str, None, None, "--cache", "spectrum's package cache", null=True),
    Field("out_dir", str, "out", None, "--out", "output directory"),
    Field("seed", _integer, 0, None, "--seed", "seed for sampled checks"),
)


def _value(f: Field, raw):
    """``raw``, a JSON value, cast and range-checked as field ``f``; None takes the default."""
    if raw is None:
        if f.default is ...:
            raise ConfigError(f"config.{f.path}: missing required field")
        return f.default
    value = _cast(f"config.{f.path}", f.cast, raw)
    if f.check is not None and not f.check[0](value):
        raise ConfigError(f"config.{f.path}: must be {f.check[1]}, got {value!r}")
    return value


class ExperimentConfig:
    """Validated description of one run.

    Keywords: ``window``, a `Window` (None only for spectrum and verify), and
    the `Field.key` of every other field of `FIELDS`; an absent or None one
    takes the field's default (verify, which builds its own models, takes
    weights (1, 2)).  Each value is cast and checked as in `from_dict`, then
    the fields together, so `run` refuses nothing after creating ``out_dir``.
    """

    def __init__(self, window: Window | None = None, **keywords):
        keys = {f.key for f in FIELDS if f.section != "window"}
        if not keywords.keys() <= keys:
            raise TypeError(f"unexpected keywords {sorted(keywords.keys() - keys)}")
        if keywords.get("weights") is None and keywords.get("kind") == "verify":
            keywords["weights"] = (1, 2)
        for f in FIELDS:
            if f.section != "window":
                setattr(self, f.key, _value(f, keywords.get(f.key)))
            elif window is not None:
                _value(f, getattr(window, f.key))  # the window keeps the values it was given
        self.window, self._model = window, None
        self._scan = self._check_together()

    def _check_together(self) -> tuple | None:
        """Check the fields against each other; a kernel scan's chart and u.

        A ``spectrum`` table must be one `check_multiplicity_table` accepts
        (a CoverageError, exit 3).  The trace and kernel kinds need a window
        and a grid.  |tau0| must be below the limit of
        `smoothing._check_tau0`, 2^52 eps/sqrt(1400) (1.8e13 at eps 0.15),
        under which every phase argument of a window cut stays resolved; the
        eigen-sums refuse past it too.  The window must fit in half the
        period gap.  A kernel scan samples where `HeisenbergChart` is
        exact: lambda > 0 and the chart radius below pi/2, the radius being 2C
        lam^(-7/18) (offlocus) or |u|/sqrt(lam) (local, parity; u defaults to
        0 and 0.5 per normal direction) at the smallest lam.
        """
        if self.dim is not None and self.dim != len(self.weights) - 1:
            raise ConfigError(f"config.model.dim: must be {len(self.weights) - 1}, got {self.dim}")
        if self.kind == "spectrum":
            check_multiplicity_table(self.weights, self.k_max)
        if self.kind not in ("spectrum", "verify"):
            for name in ("window", "lambda_grid"):
                if getattr(self, name) is None:
                    raise ConfigError(f"config.{name}: required for kind {self.kind!r}")
        win = self.window
        if win is not None:
            try:
                _check_tau0(win)
            except CoverageError as exc:
                raise ConfigError(f"config.window.tau0: {exc}") from None
            gap = period_gap(self.model(), win.tau0)
            if win.halfwidth >= gap / 2.0:
                raise ConfigError(
                    f"config.window.eps: effective half-width {win.halfwidth:.3g} must stay "
                    f"below half the period gap {gap / 2.0:.3g} at tau0={win.tau0:.6g}"
                )
        if self.kind not in ("local", "offlocus", "parity"):
            return None
        lam = float(self.lambda_grid[0])
        if lam <= 0:
            raise ConfigError(f"config.lambda_grid: kind {self.kind!r} needs lambda > 0, got {lam}")
        chart = _default_chart(self.model(), win.tau0, self.x0_index)  # checks x0_index
        c, u = chart.normal_dim, self.u
        if u is None:
            u = np.full(c, 0.5 if self.kind == "parity" else 0.0, dtype=complex)
        elif len(u) != c:
            raise ConfigError(f"config.u: {len(u)} components, the chart's normal dimension {c}")
        if self.kind == "offlocus":
            field, radius = "C", 2.0 * self.C * lam ** (-7.0 / 18.0)
        else:  # hypot over the real and imaginary parts: |u| without overflow
            field, radius = "u", math.hypot(*u.view(float)) / math.sqrt(lam)
        if not radius < math.pi / 2:
            raise ConfigError(
                f"config.{field}: the chart radius at lambda={lam:.6g}, {radius:.3g}, must be "
                "below pi/2, where the chart is exact"
            )
        return chart, u

    def model(self) -> ProjectiveModel:
        """The calibrated model, built once per config."""
        if self._model is None:
            self._model = make_model(self.weights)
        return self._model

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object describes; keys outside `FIELDS` are ignored."""
        if not isinstance(d, dict):
            raise ConfigError("config: expected a JSON object")

        def raw(f: Field):
            return (config_section(d, f.section) if f.section else d).get(f.key)

        window = None
        if d.get("window") is not None:
            window = Window(**{f.key: _value(f, raw(f)) for f in FIELDS if f.section == "window"})
        return cls(window=window, **{f.key: raw(f) for f in FIELDS if f.section != "window"})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))

    def to_dict(self) -> dict:
        """The config as `from_dict` reads it, arrays as lists."""
        d: dict = {}
        for f in FIELDS:
            value = getattr(self.window if f.section == "window" else self, f.key, None)
            if isinstance(value, np.ndarray):
                pairs = value.dtype == complex  # u, written as [re, im] pairs
                value = (value.view(float).reshape(-1, 2) if pairs else value).tolist()
            if f.written and (value is not None or f.null):
                (d.setdefault(f.section, {}) if f.section else d)[f.key] = value
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
    """The local, offlocus or parity scan at the chart and displacement the config checked."""
    (chart, u), args = cfg._scan, (cfg.lambda_grid, cfg.tail_tol)
    if cfg.kind == "offlocus":
        return offlocus_decay_scan(cfg.model(), cfg.window, chart, cfg.C, *args)
    scan = scaled_diagonal_scan if cfg.kind == "local" else parity_scan
    return scan(cfg.model(), cfg.window, chart, u, *args)


def _trace_report(cfg: ExperimentConfig) -> ScanReport:
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
        **_row_budgets(trace.cut_remainder, trace.rounding_bound, trace.precision),
    }
    return ScanReport("trace", grid, trace.value, predicted, meta=meta)
