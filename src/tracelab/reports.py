"""Scan reports: exact-vs-predicted value pairs plus fit metadata.

A `ScanReport` is the common currency between the smoothing side (exact
eigen-sums) and the asymptotics side (predicted leading terms): a grid, two
complex value columns, their ratios, and a dict of fitted exponents and
diagnostics.  Serialisation is CSV (fixed 17-significant-digit scientific
notation, so reruns diff byte-for-byte) plus JSON for the metadata, with an
optional gnuplot companion script.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

_FMT = "%.17e"
CSV_COLUMNS = ("grid", "exact_re", "exact_im", "pred_re", "pred_im", "ratio_abs", "ratio_arg")


@dataclass(eq=False, repr=False)
class ScanReport:
    kind: str
    grid: np.ndarray
    exact: np.ndarray
    predicted: np.ndarray
    meta: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.exact = np.asarray(self.exact, dtype=complex)
        self.predicted = np.asarray(self.predicted, dtype=complex)
        if not (self.grid.shape == self.exact.shape == self.predicted.shape):
            raise InputError("grid/exact/predicted must share one shape")
        if self.grid.size and not (
            np.all(np.diff(self.grid) > 0) or np.all(np.diff(self.grid) < 0)
        ):
            raise InputError("scan grid must be strictly monotone")

    @property
    def ratios(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.predicted != 0, self.exact / self.predicted, np.nan + 0j)

    def rows(self):
        r = self.ratios
        return np.column_stack(
            [
                self.grid,
                self.exact.real,
                self.exact.imag,
                self.predicted.real,
                self.predicted.imag,
                np.abs(r),
                np.angle(r),
            ]
        )

    def to_csv(self, path) -> None:
        header = ",".join(CSV_COLUMNS)
        np.savetxt(path, self.rows(), delimiter=",", header=header, comments="", fmt=_FMT)

    def to_json(self, path) -> None:
        payload = {
            "kind": self.kind,
            "meta": _plain(self.meta),
            "fits": _plain(self.fits),
            "n_points": int(self.grid.size),
            "grid_range": [float(self.grid.min()), float(self.grid.max())] if self.grid.size else None,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def gnuplot_script(self, csv_name: str) -> str:
        """Companion plot script (text only; no rendering happens here)."""
        lines = [
            "set datafile separator ','",
            "set logscale xy",
            f"set title '{self.kind}'",
            "set xlabel 'grid'",
            "set ylabel '|exact| and |predicted|'",
            f"plot '{csv_name}' every ::1 using 1:(sqrt($2**2+$3**2)) with linespoints"
            " title 'exact', \\",
            f"     '{csv_name}' every ::1 using 1:(sqrt($4**2+$5**2)) with lines"
            " title 'predicted'",
        ]
        return "\n".join(lines) + "\n"


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json.dump accepts them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj
