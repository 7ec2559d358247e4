"""Time grids, trajectory containers and the input and work rules shared by the models."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WorkBudgetError
from .qstate import ATOL_INTEGRATED

_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
#: Largest estimated work of one run, in secular (root, pole) pairs (30-50 ns
#: each on one Xeon core, measured at 2e4 and 1e5 poles, so under a minute
#: at the cap); every estimate is converted into this unit by its measured
#: cost.
MAX_WORK = 1_000_000_000
#: Largest estimated bytes of the arrays one run holds at once.
MAX_BYTES = 1 << 30
#: Beyond this a phase omega t is spaced >= 2 rad apart in doubles, so no
#: digit of it modulo 2 pi is left.
PHASE_LIMIT = 2.0 ** 53
#: Rows of one CSV block: a block's text is made, and written, at once.  Its
#: cells' strings and lists (~150 B a cell) stay under 0.7 MB at 8 columns.
_CSV_BLOCK_ROWS = 512


def check_work(work, nbytes, size, points: int, terms: str) -> None:
    """Refuse a run over ``MAX_WORK`` pairs or ``MAX_BYTES`` bytes (NaN too).

    The one work rule: every estimate of a run's size, taken before any
    large allocation, comes here.  ``size`` counts the ``terms`` the work
    scales with, ``points`` the time points (0 for an estimate taken before
    any grid); the WorkBudgetError names the estimate and the cap, and the
    bytes when they bind.
    """
    if work <= MAX_WORK and nbytes <= MAX_BYTES:
        return
    def count(x):
        return str(x) if isinstance(x, int) else f"{x:.4g}"

    estimate, limit = f"{count(work)} element pairs", MAX_WORK
    if work <= MAX_WORK:
        estimate, limit = f"{estimate} and {count(nbytes)} bytes", MAX_BYTES
    raise WorkBudgetError(
        f"the run needs an estimated {estimate} ({count(size)} {terms}"
        f"{f', {points} time points' if points else ''}), above the cap of {limit}"
        f"{' bytes' if limit == MAX_BYTES else ''}",
        work, nbytes, size, points, limit)


def check_phase(frequency, t_max) -> None:
    """Refuse (ValueError) a run whose largest phase ``frequency * t_max`` passes ``PHASE_LIMIT``.

    The one phase rule: the CLI checks each config with it, naming the lines
    of the grid and frequency keys, and every model function that forms a
    phase omega t checks its times with its model's ``phase_frequency``.
    The product is formed in Python floats, so one past the doubles reads
    inf, with no RuntimeWarning, and is refused too.
    """
    phase = float(frequency) * float(t_max)
    if phase > PHASE_LIMIT:
        raise ValueError(f"the largest phase omega*t reaches {phase:.3g}, over 2**53: "
                         "no digit of it is left")


def positive_count(value, name: str) -> int:
    """``value`` as an int, refused unless it is a whole number >= 1 (NaN and inf too)."""
    if not (1 <= value < np.inf and value % 1 == 0):
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def nonnegative_times(t) -> np.ndarray:
    """``t`` as a float array, refused unless every entry is finite and >= 0."""
    t = np.asarray(t, dtype=float)
    if not ((t >= 0.0) & (t < np.inf)).all():
        worst = np.min(t) if not np.min(t) >= 0.0 else np.max(t)
        raise ValueError(f"t must be >= 0 and finite, got {worst}")
    return t


@dataclass(frozen=True)
class TimeGrid:
    """A uniform time grid with ``steps`` intervals from t0 to t1.

    ``times`` has ``steps + 1`` strictly increasing points including both
    endpoints.  Rounding t0 + k dt moves neighbours closer by < 3.5 eps
    max(|t0|, |t1|), so a step dt not above 4 eps max(|t0|, |t1|), or below
    the smallest normal double, is refused before any time exists.
    """

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValueError("grid endpoints must be finite")
        if not self.t1 > self.t0:
            raise ValueError(f"require t1 > t0, got [{self.t0}, {self.t1}]")
        object.__setattr__(self, "steps", positive_count(self.steps, "steps"))
        # span / bound > steps: a huge int ``steps`` is never converted to float
        span, scale = self.t1 - self.t0, max(abs(self.t0), abs(self.t1))
        if not (span < np.inf and span / max(4.0 * _EPS * scale, _TINY) > self.steps):
            raise ValueError(f"{self.steps} steps over [{self.t0}, {self.t1}] are finer than the "
                             f"endpoints resolve: the times would not be strictly increasing")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


@dataclass
class Trajectory:
    """Column-oriented time series, the unit of CSV export.

    ``columns`` maps a column name to an array of the same length as
    ``times``.  Population columns, when both are present, must sum to one
    within 1e-9 at every record.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for name, col in self.columns.items():
            col = np.asarray(col)
            if col.shape != self.times.shape:
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, "
                    f"expected {self.times.shape}"
                )
            self.columns[name] = col
        if "rho00" in self.columns and "rho11" in self.columns:
            drift = np.max(np.abs(self.columns["rho00"] + self.columns["rho11"] - 1.0))
            if drift > ATOL_INTEGRATED:
                raise ValueError(f"populations do not sum to 1 (drift {drift:.3e})")

    def __len__(self) -> int:
        return self.times.size

    @property
    def column_names(self) -> list[str]:
        return ["t", *self.columns.keys()]

    def to_csv(self) -> str:
        """Render as CSV: header row, 17 significant digits, LF line endings.

        17 digits make the float round trip exact, so re-parsing an emitted
        file reproduces the trajectory bit for bit.  The text is made a block
        of rows at a time, each distinct column of a block converted once
        (see :meth:`_csv_blocks`).
        """
        return "".join(self._csv_blocks())

    def _csv_blocks(self):
        """The CSV text in pieces: the header, then blocks of ``_CSV_BLOCK_ROWS`` rows.

        In each block a column whose bits equal an earlier column's reuses
        that column's text (bit equality, so 0.0 and -0.0, or two NaN
        payloads, are never merged), and each distinct column is one ``%``
        over its values: ``%.17g`` and ``{:.17g}`` are the same float
        formatter.  Columns are converted to float as ``numpy.column_stack``
        of them would be.
        """
        yield ",".join(self.column_names) + "\n"
        cols = [c.astype(float, copy=False) for c in (self.times, *self.columns.values())]
        for start in range(0, self.times.size, _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, self.times.size - start)
            fmt = "\n".join(["%.17g"] * rows)
            texts, done = [], {}
            for col in cols:
                block = col[start:start + rows]
                key = block.tobytes()
                if key not in done:
                    done[key] = (fmt % tuple(block.tolist())).split("\n")
                texts.append(done[key])
            yield "\n".join(map(",".join, zip(*texts))) + "\n"

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv` output to ``path`` a block at a time; I/O errors carry the path."""
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(self._csv_blocks())
        except OSError as exc:
            raise OSError(f"cannot write trajectory to {path!r}: {exc}") from exc

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        """Parse a CSV file written by :meth:`write_csv` (first column must be t).

        A file without a header or without a data row is a ValueError naming
        ``path``.
        """
        import io

        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError(f"no CSV {'data row' if lines else 'header'} in {path!r}")
        header = lines[0].split(",")
        if header[0] != "t":
            raise ValueError("first CSV column must be t")
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
        return cls(data[:, 0], {name: data[:, j + 1] for j, name in enumerate(header[1:])})
