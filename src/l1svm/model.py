"""Domain types, seeded instance generation and CSV interchange.

A classification instance is a unit-norm sparse vector a together with m
scaled Gaussian samples x_i = r * xt_i, xt_i ~ N(0, Id), labelled by
y_i = sign(<x_i, a>).  The quantity every solver works with is the averaged
hinge loss f(w) = (1/m) sum_i [1 - y_i <x_i, w>]_+.  The feasible sets it is
minimized over are `geometry.ConstraintSet`.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngSeed",
    "as_generator",
    "SparseClassifier",
    "TrainingSet",
    "benchmark_classifier",
    "make_random_classifier",
    "generate_training_set",
    "hinge_objective",
    "save_training_set",
    "load_training_set",
    "save_classifier",
    "load_classifier",
]

# fixed benchmark classifier: 0-based support positions and raw values,
# normalized below by ||.||_2 = sqrt(2.59)
_BENCH_SUPPORT = (10, 140, 234, 360, 780)
_BENCH_VALUES = (1.0, -1.0, 0.5, -0.5, 0.3)


@dataclass(frozen=True)
class RngSeed:
    """Reproducible stream id: `base` picks the experiment, `stream` the trial."""

    base: int
    stream: int = 0

    def __post_init__(self):
        if self.base < 0 or self.stream < 0:
            raise ValueError("seed components must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.base, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def as_generator(seed) -> np.random.Generator:
    """Accept an RngSeed or a Generator (used as-is)."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    raise TypeError(f"cannot build a generator from {type(seed).__name__}")


@dataclass(frozen=True)
class SparseClassifier:
    """Unit l2-norm vector; its support and sparsity s are read off its nonzero entries."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.ndim != 1:
            raise ValueError("classifier must be a vector")
        if not abs(np.linalg.norm(a) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("classifier must have unit l2 norm")

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.a)

    @property
    def s(self) -> int:
        return int(np.count_nonzero(self.a))

    @property
    def d(self) -> int:
        return self.a.size

    @property
    def l1_norm(self) -> float:
        return float(np.abs(self.a).sum())


@dataclass(frozen=True)
class TrainingSet:
    """Sample matrix with sign labels; any data scale r is already folded into X."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ValueError("X must be an m x d matrix")
        if X.shape[0] < 1:
            raise ValueError("training set has no rows")
        if X.shape[1] < 1:
            raise ValueError("training set has no coordinates: need d >= 1 columns x_1, ..., x_d")
        finite = np.isfinite(X)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValueError(f"non-finite value {X[i, j]} in X at row {i + 1}, column x_{j + 1}")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one label per row")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +1 or -1")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def benchmark_classifier(d: int) -> SparseClassifier:
    """The benchmark classifier at any d; support positions scale with d below 781."""
    support = [p if d > max(_BENCH_SUPPORT) else p * d // 1000 for p in _BENCH_SUPPORT]
    if len(set(support)) != 5:
        raise ValueError(f"d={d} too small to place the 5-entry benchmark support")
    a = np.zeros(d)
    a[support] = _BENCH_VALUES
    a /= np.linalg.norm(a)
    return SparseClassifier(a)


def make_random_classifier(d: int, s: int, seed) -> SparseClassifier:
    """Uniformly random s-subset support, iid Gaussian entries, unit normalized."""
    if not 1 <= s <= d:
        raise ValueError("need 1 <= s <= d")
    rng = as_generator(seed)
    support = np.sort(rng.choice(d, size=s, replace=False))
    vals = rng.standard_normal(s)
    while np.any(vals == 0.0):  # probability-zero guard, so that a has exactly s nonzeros
        vals[vals == 0.0] = rng.standard_normal(np.count_nonzero(vals == 0.0))
    a = np.zeros(d)
    a[support] = vals
    a /= np.linalg.norm(a)
    return SparseClassifier(a)


def generate_training_set(a, m: int, r: float, seed) -> TrainingSet:
    """Draw m rows x_i = r*xt_i with xt_i ~ N(0, Id) and label them by sign(<x_i, a>).

    Rows orthogonal to a (an event of probability zero) are redrawn so every
    label is a genuine sign.  Passing the same RngSeed reproduces X and y
    bit-for-bit.
    """
    vec = a.a if isinstance(a, SparseClassifier) else np.asarray(a, dtype=float)
    if m < 1:
        raise ValueError("need m >= 1")
    rng = as_generator(seed)
    Xt = rng.standard_normal((m, vec.size))
    # the product in Python floats, so that an overflow raises no numpy warning
    if not 0 < r < np.inf or r * float(max(Xt.max(), -Xt.min())) == np.inf:
        raise ValueError(f"r must be positive, finite and small enough for r * x to be finite, got {r}")
    z = Xt @ vec
    while np.any(z == 0.0):
        bad = np.flatnonzero(z == 0.0)
        Xt[bad] = rng.standard_normal((bad.size, vec.size))
        z[bad] = Xt[bad] @ vec
    return TrainingSet(X=r * Xt, y=np.sign(z))


def hinge_objective(w, T: TrainingSet) -> float:
    """Averaged hinge loss (1/m) sum_i [1 - y_i <x_i, w>]_+."""
    w = np.asarray(w, dtype=float)
    if w.shape != (T.d,):
        raise ValueError(f"w has dimension {w.shape}, data has d={T.d}")
    margins = 1.0 - T.y * (T.X @ w)
    return float(np.mean(np.maximum(margins, 0.0)))


# ---------------------------------------------------------------------------
# CSV interchange: the only code that opens, formats or parses a CSV file.  Column
# x_j / row index j are 1-based in files, arrays are 0-based in memory.  Training
# and classifier files use lossless %.17g and CRLF; sweep and bound tables %.10g and LF.

def write_csv(path, header: str, lines, end: str) -> None:
    """Write the header, then each preformatted line, every one ended by `end`."""
    with open(path, "w", newline="") as fh:
        fh.write(header + end)
        for line in lines:
            fh.write(line + end)


def _read_csv(path, name: str, title: str, header_ok):
    """Yield the rows under a header that `header_ok` accepts, each as wide as the header."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None:
            raise ValueError(f"empty {name} CSV")
        if not header_ok(header):
            raise ValueError(f"not a {title} CSV")
        for n, row in enumerate(rd, 1):
            if len(row) != len(header):
                raise ValueError(f"{name} CSV data row {n} has {len(row)} columns, "
                                 f"expected {len(header)}")
            yield row


def save_training_set(T: TrainingSet, path) -> None:
    line = "%d,%d" + ",%.17g" * T.d
    write_csv(path, "i,y," + ",".join(f"x_{j}" for j in range(1, T.d + 1)),
              (line % (i, y, *x.tolist()) for i, (y, x) in enumerate(zip(T.y, T.X), 1)),
              "\r\n")


def load_training_set(path) -> TrainingSet:
    """Read a training CSV."""
    data = _parse_training_fast(path)
    if data is None:  # the row path loads the file or raises today's message for it
        # parsed row by row (column i is not read), so no file-sized list of strings is kept
        rows = [np.array([float(v) for v in row[1:]])
                for row in _read_csv(path, "training", "training-set", _is_training_header)]
        if not rows:
            raise ValueError("empty training CSV")
        data = np.array(rows)
    # contiguous copies: a strided y would take another BLAS path and change the last bits
    return TrainingSet(X=data[:, 1:].copy(), y=data[:, 0].copy())


def _is_training_header(header) -> bool:
    return header[:2] == ["i", "y"]


def _parse_training_fast(path):
    """Columns y, x_1, ... parsed by numpy's C reader, or None where the row path decides.

    None covers every file the row path might read differently: no data row
    (loadtxt would warn), a blank line (loadtxt skips it, the row path rejects
    it), a field padded with ASCII separators 0x1c-0x1f (stripped by loadtxt,
    not by float()), a field over the csv module's size limit, a width other
    than the header's, and anything loadtxt rejects, such as `1_0` or a
    non-numeric i.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        first = next(fh, None)
        if header is None or not _is_training_header(header) or first is None:
            return None
        try:
            data = np.loadtxt(_plain_lines(itertools.chain((first,), fh)), delimiter=",",
                              quotechar='"', comments=None, ndmin=2)
        except ValueError:
            return None
    return data[:, 1:] if data.shape[1] == len(header) else None


def _plain_lines(lines):
    limit = csv.field_size_limit()
    for line in lines:
        if (line.isspace() or any(sep in line for sep in "\x1c\x1d\x1e\x1f")
                or len(line) > limit and max(map(len, line.split(","))) > limit):
            raise ValueError("a line the row path may read differently")
        yield line


def save_classifier(a, path) -> None:
    """Write support entries only, as rows j,a_j with 1-based j."""
    vec = a.a if isinstance(a, SparseClassifier) else np.asarray(a, dtype=float)
    write_csv(path, "j,a_j", ("%d,%.17g" % (j + 1, vec[j]) for j in np.flatnonzero(vec)), "\r\n")


def load_classifier(path, d: int) -> np.ndarray:
    """Read a classifier CSV into a length-d vector; a header-only file is the zero vector."""
    a = np.zeros(d)
    seen = set()
    rows = _read_csv(path, "classifier", "classifier", lambda h: len(h) == 2 and h[0] == "j")
    for n, (j, value) in enumerate(rows, 1):
        j, value = int(j), float(value)
        if not 1 <= j <= d:
            raise ValueError(f"classifier index j = {j} is outside 1..d for d = {d}")
        if j in seen:
            raise ValueError(f"classifier CSV data row {n} repeats index j = {j}")
        if not np.isfinite(value):
            raise ValueError(f"classifier CSV data row {n} has non-finite a_j = {value}")
        seen.add(j)
        a[j - 1] = value
    return a
