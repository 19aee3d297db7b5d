"""Eigenvalue multiplicity models for nonnegative integer spectra.

A spectrum model lists the multiplicity d_N of each integer eigenvalue N of a
nonnegative Hamiltonian with a unique ground state (d_0 = 1).  Built-in kinds:

``u1``
    d_N = p(N), the number of integer partitions of N.
``virasoro``
    d_N = number of partitions of N with no part equal to 1, which equals
    p(N) - p(N-1) for N >= 1.  Dimension sequence 1, 0, 1, 1, 2, 2, 4, ...
``tensor power``
    m-fold convolution of a base sequence (independent copies of the model).
``custom``
    read from a text file of "N d_N" lines.

Built-in tables are shared.  Each built-in (kind, power) has one exact
table in this module, and a growth only appends to it: u1^m continues
J. C. P. Miller's power recurrence over Euler's pentagonal series from the
last entry it holds (at m = 1 Euler's recurrence for the partition numbers
p(N)), and virasoro^m = (1 - q)^m u1^m appends signed binomial sums of the
u1^m column, grown first.  Next to the integer d_N the table keeps
log d_N (-inf where d_N = 0) as one read-only float64 numpy column, taken
once per entry by math.log on the exact int, so no caller takes logs of
huge integers one element at a time and the distance series reads its
blocks as array slices.  The column is taken on the first log read, and on
a later read it catches up with the entries appended since, so numpy is
imported only by a log read: a run that reads d_N alone, such as the
`model` command, never loads it.  The column is never resized in place: a
catch-up publishes a longer array, so a slice a reader holds stays valid.
`model_dims` hands out a fresh copy of the integers (callers may mutate
it); the model's first log read takes a reference to the shared log
column.  Custom (file) models are not cached.

The tensor power of a custom file is exact big-integer arithmetic
(Kronecker substitution): the file's column is packed into a single int
with one wide slot per coefficient, raised to the m-th power by repeated
squaring modulo the slots beyond N, and unpacked.  The slots are wide
enough that no coefficient carries into the next, so the result is exactly
the truncated m-fold convolution.  A dense file's power costs less this way
than by a recurrence, whose cost grows with the file's nonzero levels; no
built-in table takes this route.

A model answers for every N >= 0.  Up to its n_max it reads its own dims,
so a model built by hand keeps its data.  Past n_max a built-in reads the
shared table of its (kind, power), grown to the top of the requested range
in one call, and a custom model reads 0 (log -inf): its support ends with
its file.  So no caller has to extend a model before reading it.

Thread rule: every growth of a shared table, and every catch-up of its log
column, happens under one module lock, so concurrent callers see the tables
as if they were grown one after the other.  A read past a model's n_max goes
through that lock, as does a model's first log read; entries are only ever
appended, and a longer log column replaces the old one whole, so any other
read up to n_max needs none.

Memory: a list of n levels needs at least 8 bytes a slot, the ints d_N of
u1^m at least the bytes of C(m + N - 1, N), and a custom file's tensor
power packs its whole column into one int.  Before any of them is
allocated that lower bound is compared with the machine's physical memory,
and MemoryError is raised at once instead of after the allocation has taken
what there is.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import SpectrumFileError

if TYPE_CHECKING:                  # numpy is imported by the first log read
    import numpy as np

_BUILTIN_KINDS = ("u1", "virasoro")


def _log_or_neginf(d: int) -> float:
    return math.log(d) if d > 0 else -math.inf


def _logs_of(dims: list[int]) -> np.ndarray:
    """[log d for d in dims] as a read-only float64 array, each entry math.log's bits."""
    import numpy as np

    column = np.array([_log_or_neginf(d) for d in dims], dtype=float)
    column.flags.writeable = False
    return column


def _memory_bytes() -> int:
    """The machine's physical memory in bytes (sys.maxsize where the platform
    does not report it)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):     # no sysconf, or no such name
        return sys.maxsize


def _refuse_past_memory(nbytes: int, what: str) -> None:
    """Raise MemoryError when nbytes, a lower bound on what `what` needs,
    passes the machine's physical memory."""
    held = _memory_bytes()
    if nbytes > held:
        raise MemoryError(f"{what} needs at least {nbytes} bytes, more than the "
                          f"{held} of physical memory")


@dataclass
class _Table:
    """Exact d_N for N = 0..len(dims)-1, and their logs for the entries up
    to the last log read (None before the first)."""

    dims: list[int] = field(default_factory=lambda: [1])
    logs: np.ndarray | None = None


# one table per built-in (kind, power); entries are appended, never changed
_TABLES: dict[tuple[str, int], _Table] = {}
_TABLES_LOCK = threading.Lock()


def _extend_u1_power(w: list[int], m: int, n_max: int) -> None:
    """Append d_len(w), ..., d_n_max of u1^m to w, the coefficients of
    E(q)^-m, where E(q) = prod_n (1 - q^n) = sum_k (-1)^k q^{k(3k-1)/2}
    (Euler's pentagonal theorem, k over all integers).

    J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) for
    W = E^-m reads w_N = t1 + (m - 1) t2 / N, with t1 = sum_g s_g w_{N-g}
    and t2 = sum_g s_g g w_{N-g} over the generalized pentagonal offsets
    g <= N: s_g = +1 for odd k (1, 2, 12, 15, ...) and -1 for even k
    (5, 7, 22, 26, ...).  w_N and t1 are ints, so the division is exact.
    At m = 1 it is Euler's recurrence for the partition numbers, and t2 is
    not taken.  Each offset list ascends, so a sum stops at its first
    offset past N.
    """
    plus: list[int] = []
    minus: list[int] = []
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        (plus if k % 2 else minus).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        k += 1
    if m == 1:
        for n in range(len(w), n_max + 1):
            total = 0
            for g in plus:
                if g > n:
                    break
                total += w[n - g]
            for g in minus:
                if g > n:
                    break
                total -= w[n - g]
            w.append(total)
        return
    for n in range(len(w), n_max + 1):
        t1 = t2 = 0
        for g in plus:
            if g > n:
                break
            d = w[n - g]
            t1 += d
            t2 += g * d
        for g in minus:
            if g > n:
                break
            d = w[n - g]
            t1 -= d
            t2 -= g * d
        w.append(t1 + (m - 1) * t2 // n)


def _extend_virasoro_power(v: list[int], u: list[int], m: int, n_max: int) -> None:
    """Append d_len(v), ..., d_n_max of virasoro^m to v, read from the u1^m
    column u (at least n_max + 1 entries): virasoro^m = (1 - q)^m u1^m, so
    d_N = sum_j (-1)^j C(m, j) u_{N-j}, summed one j at a time over the new
    entries."""
    have = len(v)
    new = u[have: n_max + 1]
    for j in range(1, min(m, n_max) + 1):
        c = (-1) ** j * math.comb(m, j)
        shifted = [0] * max(j - have, 0) + u[max(have - j, 0): n_max + 1 - j]
        new = [d + c * e for d, e in zip(new, shifted)]
    v.extend(new)


def _u1_power_bytes(m: int, lo: int, hi: int) -> int:
    """A lower bound on the bytes of the ints d_lo, ..., d_hi of u1^m, for
    1 <= lo <= hi.

    d_N >= C(m + N - 1, N), the m-tuples of partitions into parts 1 alone,
    and C(m + N - 1, N) = prod_{i=1}^{N} (m - 1 + i)/i >= ((m + N - 1)/N)^N,
    whose log N log(1 + (m - 1)/N) grows with N.  So cut into 64 runs, the
    range holds at least each run's count times that log at its first N.
    """
    step = -(-(hi + 1 - lo) // 64)
    nats = sum(min(step, hi + 1 - n) * n * (math.log(m + n - 1) - math.log(n))
               for n in range(lo, hi + 1, step))
    return int(nats / math.log(256))


def _grow(kind: str, power: int, n_max: int) -> _Table:
    # caller holds _TABLES_LOCK
    table = _TABLES.get((kind, power))
    if table is None:
        table = _TABLES[(kind, power)] = _Table()
    have = len(table.dims)           # >= 1: a table starts with d_0
    if have <= n_max:
        what = f"the {kind}^{power} table to N = {n_max}"
        if kind == "u1":
            _refuse_past_memory(8 * (n_max + 1 - have) + _u1_power_bytes(power, have, n_max), what)
            _extend_u1_power(table.dims, power, n_max)
        else:
            _refuse_past_memory(8 * (n_max + 1 - have), what)
            _extend_virasoro_power(table.dims, _grow("u1", power, n_max).dims, power, n_max)
    return table


def _table(kind: str, power: int, n_max: int) -> _Table:
    """The shared table of a built-in (kind, power), holding at least N = 0..n_max."""
    with _TABLES_LOCK:
        return _grow(kind, power, n_max)


def _table_logs(kind: str, power: int, n_max: int) -> np.ndarray:
    """The log column of the shared table of (kind, power), holding at least
    N = 0..n_max: it catches up with whatever the integer column holds, in a
    new array, so slices readers took of the old one stay valid."""
    with _TABLES_LOCK:
        table = _grow(kind, power, n_max)
        if table.logs is None:
            table.logs = _logs_of(table.dims)
        elif len(table.logs) < len(table.dims):
            import numpy as np

            fresh = _logs_of(table.dims[len(table.logs):])
            table.logs = np.concatenate((table.logs, fresh))
            table.logs.flags.writeable = False
        return table.logs


@dataclass
class SpectrumModel:
    """Multiplicity sequence d_N, tabulated in dims for N = 0..n_max (dims[0] == 1)
    and read for every N >= 0 through `dims_upto` and `log_dims`."""

    kind: str                      # "u1" | "virasoro" | "custom"
    dims: list[int]
    power: int = 1                 # tensor power applied on top of `kind`
    label: str = ""
    # log d_N for N >= 0, taken on the first log read and possibly longer than
    # dims: the shared column of the built-in table where model_dims made the
    # model (_shared), else taken from dims
    _logs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _shared: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _BUILTIN_KINDS + ("custom",):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.dims:
            raise ValueError("dims must be nonempty")
        if self.dims[0] != 1:
            raise ValueError(f"dims[0] must be 1 (unique ground state), got {self.dims[0]}")
        if any(d < 0 for d in self.dims):
            raise ValueError("multiplicities must be nonnegative")
        if not self.label:
            self.label = self.kind if self.power == 1 else f"{self.kind}^{self.power}"

    @property
    def n_max(self) -> int:
        return len(self.dims) - 1

    def _past(self, lo: int, hi: int, logs: bool) -> list | np.ndarray:
        """Entries lo..hi (all past n_max) of d_N as a list, or of log d_N as
        an array: zero past a custom file, else read from the shared table
        grown to hi in one call."""
        if self.kind == "custom":
            size = max(hi - lo + 1, 0)
            _refuse_past_memory(8 * size, f"a list of {size} levels")
            if logs:
                import numpy as np

                return np.full(size, -np.inf)
            return [0] * size
        if logs:
            return _table_logs(self.kind, self.power, hi)[lo: hi + 1]
        return _table(self.kind, self.power, hi).dims[lo: hi + 1]

    def dims_upto(self, hi: int) -> list[int]:
        """[d_0, ..., d_hi] as a fresh list, for any hi >= 0."""
        if hi < 0:
            raise ValueError("hi must be >= 0")
        if hi <= self.n_max:
            return self.dims[: hi + 1]
        return self.dims + self._past(self.n_max + 1, hi, logs=False)

    def log_dims(self, lo: int, hi: int) -> np.ndarray:
        """[log d_lo, ..., log d_hi] as a float64 array, -inf where d_N = 0,
        for any lo, hi >= 0: a read-only view of the shared column where the
        range lies past n_max or the model holds that column."""
        if lo < 0:
            raise ValueError("lo must be >= 0")
        if hi < 0:
            raise ValueError("hi must be >= 0")
        if lo > self.n_max:
            return self._past(lo, hi, logs=True)
        if self._logs is None:
            self._logs = (_table_logs(self.kind, self.power, self.n_max) if self._shared
                          else _logs_of(self.dims))
        own = self._logs[lo: min(hi, self.n_max) + 1]
        if hi <= self.n_max:
            return own
        import numpy as np

        return np.concatenate((own, self._past(self.n_max + 1, hi, logs=True)))


def _convolve_power(base: list[int], m: int) -> list[int]:
    """m-fold convolution of base truncated to len(base), in exact ints.

    Kronecker substitution: base is packed into one int, slot i holding
    base[i].  A truncated m-fold coefficient is at most
    len(base)^(m-1) max(base)^m, so a slot of
    m (bitlen(max(base)) + bitlen(len(base))) bits, rounded up to whole
    bytes, holds it without carrying into the next; the j-fold coefficients
    of a smaller power j obey the same bound.  The power is taken by
    repeated squaring, floor(log2 m) squarings and popcount(m) - 1 products,
    each cut to the slots below len(base).  Only a custom file's tensor
    power takes this route.
    """
    size = len(base)
    slot = (m * (max(base).bit_length() + size.bit_length()) + 7) // 8
    width = size * slot
    _refuse_past_memory(width, f"tensor power {m} of {size} levels")
    packed = int.from_bytes(b"".join(d.to_bytes(slot, "little") for d in base), "little")
    mask = (1 << (8 * width)) - 1
    out = None
    square = packed
    while True:
        if m & 1:
            out = square if out is None else (out * square) & mask
        m >>= 1
        if not m:
            break
        square = (square * square) & mask
    raw = out.to_bytes(width, "little")
    return [int.from_bytes(raw[i: i + slot], "little") for i in range(0, width, slot)]


def model_dims(kind: str, n_max: int, power: int = 1, path: str | None = None) -> SpectrumModel:
    """Build a spectrum model of the given kind up to eigenvalue n_max.

    Built-in kinds read (and grow) the shared table of (kind, power); the
    model gets a fresh copy of its dims.

    Parameters
    ----------
    kind : "u1", "virasoro", or "custom"
    n_max : largest eigenvalue to tabulate (a custom file may end earlier,
        its power-th tensor power at power times the file's last N)
    power : tensor power >= 1 (independent copies; multiplicities convolve)
    path : required for kind="custom"
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if power < 1:
        raise ValueError("power must be >= 1")
    if kind in _BUILTIN_KINDS:
        table = _table(kind, power, n_max)
        model = SpectrumModel(kind=kind, dims=table.dims[: n_max + 1], power=power)
        model._shared = True
        return model
    if kind != "custom":
        raise ValueError(f"unknown model kind {kind!r}")
    if path is None:
        raise ValueError("custom models need a file path")
    dims = parse_spectrum_file(path)[: n_max + 1]
    if power > 1:
        # the power's support runs to power * N_last: pad so no level is cut
        top = min(n_max, power * (len(dims) - 1))
        _refuse_past_memory(8 * (top + 1), f"tensor power {power} to N = {top}")
        dims = _convolve_power(dims + [0] * (top + 1 - len(dims)), power)
        try:
            float(sum(dims))
        except OverflowError:
            raise SpectrumFileError(
                f"{path}: the sum of d_N of tensor power {power} passes the float limit "
                f"{sys.float_info.max:.6e}") from None
    return SpectrumModel(kind=kind, dims=dims, power=power)


def extend_model(model: SpectrumModel, n_max: int) -> SpectrumModel:
    """Return a model of the same kind whose `dims` list runs at least to n_max.

    Reading a model needs no extension (its accessors answer for every N);
    this is for callers that want the longer list itself.  Custom models are
    finitely supported and are returned unchanged.
    """
    if model.n_max >= n_max or model.kind == "custom":
        return model
    return model_dims(model.kind, n_max, power=model.power)


def parse_spectrum_file(path: str) -> list[int]:
    """Parse "N d_N" lines into a dense multiplicity list.

    Rules: UTF-8 text, '#' starts a comment, blank lines ignored, N strictly
    increasing, missing N filled with d_N = 0, dims[0] must be 1, and the
    sum of the d_N must convert to a float (the bounds sum d_N |f(delta N)|
    and d_N in floats).  Any violation raises SpectrumFileError naming the
    line, as does a last N past the levels memory can list.
    """
    entries: list[tuple[int, int]] = []
    total = 0
    try:
        # undecodable bytes are kept as surrogates, so the line that holds them is known
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise SpectrumFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise SpectrumFileError(f"{path} is not UTF-8 text", line_no) from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SpectrumFileError(f"expected 'N d_N', got {raw.strip()!r}", line_no)
            try:
                n, d = int(parts[0], 10), int(parts[1], 10)
            except ValueError:
                raise SpectrumFileError(f"non-integer field in {raw.strip()!r}", line_no) from None
            if n < 0 or d < 0:
                raise SpectrumFileError("N and d_N must be nonnegative", line_no)
            total += d
            try:
                float(total)
            except OverflowError:
                raise SpectrumFileError(
                    f"d_N ({len(str(d))} digits) brings the sum of d_N past the float "
                    f"limit {sys.float_info.max:.6e}", line_no) from None
            if entries and n <= entries[-1][0]:
                raise SpectrumFileError(
                    f"N must be strictly increasing (got {n} after {entries[-1][0]})", line_no
                )
            entries.append((n, d))
            top_line = line_no
    if not entries:
        raise SpectrumFileError("no spectrum rows found")
    top = entries[-1][0]
    try:
        _refuse_past_memory(8 * (top + 1), f"a list to N = {top}")
        dims = [0] * (top + 1)
    except MemoryError:
        raise SpectrumFileError(
            f"N = {top} is more levels than memory holds", top_line) from None
    for n, d in entries:
        dims[n] = d
    if dims[0] != 1:
        raise SpectrumFileError(f"d_0 must be 1 (unique ground state), got {dims[0]}")
    return dims


@dataclass(frozen=True)
class GrowthFit:
    """Constant C with d_N <= C * exp(N^kappa) for every N >= 0."""

    kappa: float
    log_C: float

    @property
    def C(self) -> float:
        """e^{log C}, or inf where that leaves the float range."""
        try:
            return math.exp(self.log_C)
        except OverflowError:
            return math.inf


def fit_growth_constants(model: SpectrumModel, kappa: float, n_max: int | None = None) -> GrowthFit:
    """C with d_N <= C e^{N^kappa} for every N (n_max is not read): log C
    is the larger of the maximum of log d_N - N^kappa over the model's own
    levels (a custom file's whole support) and, for a built-in, a bound for
    every N.  The partition lemma log Z <= b/beta (`log_trace_coefficient`)
    and Z >= d_N e^{-beta N} give log d_N <= 2 sqrt(b N) at beta = sqrt(b/N),
    and for kappa > 1/2, 2 sqrt(b x) - x^kappa peaks at
    (2 kappa - 1) (sqrt(b)/kappa)^{2 kappa/(2 kappa - 1)}, raised by 2^-40
    for its rounding (the power's exponent is under about 760 wherever it is
    a float) and inf past the float range.  For kappa <= 1/2 no C exists.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    best = -math.inf
    if model.kind != "custom":
        if kappa <= 0.5:
            raise ValueError(f"kappa = {kappa:g} is at or below 1/2, where no constant C "
                             f"gives d_N <= C e^(N^kappa) for {model.label}")
        root_b, e = math.sqrt(log_trace_coefficient(model)), 2.0 * kappa / (2.0 * kappa - 1.0)
        try:
            best = (1.0 + 2.0**-40) * (2.0 * kappa - 1.0) * (root_b / kappa) ** e
        except OverflowError:
            best = math.inf
    for n, ld in enumerate(model.log_dims(0, model.n_max).tolist()):
        if ld != -math.inf:
            best = max(best, ld - float(n) ** kappa)
    return GrowthFit(kappa=kappa, log_C=best)


def log_trace_coefficient(model: SpectrumModel) -> float:
    """b = m pi^2/6, so that log Tr e^{-beta L0} <= b/beta for every beta > 0,
    for a built-in u1^m or virasoro^m (the partition lemma).

    Proof, with q = e^{-beta}: Tr e^{-beta L0} for u1 is prod_{n>=1} (1-q^n)^{-1},
    and -log(1-x) = sum_k x^k/k gives log prod_n (1-q^n)^{-1} = sum_k q^k/(k(1-q^k))
    = sum_k 1/(k(e^{beta k}-1)) <= sum_k 1/(beta k^2) = pi^2/(6 beta), by e^x - 1 >= x.
    The m-th power multiplies the log by m.  A virasoro level is a partition
    with no part 1, so d_N^vir <= p(N) termwise, and its powers' d_N are at
    most u1^m's.  A custom spectrum has no such bound.
    """
    if model.kind == "custom":
        raise ValueError("the partition lemma bounds built-in spectra only")
    return model.power * math.pi ** 2 / 6.0
