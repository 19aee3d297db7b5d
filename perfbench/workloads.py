"""The three workloads: inputs drawn from the seed, one op, and its checks.

Each workload runs in whole rounds.  A round is a fixed list of ops whose
parameters (delta) are drawn fresh from the seeded generator, so window
points are not served from the memo of an earlier round, while the make-up
of a round, and with it the share of failed ops, is the same in every run.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys

from checks import (check_bounds_csv, check_cutoff_row, check_energy_csv, check_model_csv,
                    check_series, check_trace_csv, check_verify_csv, model_counts)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SHIM = os.path.join(HERE, "cli_shim.py")

# (kind, tensor power, largest E whose truncated dimension fits the 400 oracle limit)
ORACLE_MODELS = (("u1", 1, 13), ("virasoro", 1, 18), ("u1", 2, 7))
ORACLE_ALPHAS = (0.75, 0.85)
ORACLE_DELTA = (0.1, 2.0)
SERIES_KINDS = ("u1", "virasoro")
SERIES_ALPHA = 0.75
SERIES_KAPPA = 0.6
SERIES_DELTA = (0.5, 2.0)     # below 0.5 the fixed n_cap of the series raises
SERIES_STRATA = 12            # draws per kind per round, one in each 1/12 of the range
SERIES_CHECK_LEVELS = 200     # partial sums are checked over N <= 200 at most
MODEL_N_MAX = 12              # the CLI's default table length
FIT_N_MAX = 3000              # the CLI's default growth-fit scan
_GOLDEN = (5 ** 0.5 - 1) / 2


class Windows:
    """|f(delta N)| for N = 0..n from windows built once per alpha, for the checks."""

    def __init__(self, ec, built: dict) -> None:
        self.ec = ec
        self.built = built

    def __call__(self, alpha: float, delta: float, n: int) -> list[float]:
        ef = self.built.get(alpha)
        if ef is None:
            ef = self.built[alpha] = self.ec.build_energy_function(alpha)
        return [abs(float(v)) for v in self.ec.eval_f_many(ef, [delta * k for k in range(n + 1)])]


class Counts:
    """The benchmark's own d_N tables, grown on demand."""

    def __init__(self) -> None:
        self.tables: dict = {}

    def __call__(self, kind: str, power: int, n: int) -> list[int]:
        table = self.tables.get((kind, power))
        if table is None or len(table) <= n:
            table = self.tables[(kind, power)] = model_counts(kind, power, n)
        return table[: n + 1]


class _InProcess:
    """Ops are calls into the program, made in the benchmark process."""

    entry = "entrocut"          # module the set-up imports
    in_process = True

    def failed(self, op: tuple, out) -> str | None:
        return None             # an op fails only by raising

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OracleSweep(_InProcess):
    """Certified cutoff table with its exact oracle, one (model, alpha, delta) block per op."""

    def prepare(self, ec) -> None:
        self.ec = ec
        self.windows = {a: ec.build_energy_function(a) for a in ORACLE_ALPHAS}

    def round(self, rng) -> list[tuple]:
        return [(kind, power, e_max, alpha, rng.uniform(*ORACLE_DELTA))
                for kind, power, e_max in ORACLE_MODELS for alpha in ORACLE_ALPHAS]

    def run_op(self, op: tuple) -> list[tuple]:
        kind, power, e_max, alpha, delta = op
        ec, ef = self.ec, self.windows[alpha]
        model = ec.model_dims(kind, MODEL_N_MAX, power=power)
        if model.n_max < e_max:
            model = ec.extend_model(model, e_max)
        rows = []
        for e in range(e_max + 1):
            rep = ec.cutoff_bound(model, ef, delta, e)
            oc = ec.oracle_vs_bounds(ec.build_truncated_space(model, e, dim_limit=400), ef, delta)
            rows.append((rep.c_deltaE, rep.S_deltaE, rep.C_E, rep.S_E, rep.HE_bound,
                         oc.exact_entropy, oc.ok, oc.dim))
        return rows

    def check(self, op: tuple, rows: list[tuple], counts: Counts, window: Windows) -> list[str]:
        kind, power, e_max, alpha, delta = op
        dims = counts(kind, power, e_max)
        absf = window(alpha, delta, e_max)
        bad = []
        for e, (c_de, s_de, cap_c, cap_s, he, exact, ok, dim) in enumerate(rows):
            bad += [f"{kind}^{power} alpha={alpha} delta={delta!r} E={e}: {p}"
                    for p in check_cutoff_row(dims[: e + 1], absf[: e + 1], c_de, s_de,
                                              cap_c, cap_s, he, exact, ok, dim)]
        return bad


class SeriesSweep(_InProcess):
    """Distance-regularized sums C_delta, S_delta, each op from a 12-entry model."""

    def __init__(self) -> None:
        self._offsets: list[float] | None = None

    def prepare(self, ec) -> None:
        self.ec = ec
        self.windows = {SERIES_ALPHA: ec.build_energy_function(SERIES_ALPHA)}
        self.fits = {}
        for kind in SERIES_KINDS:
            scan = ec.extend_model(ec.model_dims(kind, MODEL_N_MAX), FIT_N_MAX)
            self.fits[kind] = ec.fit_growth_constants(scan, SERIES_KAPPA, n_max=FIT_N_MAX)

    def round(self, rng) -> list[tuple]:
        # One delta in each stratum of the range, at a seeded offset that turns
        # by the golden ratio from round to round: every round gets fresh
        # deltas, and over a run each stratum is covered evenly, so the share
        # of costly small deltas (op cost jumps with delta) barely varies by seed.
        if self._offsets is None:
            self._offsets = [rng.random() for _ in range(SERIES_STRATA * len(SERIES_KINDS))]
        lo, hi = SERIES_DELTA
        width = (hi - lo) / SERIES_STRATA
        self._offsets = [(u + _GOLDEN) % 1.0 for u in self._offsets]
        return [(kind, lo + width * (i + self._offsets[i * len(SERIES_KINDS) + k]))
                for i in range(SERIES_STRATA) for k, kind in enumerate(SERIES_KINDS)]

    def run_op(self, op: tuple) -> tuple:
        kind, delta = op
        ec = self.ec
        rep = ec.distance_regularized_bound(ec.model_dims(kind, MODEL_N_MAX),
                                            self.windows[SERIES_ALPHA], delta,
                                            ec.TailConfig(fit=self.fits[kind]))
        return rep.C_delta, rep.S_delta, rep.H_delta_bound

    def check(self, op: tuple, out: tuple, counts: Counts, window: Windows) -> list[str]:
        kind, delta = op
        # levels inside the quadrature range, at most SERIES_CHECK_LEVELS of them
        n = min(int(self.windows[SERIES_ALPHA].quad.t_cap / delta), SERIES_CHECK_LEVELS)
        return [f"{kind} delta={delta!r}: {p}"
                for p in check_series(counts(kind, 1, n), window(SERIES_ALPHA, delta, n), *out)]


CLI_CYCLE = (
    ("model",),
    ("energy-function", "--t-max", "250", "--points", "401"),
    ("bounds", "--E", ",".join(str(e) for e in range(14))),
    ("bounds", "--power", "2", "--alpha", "0.85", "--kappa", "0.7"),
    ("trace", "--model", "virasoro"),
    ("trace", "--model", "u1", "--kappa", "0.6", "--beta", "0.05"),
    ("verify",),
)
# ends in an OverflowError traceback today (TraceBoundConstants.bound is not
# computed in log space); counted as failed until the program mends it
CLI_KNOWN_FAILING = 5
_ENTRY_POINT = "import sys; from entrocut.cli import main; sys.exit(main())"


class CliCold:
    """Real CLI invocations, each in a fresh process, one at a time, in whole cycles."""

    entry = "entrocut.cli"
    in_process = False

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.first: dict[int, bytes] = {}
        self.max_rss_kb = 0
        self.processes: list[list[tuple]] = []     # span lists of traced children

    def prepare(self, ec) -> None:
        self.windows: dict = {}       # built by the checks, after the timed runs

    def round(self, rng) -> list[int]:
        return list(range(len(CLI_CYCLE)))

    def run_op(self, i: int) -> tuple[int, bytes, bytes]:
        spans = os.path.join(OUT, "cli-spans.jsonl")
        head = [SHIM, spans] if self.trace else ["-c", _ENTRY_POINT]
        with open(os.path.join(OUT, "cli-stdout"), "w+b") as fo, \
                open(os.path.join(OUT, "cli-stderr"), "w+b") as fe:
            proc = subprocess.Popen([sys.executable, *head, *CLI_CYCLE[i]],
                                    stdout=fo, stderr=fe, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            fo.seek(0)
            fe.seek(0)
            out, err = fo.read(), fe.read()
        if self.trace:
            from tracer import read_spans
            self.processes.append(read_spans(spans))
            os.remove(spans)
        return proc.returncode, out, err

    def failed(self, i: int, out: tuple) -> str | None:
        """Why the process did not end as the CLI promises, or None."""
        rc, _, err = out
        if i == CLI_KNOWN_FAILING:
            ok = rc == 0 or (rc == 3 and b"entrocut: divergence:" in err)
        else:
            ok = rc == 0
        if ok and b"Traceback" not in err:
            return None
        last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"exit {rc}: {last[0][:200]}"

    def check(self, i: int, out: tuple, counts: Counts, window: Windows) -> list[str]:
        rc, stdout, _ = out
        argv = " ".join(CLI_CYCLE[i])
        bad = []
        if stdout != self.first.setdefault(i, stdout):
            bad.append("prints other bytes than on the first cycle")
        text = stdout.decode("utf-8")
        cmd = CLI_CYCLE[i][0]
        if cmd == "model":
            bad += check_model_csv(text, counts("u1", 1, MODEL_N_MAX))
        elif cmd == "energy-function":
            bad += check_energy_csv(text, 401, 250.0)
        elif cmd == "bounds":
            power = 2 if "--power" in CLI_CYCLE[i] else 1
            bad += check_bounds_csv(text, counts("u1", power, 13), window)
        elif cmd == "trace" and rc == 0:
            bad += check_trace_csv(text)
        elif cmd == "verify":
            bad += check_verify_csv(text)
        return [f"entrocut {argv}: {p}" for p in bad]

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


def make(name: str, trace: bool):
    if name == "oracle_sweep":
        return OracleSweep()
    if name == "series_sweep":
        return SeriesSweep()
    if name == "cli_cold":
        return CliCold(trace)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oracle_sweep", "series_sweep", "cli_cold")
