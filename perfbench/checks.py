"""Output checks of the benchmark, made apart from the program.

Multiplicities come from a coin-change table written here, not from
`entrocut.spectra`.  Entropies and sums follow from the structure of the
method: the normalized tau state is diagonal in the level basis, with
eigenvalue (1 + S)/c on the vacuum and |f(delta N)|/c on each of the d_N
states of level N >= 1, where S = sum_{N>=1} d_N |f(delta N)| and
c = 1 + 2S.  Window values |f(delta N)| are the only figures taken from the
program, and the CLI checks test those by the properties f must have.

Every check returns a list of problems, empty when the output passes.
"""

from __future__ import annotations

import math

ENTROPY_TOL = 1e-12      # closed form vs dense oracle: agreement seen is ~2e-15
REL_TOL = 1e-12          # sums and identities, relative


def eta(x: float) -> float:
    return -x * math.log(x) if x > 0.0 else 0.0


def partition_counts(n_max: int, smallest_part: int = 1) -> list[int]:
    """Partitions of N = 0..n_max into parts >= smallest_part (coin change)."""
    p = [1] + [0] * n_max
    for part in range(smallest_part, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def model_counts(kind: str, power: int, n_max: int) -> list[int]:
    """d_N of u1 (all partitions) or virasoro (no part 1), tensored `power` times."""
    base = partition_counts(n_max, 1 if kind == "u1" else 2)
    out = base
    for _ in range(power - 1):
        out = [sum(out[k] * base[n - k] for k in range(n + 1)) for n in range(n_max + 1)]
    return out


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def closed_form(dims: list[int], absf: list[float]) -> tuple[float, float, float]:
    """(c_{delta,E}, S_{delta,E}, exact entropy) on levels 0..E from d_N and |f(delta N)|."""
    s = math.fsum(d * a for d, a in zip(dims[1:], absf[1:]))
    c = 1.0 + 2.0 * s                   # weight of the tau ensemble: vacuum 1, level N 2 d_N |f|
    c_de = 2.0 * dims[0] * absf[0] + 2.0 * s
    s_de = math.fsum(4.0 * d * eta(a / 2.0) for d, a in zip(dims[1:], absf[1:]))
    exact = eta((1.0 + s) / c) + math.fsum(d * eta(a / c) for d, a in zip(dims[1:], absf[1:]))
    return c_de, s_de, exact


def check_cutoff_row(dims: list[int], absf: list[float], c_de: float, s_de: float,
                     cap_c: float, cap_s: float, he: float, exact: float,
                     oracle_ok: bool, dim: int | None = None) -> list[str]:
    """One (delta, E) row of the cutoff table against the closed form."""
    want_c, want_s, want_exact = closed_form(dims, absf)
    bad = []
    if dim is not None and dim != sum(dims):
        bad.append(f"oracle dimension {dim} != sum d_N = {sum(dims)}")
    if not _close(c_de, want_c):
        bad.append(f"c_deltaE {c_de!r} != {want_c!r}")
    if not _close(s_de, want_s):
        bad.append(f"S_deltaE {s_de!r} != {want_s!r}")
    if abs(exact - want_exact) > ENTROPY_TOL:
        bad.append(f"oracle entropy {exact!r} != closed form {want_exact!r}")
    if not oracle_ok:
        bad.append("oracle_pass is false")
    if c_de > cap_c:
        bad.append(f"c_deltaE {c_de!r} > C_E {cap_c!r}")
    if s_de > cap_s:
        bad.append(f"S_deltaE {s_de!r} > S_E {cap_s!r}")
    if c_de * exact > he:
        bad.append(f"c_deltaE * S_exact {c_de * exact!r} > HE_bound {he!r}")
    return bad


def check_series(dims: list[int], absf: list[float], c_delta: float, s_delta: float,
                 h_delta: float) -> list[str]:
    """C_delta, S_delta against partial sums over the levels given; H = C log C + S."""
    part_c = math.fsum(2.0 * d * a for d, a in zip(dims, absf))
    part_s = math.fsum(4.0 * d * eta(a / 2.0) for d, a in zip(dims[1:], absf[1:]))
    bad = []
    if not (math.isfinite(c_delta) and math.isfinite(s_delta) and math.isfinite(h_delta)):
        bad.append("non-finite series value")
        return bad
    if c_delta < part_c * (1.0 - REL_TOL):
        bad.append(f"C_delta {c_delta!r} < partial sum {part_c!r} over N <= {len(dims) - 1}")
    if s_delta < part_s * (1.0 - REL_TOL):
        bad.append(f"S_delta {s_delta!r} < partial sum {part_s!r} over N <= {len(dims) - 1}")
    if not _close(h_delta, c_delta * math.log(c_delta) + s_delta):
        bad.append(f"H_delta {h_delta!r} != C log C + S")
    return bad


# --- CLI output ------------------------------------------------------------

def _rows(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if not lines or lines[0] != header:
        return [], [f"header {lines[0] if lines else ''!r} != {header!r}"]
    if lines[-1] != "":
        return [], ["output does not end with a newline"]
    return [ln.split(",") for ln in lines[1:-1]], []


def check_model_csv(text: str, dims: list[int]) -> list[str]:
    rows, bad = _rows(text, "N,d_N")
    if bad:
        return bad
    got = [(int(n), int(d)) for n, d in rows]
    want = list(enumerate(dims))
    return [] if got == want else [f"model rows {got} != {want}"]


def check_energy_csv(text: str, points: int, t_max: float) -> list[str]:
    rows, bad = _rows(text, "t,f,is_envelope")
    if bad:
        return bad
    if len(rows) != points:
        bad.append(f"{len(rows)} rows, expected {points}")
    if rows and rows[0] != ["0.0", "0.5", "0"]:
        bad.append(f"first row {','.join(rows[0])!r} != '0.0,0.5,0'")
    ts = [float(r[0]) for r in rows]
    if ts != sorted(ts) or (ts and ts[-1] != t_max):
        bad.append("t column is not an increasing grid ending at t_max")
    if any(abs(float(r[1])) > 0.5 for r in rows):
        bad.append("|f| exceeds 1/2")
    return bad


def check_bounds_csv(text: str, dims: list[int], window) -> list[str]:
    """Every row against the closed form; window(alpha, delta, n) -> |f(delta N)|, N <= n."""
    rows, bad = _rows(text, "model,alpha,delta,E,c_deltaE,S_deltaE,C_E,S_E,HE_bound,"
                            "oracle_entropy,oracle_pass")
    for r in rows:
        alpha, delta, e = float(r[1]), float(r[2]), int(r[3])
        if r[9] == "":
            bad.append(f"row delta={delta} E={e} has no oracle column")
            continue
        nums = [float(x) for x in r[4:10]]
        bad += [f"delta={delta} E={e}: {p}" for p in check_cutoff_row(
            dims[: e + 1], window(alpha, delta, e), *nums, oracle_ok=r[10] == "1")]
    return bad


def check_trace_csv(text: str) -> list[str]:
    rows, bad = _rows(text, "model,kappa,C,beta,trace,bound,ratio,pass")
    if not rows:
        bad.append("no trace rows")
    for r in rows:
        if not (float(r[4]) <= float(r[5]) and r[7] == "1"):
            bad.append(f"beta={r[3]}: trace {r[4]} vs bound {r[5]}, pass={r[7]}")
    return bad


def check_verify_csv(text: str) -> list[str]:
    rows, bad = _rows(text, "check_name,param_summary,residual_or_gap,pass")
    if not rows:
        bad.append("no verify rows")
    return bad + [f"verify row {','.join(r)!r} failed" for r in rows if r[-1] != "1"]
