"""The benchmark's checks reject perturbed outputs.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench/test_checks.py)

Needs no part of the program: the inputs are built from the checks' own
closed forms and tables, then one value at a time is perturbed.
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (check_bounds_csv, check_cutoff_row, check_energy_csv,  # noqa: E402
                    check_model_csv, check_series, check_trace_csv, check_verify_csv,
                    closed_form, model_counts, partition_counts)

# a window-like |f(delta N)|: f(0) = 1/2, decaying
ABSF = [0.5] + [0.5 * math.exp(-0.7 * n ** 0.875) for n in range(1, 14)]
DIMS = model_counts("u1", 1, 13)


def _row(dims, absf):
    c_de, s_de, exact = closed_form(dims, absf)
    cap_c, cap_s = 2.0 * 0.5 * sum(dims), 4.0 * 0.25 * math.log(4.0) * sum(dims[1:])
    he = cap_c * math.log(cap_c) + cap_s
    return [c_de, s_de, cap_c, cap_s, he, exact]


def test_tables_match_known_counts():
    assert partition_counts(13) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101]
    assert model_counts("virasoro", 1, 8) == [1, 0, 1, 1, 2, 2, 4, 4, 7]
    assert model_counts("u1", 2, 5) == [1, 2, 5, 10, 20, 36]
    assert sum(model_counts("u1", 1, 13)) == 373 and sum(model_counts("u1", 2, 7)) == 249
    assert sum(model_counts("virasoro", 1, 18)) == 385


def test_cutoff_row_accepts_closed_form():
    assert check_cutoff_row(DIMS, ABSF, *_row(DIMS, ABSF), oracle_ok=True, dim=373) == []


def test_cutoff_row_rejects_shifted_entropy():
    row = _row(DIMS, ABSF)
    row[5] += 1e-10
    assert any("oracle entropy" in p for p in check_cutoff_row(DIMS, ABSF, *row, oracle_ok=True))


def test_cutoff_row_rejects_wrong_multiplicity():
    wrong = DIMS[:]
    wrong[7] += 1
    problems = check_cutoff_row(wrong, ABSF, *_row(DIMS, ABSF), oracle_ok=True, dim=373)
    assert any("c_deltaE" in p for p in problems)
    assert any("dimension" in p for p in problems)


def test_cutoff_row_rejects_broken_chain_and_failed_oracle():
    row = _row(DIMS, ABSF)
    row[4] = row[0] * row[5] * (1.0 - 1e-9)            # HE_bound just below c * S_exact
    assert any("HE_bound" in p for p in check_cutoff_row(DIMS, ABSF, *row, oracle_ok=True))
    assert any("oracle_pass" in p for p in check_cutoff_row(DIMS, ABSF, *_row(DIMS, ABSF),
                                                            oracle_ok=False))
    row = _row(DIMS, ABSF)
    row[2] = row[0] * (1.0 - 1e-9)                      # C_E below c_deltaE
    assert any("C_E" in p for p in check_cutoff_row(DIMS, ABSF, *row, oracle_ok=True))


def test_series_rejects_sum_below_partial_and_bad_entropy_cap():
    c, s = 2.0 * sum(d * a for d, a in zip(DIMS, ABSF)), 1.0
    s = 4.0 * sum(d * (-(a / 2) * math.log(a / 2)) for d, a in zip(DIMS[1:], ABSF[1:]))
    h = c * math.log(c) + s
    assert check_series(DIMS, ABSF, c, s, h) == []
    assert check_series(DIMS, ABSF, c * (1 - 1e-9), s, h)
    assert check_series(DIMS, ABSF, c, s * (1 - 1e-9), h)
    assert check_series(DIMS, ABSF, c, s, h * (1 + 1e-9))
    wrong = DIMS[:]
    wrong[3] += 1
    assert check_series(wrong, ABSF, c, s, h)


def _bounds_csv(dims, absf):
    lines = ["model,alpha,delta,E,c_deltaE,S_deltaE,C_E,S_E,HE_bound,oracle_entropy,oracle_pass"]
    for e in range(len(dims)):
        row = _row(dims[: e + 1], absf[: e + 1])
        lines.append(",".join(["u1", "0.75", "0.5", str(e)] + [repr(v) for v in row] + ["1"]))
    return "\n".join(lines) + "\n"


def test_bounds_csv_rejects_a_changed_byte():
    window = lambda alpha, delta, n: ABSF[: n + 1]     # noqa: E731
    text = _bounds_csv(DIMS, ABSF)
    assert check_bounds_csv(text, DIMS, window) == []
    head, entropy, tail = text.rstrip("\n").rsplit(",", 2)
    # one byte of the last oracle entropy, at the 1e-6 place; a change below the
    # 1e-12 tolerance is left to the byte-for-byte comparison across cycles
    i = entropy.index(".") + 6
    entropy = entropy[:i] + str((int(entropy[i]) + 5) % 10) + entropy[i + 1:]
    assert check_bounds_csv(f"{head},{entropy},{tail}\n", DIMS, window)
    assert check_bounds_csv(text.replace(",1\n", ",0\n", 1), DIMS, window)


def test_model_energy_trace_verify_csv():
    model = "N,d_N\n" + "".join(f"{n},{d}\n" for n, d in enumerate(DIMS[:13]))
    assert check_model_csv(model, DIMS[:13]) == []
    assert check_model_csv(model.replace("\n7,15\n", "\n7,16\n"), DIMS[:13])

    energy = "t,f,is_envelope\n0.0,0.5,0\n0.625,0.3451433133014494,0\n1.25,0.1,0\n"
    assert check_energy_csv(energy, 3, 1.25) == []
    assert check_energy_csv(energy.replace("0.0,0.5,0", "0.0,0.49999999999999994,0"), 3, 1.25)
    assert check_energy_csv(energy.replace("1.25,0.1", "1.25,0.6"), 3, 1.25)

    trace = ("model,kappa,C,beta,trace,bound,ratio,pass\n"
             "virasoro,0.6,477.5,0.5,2.9,295984.3,1e-05,1\n")
    assert check_trace_csv(trace) == []
    assert check_trace_csv(trace.replace("2.9,", "3e6,"))

    verify = "check_name,param_summary,residual_or_gap,pass\npolarization,seed=7,1e-16,1\n"
    assert check_verify_csv(verify) == []
    assert check_verify_csv(verify[:-2] + "0\n")


def test_cli_output_must_repeat_byte_for_byte():
    from workloads import MODEL_N_MAX, CliCold, Counts
    model = "N,d_N\n" + "".join(f"{n},{d}\n" for n, d in enumerate(DIMS[: MODEL_N_MAX + 1]))
    cli = CliCold(trace=False)
    assert cli.check(0, (0, model.encode(), b""), Counts(), None) == []
    assert cli.check(0, (0, model.encode(), b""), Counts(), None) == []
    changed = model.replace("\n12,77\n", "\n12,77 \n").encode()
    assert any("other bytes" in p for p in cli.check(0, (0, changed, b""), Counts(), None))


def test_benchmark_json_names_the_printed_metrics():
    import json
    from run import END_TO_END_UNITS
    from tracer import LAYER_UNITS
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} checks bite")
