import dataclasses
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entrocut.cli as cli
import oracles
from entrocut import (ConfigError, RunConfig, bounds, energy, load_config, parse_config_file,
                      spectra)
from entrocut.bounds import eta
from entrocut.energy import window


# --- config file layer ------------------------------------------------------

def test_config_file_parses_lists_scalars_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sweep\nalpha = 0.6\ndelta = 0.1, 0.4\nE = 0, 2\nbeta = 1, 9\n"
        "model = virasoro\nkappa = 0.45\n"
    )
    got = parse_config_file(str(path))
    assert got == {
        "alpha": 0.6, "delta": [0.1, 0.4], "E": [0, 2], "beta": [1.0, 9.0],
        "model": "virasoro", "kappa": 0.45,
    }


def test_config_file_every_key_parses_to_its_annotated_type(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text(
        "model = custom\nfile = s.txt\npower = 2\nn_max = 9\nalpha = 1\n"
        "delta = 1, 0.5\nE = 0, 4\nbeta = 2\nkappa = 0.5\n"
        "out = o.csv\n"
    )
    got = parse_config_file(str(path))
    want = {
        "model": "custom", "file": "s.txt", "power": 2, "n_max": 9, "alpha": 1.0,
        "delta": [1.0, 0.5], "E": [0, 4], "beta": [2.0], "kappa": 0.5,
        "out": "o.csv",
    }
    assert set(want) == {f.name for f in dataclasses.fields(RunConfig)}
    assert got == want
    # == lets 1 stand for 1.0: compare the types too, item by item for lists
    kinds = {k: (type(v), [type(x) for x in v] if isinstance(v, list) else None)
             for k, v in got.items()}
    assert kinds == {k: (type(v), [type(x) for x in v] if isinstance(v, list) else None)
                     for k, v in want.items()}


def test_config_file_unknown_key_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.6\nwibble = 3\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_file(str(path))
    assert "line 2" in str(exc.value) and "wibble" in str(exc.value)


def test_config_file_not_utf8_names_path_and_line(tmp_path, capsys):
    # the decoder's own message once named neither the file nor the line
    path = tmp_path / "run.cfg"
    path.write_bytes(b"alpha = 0.6\n# caf\xe9\ndelta = 0.5\n")
    code, out, err = _run(capsys, ["bounds", "--config", str(path)])
    assert code == 2 and out == "" and err == f"entrocut: line 2: {path} is not UTF-8 text\n"


def test_config_file_bad_value_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = not-a-number\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_file(str(path))
    assert "line 1" in str(exc.value)


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.6\nn_max = 20\n")
    cfg = load_config(str(path), {"alpha": 0.85, "delta": None})
    assert cfg.alpha == 0.85          # flag beats file
    assert cfg.n_max == 20            # file beats default
    assert cfg.delta == [0.5, 1.0]    # None flag leaves the default


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha", 1.5),
        ("model", "heterotic"),
        ("delta", []),
        ("E", [-1]),
        ("beta", []),
        ("power", 0),
        ("kappa", 0.0),
        ("delta", [math.nan]),
        ("delta", [0.5, math.inf]),
        ("beta", [math.inf]),
        ("beta", [math.nan]),
    ],
)
def test_run_config_validate_rejects(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_run_config_custom_requires_file():
    with pytest.raises(ConfigError):
        RunConfig(model="custom").validate()


# --- CLI integration --------------------------------------------------------

def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_model_table(capsys):
    code, out, _ = _run(capsys, ["model", "--kind", "u1", "--n-max", "3"])
    assert code == 0
    assert out == "N,d_N\n0,1\n1,1\n2,2\n3,3\n"
    # no n_max: a built-in prints N = 0..12
    code, out, _ = _run(capsys, ["model"])
    assert code == 0
    assert out.split("\n")[1:-1] == [f"{n},{d}" for n, d in enumerate(
        [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77])]


def test_cli_model_custom_round_trip(capsys, tmp_path):
    src = tmp_path / "s.txt"
    src.write_text("0 1\n1 2\n2 4\n")
    code, out, _ = _run(capsys, ["model", "--kind", "custom", "--file", str(src)])
    assert code == 0
    assert out == "N,d_N\n0,1\n1,2\n2,4\n"
    # n_max cuts the table alike from a flag and from a config file
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_max = 1\n")
    for extra in (["--n-max", "1"], ["--config", str(cfg)]):
        code, out, _ = _run(capsys, ["model", "--kind", "custom", "--file", str(src), *extra])
        assert code == 0
        assert out == "N,d_N\n0,1\n1,2\n"


def test_cli_refuses_a_custom_d_n_beyond_the_float_range(capsys, tmp_path):
    # the bounds sum d_N |f(delta N)| in floats; 10^400 once ended in an
    # OverflowError traceback inside cutoff_bound
    src = tmp_path / "huge.txt"
    src.write_text(f"0 1\n# a comment line\n1 {10 ** 400}\n")
    code, out, err = _run(capsys, ["bounds", "--model", "custom", "--file", str(src),
                                   "--E", "1,2"])
    assert code == 2 and out == ""
    assert err == ("entrocut: line 3: d_N (401 digits) brings the sum of d_N past the "
                   "float limit 1.797693e+308\n")
    # d_N that each convert but whose sum does not once failed in the caps C_E, S_E
    src.write_text("0 1\n" + "".join(f"{n} {8 * 10 ** 307}\n" for n in (1, 2, 3)))
    code, out, err = _run(capsys, ["bounds", "--model", "custom", "--file", str(src),
                                   "--E", "3", "--delta", "50"])
    assert code == 2 and out == ""
    assert err.startswith("entrocut: line 4: d_N (308 digits) brings the sum of d_N past")
    # the largest sum that converts to a float is still read
    top = int(sys.float_info.max)
    src.write_text(f"0 1\n1 {top - 1}\n")
    assert spectra.parse_spectrum_file(str(src))[1] == top - 1


def test_cli_custom_tensor_power_keeps_every_level(capsys, tmp_path):
    # (1 + 2q + 4q^3)^2 = 1 + 4q + 4q^2 + 8q^3 + 16q^4 + 16q^6; the square once
    # stopped at the file's last level N = 3, and its trace read 6.683
    src = tmp_path / "spec.txt"
    src.write_text("0 1\n1 2\n3 4\n")
    code, out, _ = _run(capsys, ["model", "--kind", "custom", "--file", str(src), "--power", "2"])
    assert code == 0
    assert out.split("\n")[1:-1] == [f"{n},{d}" for n, d in enumerate([1, 4, 4, 8, 16, 0, 16])]
    code, out, err = _run(capsys, ["trace", "--model", "custom", "--file", str(src),
                                   "--power", "2", "--beta", "0.5"])
    assert code == 0 and err == ""
    square = oracles.convolve_exact([1, 2, 0, 4], [1, 2, 0, 4], 6)
    exact = math.fsum(d * math.exp(-0.5 * n) for n, d in enumerate(square))
    assert float(out.split("\n")[1].split(",")[4]) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_cli_model_prints_a_billionth_power(capsys):
    # the Kronecker route packed this power into more than memory holds and
    # exited 2; the recurrence appends its first levels as small ints:
    # d_1 = m and d_2 = m(m+3)/2 for u1^m, d_2 = m and d_4 = 2m + C(m, 2)
    # for virasoro^m
    m = 10 ** 9
    code, out, err = _run(capsys, ["model", "--power", str(m), "--n-max", "2"])
    assert (code, out, err) == (0, f"N,d_N\n0,1\n1,{m}\n2,{m * (m + 3) // 2}\n", "")
    code, out, err = _run(capsys, ["model", "--kind", "virasoro", "--power", str(m),
                                   "--n-max", "4"])
    assert code == 0 and err == ""
    assert out.split("\n")[1:-1] == ["0,1", "1,0", f"2,{m}", f"3,{m}",
                                      f"4,{2 * m + m * (m - 1) // 2}"]


@pytest.mark.parametrize("command", ["bounds", "trace"])
def test_cli_refuses_a_custom_power_beyond_the_float_range(capsys, tmp_path, command):
    # the file's own sum converts to a float but its square's does not; bounds
    # once died in cutoff_bound and trace in fit_growth_constants with a traceback
    src = tmp_path / "big.txt"
    src.write_text(f"0 1\n1 {10 ** 160}\n2 0\n")
    code, out, err = _run(capsys, [command, "--model", "custom", "--file", str(src),
                                   "--power", "2"])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == (f"entrocut: {src}: the sum of d_N of tensor power 2 passes the float "
                   "limit 1.797693e+308\n")


def test_cli_bounds_rows_and_chain(capsys):
    code, out, _ = _run(capsys, ["bounds", "--delta", "0.5,1.0", "--E", "0,2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "model,alpha,delta,E,c_deltaE,S_deltaE,C_E,S_E,HE_bound,oracle_entropy,oracle_pass"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    # E = 0 rows: HE ~ 0; E = 2 rows: C_E = 4
    for r in rows:
        if r[3] == "0":
            assert abs(float(r[8])) <= 1e-11
        else:
            assert float(r[6]) == pytest.approx(4.0, abs=1e-9)
        assert r[10] == "1"
    # identical E, different delta -> byte-identical C_E, S_E
    e2 = [r for r in rows if r[3] == "2"]
    assert e2[0][6:9] == e2[1][6:9]


def test_cli_bounds_grows_no_table_past_the_model(capsys, cold_tables):
    # bounds gates on the configured kappa; it fits no growth, so it scans no table to fit_n_max
    code, _, _ = _run(capsys, ["bounds", "--power", "2", "--E", "0,2"])
    assert code == 0
    assert len(spectra._TABLES[("u1", 2)].dims) <= 13


def test_cli_energy_function_envelope_flag(capsys):
    code, out, _ = _run(capsys, ["energy-function", "--alpha", "0.75",
                                 "--t-max", "250", "--points", "6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,f,is_envelope"
    first = lines[1].split(",")
    assert float(first[1]) == 0.5 and first[2] == "0"
    last = lines[-1].split(",")
    assert float(last[0]) == 250.0 and last[2] == "1"


def test_cli_trace_table(capsys):
    code, out, _ = _run(capsys, ["trace", "--beta", "1.0,2.0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "model,kappa,C,beta,trace,bound,ratio,pass"
    assert len(lines) == 3
    for line in lines[1:]:
        r = line.split(",")
        assert float(r[4]) <= float(r[5])
        assert r[7] == "1"


def test_cli_trace_failure_exits_one(capsys, monkeypatch):
    # a bound of 2 at every beta: the trace 7.4 at beta = 0.5 breaks it, the
    # other three rows keep it; trace once exited 0 with a failed row
    monkeypatch.setattr(bounds, "trace_bound_constants",
                        lambda kappa, log_C: bounds.TraceBoundConstants(a=2.0, b=0.0, c=1.0))
    code, out, err = _run(capsys, ["trace"])
    assert code == 1 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "model,kappa,C,beta,trace,bound,ratio,pass"
    assert [(r.split(",")[3], r.split(",")[7]) for r in lines[1:]] == [
        ("0.5", "0"), ("1.0", "1"), ("2.0", "1"), ("4.0", "1")]


def test_cli_verify_all_pass(capsys):
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check_name,param_summary,residual_or_gap,pass"
    assert [line.rsplit(",", 2)[0] for line in lines[1:]] == [
        "spectral,delta=0.5 pairs=5", "spectral,delta=1 pairs=5"]
    assert all(line.endswith(",1") for line in lines[1:])


@pytest.mark.parametrize("suite,windows,fits", [
    ("trace", 0, 1),
    ("spectral", 1, 0),
])
def test_cli_verify_builds_only_what_its_suites_read(capsys, monkeypatch, suite, windows, fits):
    # the sum rule is verify's and reads the window alone, for every delta;
    # the trace bound is trace's and reads one model and its fit, no window
    calls = {"window": 0, "fit": 0, "model": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(energy, "build_energy_function",
                        counted("window", energy.build_energy_function))
    monkeypatch.setattr(spectra, "fit_growth_constants", counted("fit", spectra.fit_growth_constants))
    monkeypatch.setattr(cli, "_build_model", counted("model", cli._build_model))
    argv = {"spectral": ["verify", "--delta", "0.5,1.0"], "trace": ["trace"]}[suite]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert calls == {"window": windows, "fit": fits, "model": fits}


def test_cli_verify_failure_exits_one(capsys, monkeypatch):
    def fake_check(ef, pair):
        return 1.0                  # a relative residual far above the 1e-5 mark
    monkeypatch.setattr(energy, "verify_spectral_identity", fake_check)
    code, out, _ = _run(capsys, ["verify", "--delta", "0.5"])
    assert code == 1
    assert out.strip().split("\n")[1].endswith(",0")


@pytest.mark.parametrize("argv,message", [
    (["--only", "quasinorm"], "unrecognized arguments: --only"),
    (["--p", "0.5"], "unrecognized arguments: --p 0.5"),
    (["--config", "p.cfg"], "entrocut: line 1: unknown key 'p'"),
])
def test_cli_verify_has_no_quasinorm_suite(capsys, tmp_path, monkeypatch, argv, message):
    # the suite checked numpy's SVD, not the package; its inequalities are
    # property tests now, and its suite name, flag and config key are gone
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.cfg").write_text("p = 0.5\n")
    try:
        code = cli.main(["verify", *argv])
    except SystemExit as exc:       # argparse refuses the flag itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["polarization", "product"])
def test_cli_verify_has_no_identity_suites(capsys, suite):
    # both held for every matrix and every window, whatever the user passed;
    # they are property tests on a dense oracle now
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--only", suite])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: --only {suite}" in err and "Traceback" not in err


def test_cli_out_file_deterministic(tmp_path, capsys):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    for f in (f1, f2):
        code = cli.main(["bounds", "--delta", "0.5", "--E", "2", "--out", str(f)])
        assert code == 0
        capsys.readouterr()
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    assert b"\r" not in b1 and b1.endswith(b"\n")
    # repr floats round-trip
    val = b1.decode().strip().split("\n")[1].split(",")[6]
    assert float(val) == pytest.approx(4.0, abs=1e-9)
    assert repr(float(val)) == val


def test_cli_config_file_flags_override(tmp_path, capsys):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("alpha = 0.75\ndelta = 0.25\nE = 0\n")
    code, out, _ = _run(capsys, ["bounds", "--config", str(cfgf), "--E", "2"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 1
    assert rows[0].split(",")[2] == "0.25" and rows[0].split(",")[3] == "2"


def test_cli_exit_codes(capsys, tmp_path):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("zork = 1\n")
    assert cli.main(["bounds", "--config", str(bad_cfg)]) == 2
    capsys.readouterr()
    bad_spec = tmp_path / "bad.txt"
    bad_spec.write_text("0 1\nnope\n")
    assert cli.main(["model", "--kind", "custom", "--file", str(bad_spec)]) == 2
    capsys.readouterr()
    assert cli.main(["model", "--kind", "custom", "--file", str(tmp_path / "gone.txt")]) == 2
    capsys.readouterr()
    # alpha below the fitted growth exponent: divergence gate
    code, _, err = _run(capsys, ["bounds", "--alpha", "0.55"])
    assert code == 3
    assert "0.55" in err and "0.6" in err
    assert cli.main([]) == 2
    capsys.readouterr()


def test_cli_out_to_a_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "gone" / "x.csv"
    code, out, err = _run(capsys, ["model", "--out", str(target)])
    assert code == 2 and out == ""
    assert err == f"entrocut: cannot write {target}: No such file or directory\n"


def test_cli_out_to_a_directory_exits_two(capsys, tmp_path):
    code, out, err = _run(capsys, ["model", "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == f"entrocut: cannot write {tmp_path}: Is a directory\n"


def test_cli_missing_config_file_exits_two(capsys, tmp_path):
    gone = tmp_path / "gone.cfg"
    with pytest.raises(ConfigError):
        parse_config_file(str(gone))
    code, out, err = _run(capsys, ["bounds", "--config", str(gone)])
    assert code == 2
    assert out == "" and err.startswith("entrocut: ") and "gone.cfg" in err


def test_cli_energy_function_non_finite_t_max_exits_two(capsys):
    for t_max in ("nan", "inf", "-inf"):
        code, out, err = _run(capsys, ["energy-function", f"--t-max={t_max}"])
        assert code == 2
        assert out == "" and err.startswith("entrocut: ") and "Traceback" not in err


def test_cli_energy_function_too_many_points_exits_two(capsys):
    # 8e15 bytes of samples lie past the address space, so the allocation
    # fails at once and touches no memory; it once ended in numpy's
    # _ArrayMemoryError traceback with exit 1
    code, out, err = _run(capsys, ["energy-function", "--points", "1000000000000000"])
    assert code == 2
    assert out == ""
    assert err == "entrocut: --points 1000000000000000 is more samples than memory holds\n"


# 10^18 levels are 8e18 bytes of list, past the address space, and 10^19 lie
# past the index range, so each is refused at once and touches no memory; every
# case once ended in a MemoryError or OverflowError traceback with exit 1
_N18, _N19 = 10**18, 10**19


@pytest.mark.parametrize("top,argv,named", [
    (_N18, ["model", "--kind", "custom"], f"line 2: N = {_N18}"),
    (_N18, ["trace", "--model", "custom"], f"line 2: N = {_N18}"),
    (_N18, ["bounds", "--model", "custom"], f"line 2: N = {_N18}"),
    (_N19, ["model", "--kind", "custom"], f"line 2: N = {_N19}"),
    (2, ["model", "--kind", "custom", "--n-max", str(_N18)], f"--n-max {_N18}"),
    (2, ["model", "--kind", "custom", "--n-max", str(_N19)], f"--n-max {_N19}"),
    (2, ["bounds", "--model", "custom", "--E", str(_N18)], f"--E {_N18}"),
    (2, ["bounds", "--model", "custom", "--E", str(_N19)], f"--E {_N19}"),
], ids=["model-file-1e18", "trace-file-1e18", "bounds-file-1e18", "model-file-1e19",
        "model-n-max-1e18", "model-n-max-1e19", "bounds-E-1e18", "bounds-E-1e19"])
def test_cli_custom_levels_past_memory_exit_two(capsys, tmp_path, top, argv, named):
    path = tmp_path / "spec.txt"
    path.write_text(f"0 1\n{top} 3\n")
    code, out, err = _run(capsys, [*argv, "--file", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"entrocut: {named} is more levels than memory holds\n"


def test_cli_window_past_its_alpha_limit_exits_one(capsys):
    # the tau quadrature's self-check fails for alpha above about 0.99972
    code, out, err = _run(capsys, ["energy-function", "--alpha", "0.9999", "--points", "3"])
    assert code == 1
    assert out == ""
    assert err.startswith("entrocut: tau quadrature did not converge at the configured density")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("line", ["t_cap = 300", "quad_tol = 1e-11", "t_cap = inf"])
def test_cli_config_quadrature_keys_are_unknown(capsys, tmp_path, line):
    # T0 = 200 and the 1e-12 tolerance are constants of the window, not settings
    path = tmp_path / "quad.cfg"
    path.write_text(line + "\n")
    key = line.split(" ")[0]
    for command in ("energy-function", "bounds"):
        code, out, err = _run(capsys, [command, "--config", str(path)])
        assert code == 2
        assert out == "" and err == f"entrocut: line 1: unknown key {key!r}\n"


def test_cli_verify_spectral_tail_mass_exits_two(capsys):
    # at delta = 3.0 the family's bumps are too narrow for the cut of 66: the
    # input is at fault, so exit 2, in one line naming delta and the limit
    code, out, err = _run(capsys, ["verify", "--delta", "3.0"])
    assert code == 2
    assert out == "" and "Traceback" not in err and "freq_cut" not in err
    assert err == ("entrocut: delta=3.0 is too wide for the spectral suite: the pair's "
                   "Fourier tail mass 1.883e-03 exceeds the suite's limit 5e-05\n")


@pytest.mark.parametrize("delta,code", [("2.0", 0), ("2.07", 0), ("2.08", 2)])
def test_cli_verify_spectral_reach_is_one_delta(capsys, delta, code):
    # the pairs are one fixed family, so the reach in delta is one number:
    # 2.0 once exited 2 for some seeds, and past 2.07 every run exits 2 in a
    # line that names delta and no seed
    got, out, err = _run(capsys, ["verify", "--delta", delta])
    assert got == code
    if code == 0:
        (row,) = [line.split(",") for line in out.splitlines()[1:]]
        assert err == "" and row[1] == f"delta={float(delta):g} pairs=5" and row[3] == "1"
    else:
        assert out == "" and err == (f"entrocut: delta={delta} is too wide for the spectral suite: "
                                     "the pair's Fourier tail mass 5.191e-05 exceeds the suite's "
                                     "limit 5e-05\n")


@pytest.mark.parametrize("deltas", ["1.6", "0.5,1.8"])
def test_cli_verify_spectral_cut_follows_delta(capsys, deltas):
    # a fixed cut of 128 put delta * 128 past T0 = 200 and exited 2 here
    code, out, err = _run(capsys, ["verify", "--delta", deltas])
    assert code == 0 and err == ""
    spectral = [line.split(",") for line in out.split("\n") if line.startswith("spectral,")]
    assert [(r[1], r[3]) for r in spectral] == [(f"delta={d} pairs=5", "1")
                                                for d in deltas.split(",")]


@pytest.mark.parametrize("argv,message", [
    (["--freq-cut", "64"], "unrecognized arguments: --freq-cut 64"),
    (["--oracle-limit", "50"], "unrecognized arguments: --oracle-limit 50"),
    (["--config", "freq_cut"], "entrocut: line 1: unknown key 'freq_cut'"),
    (["--config", "oracle_limit"], "entrocut: line 1: unknown key 'oracle_limit'"),
    (["--seed", "7"], "unrecognized arguments: --seed 7"),
    (["--config", "seed"], "entrocut: line 1: unknown key 'seed'"),
])
def test_cli_verify_has_no_tuning_settings(capsys, tmp_path, monkeypatch, argv, message):
    # the spectral cut follows delta, the dense suites use the limit of 400
    # states in build_truncated_space and the spectral pairs are one fixed
    # family, so none of the three is a flag or a config key
    monkeypatch.chdir(tmp_path)
    for key, value in (("freq_cut", 64), ("oracle_limit", 64), ("seed", 7)):
        (tmp_path / key).write_text(f"{key} = {value}\n")
    try:
        code = cli.main(["verify", *argv])
    except SystemExit as exc:       # argparse refuses the flag itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_cli_trace_bound_beyond_float_range_exits_three(capsys):
    # kappa = 0.6 gives c = 2.5: at beta = 0.05 the bound is e^1799
    code, out, err = _run(capsys, ["trace", "--model", "u1", "--kappa", "0.6",
                                   "--beta", "0.05"])
    assert code == 3
    assert out == ""
    assert err.startswith("entrocut: divergence:") and "beta = 0.05" in err


@pytest.mark.parametrize("argv", [
    ["trace", "--model", "custom", "--file", "spec.txt", "--kappa", "0.005"],
    ["trace", "--model", "custom", "--file", "spec.txt", "--kappa", "1e-300"],
    ["trace", "--config", "kappa.cfg"],
])
def test_cli_trace_series_beyond_float_range_exits_three(capsys, tmp_path, monkeypatch, argv):
    # below kappa = 0.00586 the tail Gamma(1/kappa)/kappa of sum_N e^{-N^kappa}
    # is past the float range; math.gamma once raised OverflowError below
    # 0.00583.  A custom file takes any kappa; a built-in needs kappa > 1/2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.txt").write_text("0 1\n2 3\n")
    (tmp_path / "kappa.cfg").write_text("model = custom\nfile = spec.txt\nkappa = 0.005\n")
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("entrocut: divergence: sum_N e^(-N^kappa) at kappa = ")
    assert err.endswith(", beyond the float range\n") and err.count("\n") == 1


def test_cli_trace_covers_the_exact_trace(capsys):
    # the kappa = 0.45 fit's tail once printed 4.4814e22 at beta = 0.03, under
    # the exact 4.4853e22; the column is the closed form's upper value
    code, out, err = _run(capsys, ["trace", "--beta", "0.1,0.3"])
    assert code == 0 and err == ""
    for line, beta in zip(out.strip().split("\n")[1:], (0.1, 0.3)):
        row = line.split(",")
        excess = math.log(float(row[4])) - oracles.log_trace_exact(beta)
        assert 0.0 <= excess <= 1e-12, beta
        assert row[7] == "1"


@pytest.mark.parametrize("argv", [["trace"], ["trace", "--model", "virasoro", "--power", "2"],
                                  ["trace", "--power", "3", "--beta", "10,0.2"]])
def test_cli_trace_grows_no_table_past_the_model(capsys, cold_tables, argv):
    # its growth constant and its trace are closed forms: the fit once grew
    # and scanned a table to --fit-n-max = 3000 levels, and the trace summed it
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert spectra._TABLES and all(len(t.dims) <= 13 for t in spectra._TABLES.values())


@pytest.mark.parametrize("kappa", ["0.5", "0.45", "0.1"])
def test_cli_trace_of_a_builtin_refuses_kappa_at_or_below_one_half(capsys, kappa):
    code, out, err = _run(capsys, ["trace", "--model", "virasoro", "--kappa", kappa])
    assert code == 2 and out == ""
    assert err == (f"entrocut: kappa = {kappa} is at or below 1/2, where no constant C "
                   "gives d_N <= C e^(N^kappa) for virasoro\n")


def test_cli_trace_of_a_fourth_power_exits_three(capsys):
    # the proven log C of u1^4 at kappa = 0.6 is 1221: C sum_N e^{-N^kappa}
    # passes the float range; a 3000-level scan once gave a C that the levels
    # past it break, and exit 0
    code, out, err = _run(capsys, ["trace", "--power", "4"])
    assert code == 3 and out == ""
    assert err.startswith("entrocut: divergence: C sum_N e^(-N^kappa) at kappa = 0.6, "
                          "with log C = 1221.")


def test_cli_model_prints_d_n_past_the_int_digit_limit(capsys, tmp_path):
    # d_12 of u1^m at m = 10^400 has 4,393 digits; Python's limit of 4300
    # on int-to-text digits (3.11 on) once made this exit 2
    m = 10 ** 400
    code, out, err = _run(capsys, ["model", "--power", str(m)])
    assert code == 0 and err == ""
    dims = spectra.model_dims("u1", 12, power=m).dims
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert out == "N,d_N\n" + "".join(f"{n},{d}\n" for n, d in enumerate(dims))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert len(out.split("\n")[13]) > 4300
    # the limit still refuses an int input of that size, and stays in force
    if limit is not None:
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"power = {'9' * (limit + 1)}\n")
        code, out, err = _run(capsys, ["model", "--config", str(cfg)])
        assert code == 2 and out == "" and err.startswith("entrocut: line 1: bad value")
        assert sys.get_int_max_str_digits() == limit


def test_cli_trace_reads_a_custom_file_whole(capsys, tmp_path):
    # a fit scan to fit_n_max = 3000 once left out the level 5000, and its
    # 10^300 e^{-500} = 7.1e82, from both the trace (1.905) and C (1.0)
    src = tmp_path / "long.txt"
    src.write_text(f"0 1\n1 1\n5000 {10 ** 300}\n")
    argv = ["trace", "--model", "custom", "--file", str(src), "--kappa", "0.5"]
    code, out, err = _run(capsys, [*argv, "--beta", "0.1"])
    assert code == 3 and out == ""
    assert err == ("entrocut: divergence: trace bound at beta = 0.1 is e^721.047, "
                   "beyond the float range\n")
    code, out, err = _run(capsys, [*argv, "--beta", "0.5"])
    assert code == 0 and err == ""
    row = out.strip().split("\n")[1].split(",")
    assert float(row[2]) >= 10.0 ** 300 / math.exp(math.sqrt(5000.0)) * (1.0 - 1e-13)
    assert row[7] == "1"


@pytest.mark.parametrize("argv", [
    ["energy-function", "--alpha", "0.98", "--points", "3"],
    ["bounds", "--alpha", "0.99", "--E", "2"],
    ["verify", "--alpha", "0.999"],
])
def test_cli_steep_window_prints_no_numpy_warning(capsys, argv):
    # ghat's q^{-rho} overflows near the ends of (0, 1), where exp(-inf) = 0.0
    # is the coefficient meant; numpy once warned about it on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert code == 0 and out and err == ""
    assert [str(w.message) for w in caught] == []


def test_cli_delta_past_the_float_range_prints_no_numpy_warning(capsys):
    # delta * N for N >= 2 overflows to t = inf, where the envelope is 0; numpy
    # once warned about the product on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["bounds", "--delta", "1e308", "--E", "3"])
    assert code == 0 and err == ""
    assert out.splitlines()[1] == ("u1,0.75,1e+308,3,1.0,0.0,7.0000000000139995,8.317766166743343,"
                                   "21.93913721017178,,")
    assert [str(w.message) for w in caught] == []


def test_cli_bounds_overflowing_terms_exit_three_without_warnings(capsys, tmp_path):
    # d_1 = 10^308 converts to a float, but 2 d_1 |f| does not
    src = tmp_path / "huge.txt"
    src.write_text(f"0 1\n1 {10 ** 308}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["bounds", "--model", "custom", "--file", str(src),
                                       "--E", "1"])
    assert code == 3 and out == ""
    assert err == "entrocut: divergence: c_deltaE is not finite in report for custom\n"
    assert [str(w.message) for w in caught] == []


def test_cli_oracle_error_in_range_exits_two(capsys, monkeypatch):
    # only delta * E beyond T0 leaves the oracle columns blank; any other
    # error once blanked them too, with exit 0
    def boom(space, ef, delta):
        raise ValueError("boom")

    monkeypatch.setattr(bounds, "oracle_vs_bounds", boom)
    code, out, err = _run(capsys, ["bounds", "--delta", "0.5", "--E", "2"])
    assert code == 2 and out == ""
    assert err == "entrocut: boom\n"


def test_cli_rejects_unknown_flag_value(capsys):
    for argv in (["model", "--kind", "su2"],
                 # flags a subcommand does not read are not offered
                 ["bounds", "--n-max", "3"], ["bounds", "--fit-n-max", "5"],
                 ["model", "--seed", "1"], ["energy-function", "--seed", "1"],
                 ["bounds", "--seed", "1"], ["trace", "--seed", "1"],
                 ["bounds", "--oracle-limit", "5"],
                 # the ensemble inequality holds for every input, so verify
                 # has no concavity suite and reads no E
                 ["verify", "--only", "concavity"], ["verify", "--E", "4"],
                 # the trace bound is trace's check alone, so verify reads
                 # no spectrum and has no suites to choose from
                 ["verify", "--only", "trace", "--power", "2"], ["verify", "--only", "spectral"],
                 ["verify", "--model", "virasoro"], ["verify", "--file", "spec.txt"],
                 ["verify", "--power", "2"], ["verify", "--beta", "1.0"],
                 ["verify", "--kappa", "0.6"], ["verify", "--fit-n-max", "500"],
                 # trace's growth constant is proven, not fitted to a scan
                 ["trace", "--fit-n-max", "5"],
                 # a flag is spelled whole; --pow once read as --power
                 ["trace", "--pow", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err, argv


def test_cli_bounds_oracle_skips_oversized_cuts(capsys):
    code, out, _ = _run(capsys, ["bounds", "--delta", "0.5,2.5", "--E", "2,40,90"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(r[2], r[3]) for r in rows] == [
        ("0.5", "2"), ("0.5", "40"), ("0.5", "90"), ("2.5", "2"), ("2.5", "40"), ("2.5", "90")]
    # the oracle reads only level dimensions, so E = 40 (dimension 215,308)
    # gets its columns; only a cut with delta*E beyond T0 = 200 leaves them empty
    assert all(float(r[9]) > 0.0 and r[10] == "1" for r in rows[:5])
    assert rows[5][9:] == ["", ""]


def test_cli_trace_reads_the_power_and_fit_settings(capsys):
    # trace's ratios are verify_trace_bound's at the settings it is given
    for extra, power, kappa in (([], 1, 0.6), (["--power", "2"], 2, 0.6),
                                (["--kappa", "0.7"], 1, 0.7)):
        code, out, _ = _run(capsys, ["trace", *extra])
        assert code == 0
        model = spectra.model_dims("u1", 12, power=power)
        fit = spectra.fit_growth_constants(model, kappa)
        want = [repr(r.ratio)
                for r in bounds.verify_trace_bound(model, fit, (0.5, 1.0, 2.0, 4.0))]
        assert [line.split(",")[6] for line in out.strip().split("\n")[1:]] == want, extra


def test_cli_bounds_fills_the_oracle_past_four_hundred_states(capsys, ef075):
    code, out, _ = _run(capsys, ["bounds", "--E", "13,14,20", "--delta", "1.0"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [int(r[3]) for r in rows] == [13, 14, 20]
    for r in rows:
        # the tau state's entropy in closed form over the level basis
        energy_cut = int(r[3])
        dims = spectra.model_dims("u1", energy_cut).dims
        absf = [abs(window(ef075, [float(n)])[0][0]) for n in range(energy_cut + 1)]
        s = math.fsum(d * a for d, a in zip(dims[1:], absf[1:]))
        c = 1.0 + 2.0 * s
        want = eta((1.0 + s) / c) + math.fsum(d * eta(a / c) for d, a in zip(dims[1:], absf[1:]))
        assert abs(float(r[9]) - want) <= 1e-12, r
        assert r[10] == "1", r


@pytest.mark.parametrize("argv,message", [
    (["model", "--n-max", "-1"], "n_max must be >= 0, got -1"),
    (["bounds", "--power", "0"], "power must be >= 1, got 0"),
])
def test_cli_range_check_names_its_field(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and err == f"entrocut: {message}\n"


def _numpy_on_openblas_x86() -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


@pytest.mark.skipif(not _numpy_on_openblas_x86(), reason="needs numpy on OpenBLAS on x86-64")
def test_cli_bytes_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernels by CPU unless OPENBLAS_CORETYPE names a set;
    # Prescott is its oldest x86-64 one.  The CSV must not change with the set
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["verify"], ["bounds", "--E", ",".join(map(str, range(14)))]):
        outs = [subprocess.run([sys.executable, "-m", "entrocut.cli", *argv], env={**env, **extra},
                               capture_output=True, check=True).stdout
                for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
        assert outs[0] == outs[1], argv
