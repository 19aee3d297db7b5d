import dataclasses
import math
import sys
import warnings

import pytest

import entrocut.cli as cli
import oracles
from entrocut import ConfigError, RunConfig, eval_f, load_config, parse_config_file, spectra
from entrocut.entropy import eta
from entrocut.bounds import QuasinormReport


# --- config file layer ------------------------------------------------------

def test_config_file_parses_lists_scalars_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sweep\nalpha = 0.6\ndelta = 0.1, 0.4\nE = 0, 2\nseed = 1, 9\n"
        "model = virasoro\nkappa = 0.45\n"
    )
    got = parse_config_file(str(path))
    assert got == {
        "alpha": 0.6, "delta": [0.1, 0.4], "E": [0, 2], "seed": [1, 9],
        "model": "virasoro", "kappa": 0.45,
    }


def test_config_file_every_key_parses_to_its_annotated_type(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text(
        "model = custom\nfile = s.txt\npower = 2\nn_max = 9\nalpha = 1\n"
        "delta = 1, 0.5\nE = 0, 4\nbeta = 2\np = 1, 0.3\nkappa = 0.5\nseed = 3\n"
        "out = o.csv\noracle_limit = 50\nfit_n_max = 800\nfreq_cut = 64\n"
    )
    got = parse_config_file(str(path))
    want = {
        "model": "custom", "file": "s.txt", "power": 2, "n_max": 9, "alpha": 1.0,
        "delta": [1.0, 0.5], "E": [0, 4], "beta": [2.0], "p": [1.0, 0.3], "kappa": 0.5,
        "seed": [3], "out": "o.csv", "oracle_limit": 50, "fit_n_max": 800, "freq_cut": 64,
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
        ("p", [2.0]),
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


def test_cli_verify_all_pass_and_filter(capsys):
    code, out, _ = _run(capsys, ["verify", "--only", "quasinorm", "--p", "0.5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check_name,param_summary,residual_or_gap,pass"
    assert len(lines) == 2 and lines[1].startswith("quasinorm,seed=7 p=0.5,")


def test_cli_verify_multi_seed_blocks(capsys):
    code, out, _ = _run(capsys, ["verify", "--only", "product", "--delta", "0.5",
                                 "--seed", "2", "--seed", "5"])
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert [l.split(",")[1] for l in lines] == ["seed=2 delta=0.5 E=4", "seed=5 delta=0.5 E=4"]


@pytest.mark.parametrize("suite,windows,fits", [
    ("polarization", 0, 0),
    ("quasinorm", 0, 0),
    ("trace", 0, 1),
    ("product", 1, 0),
])
def test_cli_verify_builds_only_what_its_suites_read(capsys, monkeypatch, suite, windows, fits):
    calls = {"window": 0, "fit": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_energy_function", counted("window", cli.build_energy_function))
    monkeypatch.setattr(cli, "fit_growth_constants", counted("fit", cli.fit_growth_constants))
    code, _, _ = _run(capsys, ["verify", "--only", suite, "--delta", "0.5", "--p", "0.5"])
    assert code == 0
    assert calls == {"window": windows, "fit": fits}


def test_cli_verify_failure_exits_one(capsys, monkeypatch):
    def fake_check(p, seed=0, **kw):
        return QuasinormReport(p=p, instances=1, worst_homogeneity_rel=1.0,
                               worst_subadditivity_gap=1.0, worst_ideal_gap=1.0,
                               worst_family_gap=1.0, ok=False)
    monkeypatch.setattr(cli, "quasinorm_property_check", fake_check)
    code, out, _ = _run(capsys, ["verify", "--only", "quasinorm", "--p", "0.5"])
    assert code == 1
    assert out.strip().split("\n")[1].endswith(",0")


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
    # freq_cut = 11 passes the floor but is too small for delta = 0.5: the
    # input is at fault, so exit 2, naming the tail mass and its limit
    code, out, err = _run(capsys, ["verify", "--only", "spectral", "--freq-cut", "11"])
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err == ("entrocut: freq_cut=11 too small for delta=0.5: "
                   "Fourier tail mass 1.635e-01 exceeds 1e-04\n")


def test_cli_trace_bound_beyond_float_range_exits_three(capsys):
    # kappa = 0.6 gives c = 2.5: at beta = 0.05 the bound is e^1799
    code, out, err = _run(capsys, ["trace", "--model", "u1", "--kappa", "0.6",
                                   "--beta", "0.05"])
    assert code == 3
    assert out == ""
    assert err.startswith("entrocut: divergence:") and "beta = 0.05" in err


def test_cli_trace_covers_the_exact_trace(capsys):
    # the kappa = 0.45 fit's tail once printed 4.4814e22, under the exact 4.4853e22
    code, out, err = _run(capsys, ["trace", "--kappa", "0.45", "--beta", "0.03"])
    assert code == 0 and err == ""
    row = out.strip().split("\n")[1].split(",")
    assert float(row[4]) >= math.exp(oracles.log_trace_exact(0.03)) * (1.0 - 1e-13)
    assert row[7] == "1"


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
    ["verify", "--alpha", "0.999", "--only", "product"],
])
def test_cli_steep_window_prints_no_numpy_warning(capsys, argv):
    # ghat's q^{-rho} overflows near the ends of (0, 1), where exp(-inf) = 0.0
    # is the coefficient meant; numpy once warned about it on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert code == 0 and out and err == ""
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

    monkeypatch.setattr(cli, "oracle_vs_bounds", boom)
    code, out, err = _run(capsys, ["bounds", "--delta", "0.5", "--E", "2"])
    assert code == 2 and out == ""
    assert err == "entrocut: boom\n"


def test_cli_rejects_unknown_flag_value(capsys):
    for argv in (["model", "--kind", "su2"],
                 # flags a subcommand does not read are not offered
                 ["bounds", "--n-max", "3"], ["bounds", "--fit-n-max", "5"],
                 ["model", "--seed", "1"], ["energy-function", "--seed", "1"],
                 ["bounds", "--seed", "1"], ["trace", "--seed", "1"],
                 ["bounds", "--oracle-limit", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err, argv


def test_cli_verify_concavity_skips_oversized_cuts(capsys):
    code, out, _ = _run(capsys, ["verify", "--only", "concavity",
                                 "--delta", "0.5,2.5", "--E", "2,40,90"])
    assert code == 0
    lines = out.strip().split("\n")[1:]
    # the oracle reads only level dimensions, so E = 40 (dimension 215,308)
    # gets a row; only a cut with delta*E beyond T0 = 200 is skipped
    assert [l.split(",")[1] for l in lines] == [
        "delta=0.5 E=2", "delta=0.5 E=40", "delta=0.5 E=90", "delta=2.5 E=2", "delta=2.5 E=40"]
    assert all(l.endswith(",1") for l in lines)


def test_cli_bounds_fills_the_oracle_past_four_hundred_states(capsys, ef075):
    code, out, _ = _run(capsys, ["bounds", "--E", "13,14,20", "--delta", "1.0"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [int(r[3]) for r in rows] == [13, 14, 20]
    for r in rows:
        # the tau state's entropy in closed form over the level basis
        energy_cut = int(r[3])
        dims = spectra.model_dims("u1", energy_cut).dims
        absf = [abs(eval_f(ef075, float(n))) for n in range(energy_cut + 1)]
        s = math.fsum(d * a for d, a in zip(dims[1:], absf[1:]))
        c = 1.0 + 2.0 * s
        want = eta((1.0 + s) / c) + math.fsum(d * eta(a / c) for d, a in zip(dims[1:], absf[1:]))
        assert abs(float(r[9]) - want) <= 1e-12, r
        assert r[10] == "1", r


@pytest.mark.parametrize("argv,message", [
    (["model", "--n-max", "-1"], "n_max must be >= 0, got -1"),
    (["bounds", "--power", "0"], "power must be >= 1, got 0"),
    (["trace", "--fit-n-max", "0"], "fit_n_max must be >= 1, got 0"),
    (["verify", "--only", "spectral", "--freq-cut", "10"], "freq_cut must be >= 11, got 10"),
    (["verify", "--oracle-limit", "0"], "oracle_limit must be >= 1, got 0"),
])
def test_cli_range_check_names_its_field(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and err == f"entrocut: {message}\n"


@pytest.mark.parametrize("freq_cut", ["8", "9", "10"])
def test_cli_verify_spectral_refuses_freq_cut_below_eleven(capsys, tmp_path, freq_cut):
    # 8-10 passed the old floor of 8 and ended in numpy's zero-size error
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"freq_cut = {freq_cut}\n")
    for argv in (["verify", "--only", "spectral", "--freq-cut", freq_cut],
                 ["verify", "--only", "spectral", "--config", str(cfg)]):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == "" and "freq_cut" in err and "zero-size" not in err, argv
        assert "Traceback" not in err, argv
