"""What a process loads: the package runs a numeric module, and numpy, only
when a command reads it; the benchmark's tracer still finds every module it
wraps; the public names resolve lazily to their modules' objects; and an
input that would need more than the machine's physical memory is refused
before anything is allocated.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import entrocut

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"


def _python(script: str, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return out


_NUMPY_PROBE = """
import contextlib, io, json, sys
import entrocut.cli
code = None
if sys.argv[1:] != ["import"]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = entrocut.cli.main(sys.argv[1:])
        except SystemExit as exc:       # argparse ends --help and usage errors
            code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("argv,code", [
    (["import"], None),
    (["model"], 0),
    (["--help"], 0),
    (["bounds", "--nope"], 2),
], ids=["import", "model", "help", "usage-error"])
def test_cli_process_that_computes_no_window_leaves_numpy_out(argv, code):
    # `model` reads d_N alone, and --help and a usage error read no setting;
    # each once paid for numpy's import (about 85 ms) and every module's
    assert json.loads(_python(_NUMPY_PROBE, *argv).stdout) == [code, False]


def _wrapped_modules() -> set[str]:
    """The package modules named in the tracer's WRAPPED rows (parsed, not imported)."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    rows = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "WRAPPED")
    have = {path.stem for path in (SRC / "entrocut").glob("*.py")}
    return {module for module, _, _ in rows if module in have}


_LOADED_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(n[len("entrocut."):] for n in sys.modules if n.startswith("entrocut."))))
"""


@pytest.mark.parametrize("entry", ["entrocut", "entrocut.cli"])
def test_tracer_finds_every_module_it_wraps_after_import(entry):
    # Tracer.install wraps what sys.modules holds right after the benchmark
    # imports its entry point; the in-process workloads import the package,
    # which leaves cli alone (python -m entrocut.cli runs it afresh), and
    # the CLI shim imports cli
    wanted = _wrapped_modules() - ({"cli"} if entry == "entrocut" else set())
    assert {"energy", "spectra", "bounds"} <= wanted
    loaded = set(json.loads(_python(_LOADED_PROBE, entry).stdout))
    assert wanted <= loaded


_TRACED_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
import entrocut.cli
tracer = Tracer()
tracer.install()
entrocut.cli.main(["bounds", "--E", "2", "--delta", "0.5"])
print(json.dumps(sorted({span[0] for span in tracer.spans})), file=sys.stderr)
"""


def test_traced_cli_run_opens_a_span_in_every_layer_it_reads():
    # a tracer that found the numeric modules unloaded would wrap nothing,
    # and every per-layer row of a traced run would read 0
    names = json.loads(_python(_TRACED_PROBE, str(PERFBENCH)).stderr)
    assert {"cli.main", "energy.build", "energy.eval", "spectra.table",
            "bounds.cutoff"} <= set(names)


def test_public_names_resolve_to_their_modules_objects(monkeypatch):
    assert len(set(entrocut.__all__)) == len(entrocut.__all__) == 35
    assert set(entrocut.__all__) <= set(dir(entrocut))
    for name in entrocut.__all__:
        home = sys.modules[f"entrocut.{entrocut._HOME[name]}"]
        value = getattr(entrocut, name)
        assert value is getattr(home, name), name
        assert vars(entrocut)[name] is value, name

    def refuse(name):
        raise AssertionError(f"__getattr__ called for {name}")

    # a read after the first is a plain lookup in the package namespace
    monkeypatch.setattr(entrocut, "__getattr__", refuse)
    for name in entrocut.__all__:
        getattr(entrocut, name)
    with pytest.raises(AssertionError):
        entrocut.no_such_name


_FIRST_READ_PROBE = """
import json, sys
import entrocut
before = [n for n in entrocut.__all__ if n in vars(entrocut)]
from entrocut import cutoff_bound
print(json.dumps([before, "cutoff_bound" in vars(entrocut), "numpy" in sys.modules]))
"""


def test_package_import_runs_no_numeric_module():
    # no public name is bound until it is read; reading one from bounds runs
    # bounds, energy and spectra, and numpy with them
    assert json.loads(_python(_FIRST_READ_PROBE).stdout) == [[], True, True]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        entrocut.no_such_name


_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from entrocut.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,code,err", [
    (["bounds", "--E", "99999999999999999999"], 2,
     "entrocut: --E 99999999999999999999 is more levels than memory holds\n"),
    (["model", "--kind", "custom", "--file", "spec.txt", "--power", "100000"], 2,
     "entrocut: --power 100000 is more tensor factors than memory holds\n"),
    (["model", "--n-max", "99999999999999999999"], 2,
     "entrocut: --n-max 99999999999999999999 is more levels than memory holds\n"),
    (["bounds", "--E", "100000"], 3,
     "entrocut: divergence: the level dimensions up to E = 100000 of u1 sum beyond "
     "the float range\n"),
    (["model", "--power", "9" * 4000, "--n-max", "20000"], 2,
     "entrocut: --n-max 20000 is more levels than memory holds\n"),
    (["model", "--power", "1000000000000000000", "--n-max", "10000000"], 2,
     "entrocut: --n-max 10000000 is more levels than memory holds\n"),
], ids=["bounds-E-1e20", "model-power-1e5", "model-n-max-1e20",
        "bounds-E-1e5", "model-power-4000-digits", "model-power-1e18-n-max-1e7"])
def test_cli_input_past_memory_is_refused_before_allocating(tmp_path, argv, code, err):
    # the pentagonal recurrence to N = 1e20 once listed about 1.6e10 offsets
    # (exit 2 after 11.7 s at 1.9 GB under this limit), and the 100000th
    # power of a 3-level file once packed about 50 GB (a MemoryError
    # traceback); the ints of a u1 power with 4000 digits to N = 20000 take
    # at least about 330 GB, which the recurrence would otherwise start to
    # append; the 2 GB address-space limit is set in the child alone,
    # so that a regression fails here instead of taking the machine's memory
    (tmp_path / "spec.txt").write_text("0 1\n2 3\n")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-c", _LIMITED, *argv], cwd=tmp_path,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    deadline = time.monotonic() + 10.0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    if not pid:
        proc.kill()
        proc.wait()
        pytest.fail(f"entrocut {' '.join(argv)} still ran after 10 s")
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stderr:
        assert (proc.returncode, proc.stderr.read().decode()) == (code, err)
    assert usage.ru_maxrss < 200 * 1024          # kilobytes
