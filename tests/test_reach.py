"""Every public name of the package is run by a command or by the benchmark.

The walk starts at `cli.main` and at the `ec.<name>` attributes the
benchmark's workloads read (`perfbench/workloads.py`, parsed, not
imported).  From each module-level definition it reaches, it follows every
name the definition's source mentions: a name defined at module level in
the same module, or imported there from a sibling module.  A reached class
counts with its whole body, methods included.  A name in `entrocut.__all__`
that the walk never reaches is run by nothing but the tests, and belongs in
`tests/` or nowhere.  A walk of the same kind, over `cli.py` alone, checks
that each command reads every setting it offers and offers every setting
it reads.
"""

import ast
import dataclasses
from pathlib import Path

import entrocut
import entrocut.cli as cli
from entrocut.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entrocut"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _module_tables() -> tuple[dict, dict]:
    """(defs, imports): defs[module][name] is the module-level node that
    binds name; imports[module][name] is the (module, name) it imports."""
    defs: dict = {}
    imports: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        defs[mod], imports[mod] = {}, {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[mod][name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module, alias.name)
    return defs, imports


def _benchmark_names() -> set[str]:
    """The attributes read off the package object `ec` (or `self.ec`)."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "ec") or \
                    (isinstance(owner, ast.Attribute) and owner.attr == "ec"):
                names.add(node.attr)
    return names


def _reached() -> set[tuple[str, str]]:
    defs, imports = _module_tables()

    def resolve(mod: str, name: str) -> tuple[str, str] | None:
        seen = set()
        while (mod, name) not in seen:
            seen.add((mod, name))
            if name in defs[mod]:
                return mod, name
            if name not in imports[mod]:
                return None
            mod, name = imports[mod][name]
        return None

    roots = [("cli", "main")] + [resolve("__init__", n) for n in sorted(_benchmark_names())]
    assert None not in roots, "the benchmark reads a name the package does not define"
    reached: set[tuple[str, str]] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        mod, name = key
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                found = resolve(mod, node.id)
                if found is not None:
                    todo.append(found)
    return reached


def test_every_public_name_is_reached_by_a_command_or_the_benchmark():
    assert len(_benchmark_names()) == 10     # the parse found the benchmark's reads
    reached = _reached()
    _, imports = _module_tables()
    unreached = sorted(name for name in entrocut.__all__
                       if imports["__init__"][name] not in reached)
    assert unreached == [], f"run only by the tests: {', '.join(unreached)}"


def test_a_handler_reads_every_setting_it_offers():
    # cli.py's rule: a flag named after a RunConfig field goes only to a
    # command whose handler, or a cli function it calls, reads cfg.<field>;
    # and each field it reads is offered as a flag, not only as a config key
    defs = _module_tables()[0]["cli"]

    def reads(name: str, seen: set) -> set[str]:
        seen.add(name)
        found = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg":
                found.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) not in seen \
                    and isinstance(defs.get(getattr(node.func, "id", None)), ast.FunctionDef):
                found |= reads(node.func.id, seen)
        return found

    fields = {f.name for f in dataclasses.fields(RunConfig)}
    offered_anywhere: set[str] = set()
    for command, (handler, _, flags) in cli._COMMANDS.items():
        offered = fields & {cli._FLAG_OPTIONS.get(flag, {}).get("dest", flag)
                            for flag in ("config", "out", *flags)}
        offered_anywhere |= offered
        read = reads(handler.__name__, set())
        assert not offered - read, f"{command} offers but never reads {sorted(offered - read)}"
        assert not read - offered, f"{command} reads but never offers {sorted(read - offered)}"
    assert offered_anywhere == fields, f"offered by no command: {sorted(fields - offered_anywhere)}"
