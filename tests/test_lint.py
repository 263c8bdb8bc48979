"""Static checks of the source tree: every imported name and private helper is used.

An AST scan stands in for a linter's F401.  A name counts as used when it is
read anywhere in its module or listed in ``__all__``.  A name is exempt when
``# noqa: F401`` stands on its own line or on the first line of its import,
and so are ``from __future__`` imports.

A second scan finds dead private helpers: every function, method or class
whose name starts with ``_`` (dunders aside) must be referenced somewhere in
the tree, as a bare name or as an attribute.

A third finds dead public surface: every public function, method or property
under ``src/`` must be referenced the same way somewhere in ``src/``,
``tests/`` or ``perfbench/``.  A name in ``__all__`` alone does not count.

A fourth keeps the rendezvous cell behind the session: only ``rpc.py``
names ``RendezvousCell``, so a driver sees nothing of the protocol but
``fetch``.  Likewise only ``devcomp.py`` (which defines it), ``qpu.py``
(which charges it per fetch) and ``drivers/accounting.py`` (whose
``loop_costs`` states the pricing law) name ``RPC_ROUNDTRIP_S``, so a
scenario cannot write its own copy of the law.

A fifth keeps the per-circuit compile path free of memo caches: no
function in ``transpile.py``, ``pulse.py`` or ``devcomp.py`` carries a
``functools.cache`` or ``lru_cache`` decorator, so a table that shares work
lives inside one call and every circuit is still compiled.

A sixth is a ratchet on settable options: every defaulted parameter (of a
function, method or lambda) and every dataclass field that ``__init__``
accepts with a default, under ``src/dlpc``, plus every CLI flag, is counted
against a pinned number.  An option that is added must be justified and
pinned; one that is removed lowers the pin.

A seventh keeps the VM's linear algebra in one place: ``qpu.py`` names no
``dot``, ``matmul``, ``tensordot`` or ``einsum`` and uses no ``@``
operator, so every contraction goes through ``ir._apply_gate`` and the
``ir._apply_gate`` entries of ``tests/work_counts.json`` count them all.

An eighth keeps the pipeline fork in one place: no module under
``drivers/`` but ``accounting.py`` names ``run_session``, ``CompileLog``,
``ExecutionTrace`` or ``costs_from``, so each driver runs both pipelines
through ``accounting.run_loop`` and holds only its host loop and kernels.

A ninth keeps the tree on Python 3.10, the oldest ``requires-python``
admits: every module under ``src/``, ``tests/`` and ``perfbench/`` parses
with a 3.10 grammar (no ``except*``), and no name, attribute or import
under ``src/`` or ``perfbench/`` is one that only 3.11 or later defines,
such as ``enum.global_enum`` or ``BaseException.add_note``.  It reads the
AST, so a comment may still name them.

A tenth keeps the wire codec on the standard library: every import in
``rpc.py`` names a module in ``sys.stdlib_module_names`` or is a relative
``dlpc`` import.  ``array`` and ``struct`` reject a float or an out-of-range
field, where a numpy cast such as ``np.asarray(..., dtype=np.uint32)``
truncates it silently, and a codec must never corrupt a frame silently.

An eleventh keeps the session's waits untimed: no call in ``rpc.py`` passes
a ``timeout=`` keyword, and ``settimeout`` is called only inside a branch of
``_SocketTransport.recv``, the split-frame path that arms a frame's deadline
and disarms it.  A timed wait arms a kernel timer on every hand-off, and a
poll loop wakes on it for nothing.

A twelfth keeps the VM's dispatch loop a pure executor: ``qpu._Vm._exec_window``
and ``qpu._Vm.run`` contain no ``raise``.  Every structural rule is
``KernelBinary``'s, checked once when a kernel is built, and a kernel that
needs a launch is refused without one before it runs, so nothing is re-tested
on every dispatch and a run can only end at HALT.

A thirteenth keeps thread start and join in the module that owns the session:
under ``src/dlpc`` only ``rpc.py`` imports ``threading``, so every thread a run
starts is one that ``run_session`` joins before it returns or raises.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Callable

import pytest

from dlpc.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
USERS = sorted(p for tree in ("src", "tests", "perfbench") for p in (ROOT / tree).rglob("*.py"))


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if not any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_scan_sees_the_whole_tree():
    assert any(path.name == "cli.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import_and_honours_noqa(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401 - kept for its side effect\n"
        "from json import (\n"
        "    JSONDecoder,  # noqa: F401 - re-exported\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "print(dumps)\n"
    )
    assert unused_imports(module) == ["m.py:2 os", "m.py:7 loads"]


def unreferenced_private_definitions(paths: list[Path]) -> list[str]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(where for name, where in defined.items() if name not in referenced)


def test_every_private_helper_is_referenced():
    assert unreferenced_private_definitions(MODULES) == []


def test_scan_flags_an_unreferenced_private_helper(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class _Box:\n"
        "    def __init__(self):\n"
        "        self._fill()\n"
        "    def _fill(self):\n"
        "        pass\n"
        "    def _spill(self):\n"
        "        pass\n"
        "def _dead():\n"
        "    return _Box()\n"
        "def _used():\n"
        "    pass\n"
    )
    other = tmp_path / "n.py"
    other.write_text("from m import _used\n_used()\n")
    assert unreferenced_private_definitions([module, other]) == ["m.py:6 _spill", "m.py:8 _dead"]


def unreferenced_public_functions(defining: list[Path], referencing: list[Path]) -> list[str]:
    defined: dict[str, str] = {}
    for path in defining:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno} {node.name}")
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in referencing
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return sorted(where for name, where in defined.items() if name not in referenced)


def test_every_public_function_is_referenced():
    assert any(path.parent.name == "perfbench" for path in USERS)
    assert unreferenced_public_functions(MODULES, USERS) == []


def test_scan_flags_an_unreferenced_public_function(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "__all__ = ['dead']\n"
        "class Box:\n"
        "    def fill(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "def dead():\n"
        "    pass\n"
        "def used():\n"
        "    return Box()\n"
    )
    test = tmp_path / "test_m.py"
    test.write_text("from m import used\nused().fill()\n")
    assert unreferenced_public_functions([module], [module, test]) == [
        "m.py:6 size", "m.py:8 dead"
    ]


def test_only_rpc_names_the_rendezvous_cell():
    naming = [p.relative_to(SRC).as_posix() for p in MODULES if "RendezvousCell" in p.read_text()]
    assert naming == ["dlpc/rpc.py"]


def test_only_the_vm_and_the_law_name_the_rpc_price():
    naming = [p.relative_to(SRC).as_posix() for p in MODULES if "RPC_ROUNDTRIP_S" in p.read_text()]
    assert naming == ["dlpc/devcomp.py", "dlpc/drivers/accounting.py", "dlpc/qpu.py"]


# The baseline's per-circuit path, from drawing an RB circuit to executing its
# kernel: a memo cache here would let a circuit skip work the paper's baseline pays.
PER_CIRCUIT = [
    SRC / "dlpc" / name
    for name in ("transpile.py", "pulse.py", "devcomp.py", "qpu.py", "drivers/rb.py")
]


def cache_decorated(paths: list[Path]) -> list[str]:
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "id", getattr(target, "attr", None)) in ("cache", "lru_cache"):
                        found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_per_circuit_compile_path_has_no_memo_cache():
    assert all(path.exists() for path in PER_CIRCUIT)
    assert cache_decorated(PER_CIRCUIT) == []


def test_scan_flags_cache_decorators_but_not_cached_property(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@cache\n"
        "def a():\n"
        "    pass\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def b():\n"
        "    pass\n"
        "@lru_cache\n"
        "def c():\n"
        "    pass\n"
        "class K:\n"
        "    @cached_property\n"
        "    def d(self):\n"
        "        return 0\n"
        "    @functools.cache\n"
        "    def e(self):\n"
        "        return 0\n"
    )
    assert cache_decorated([module]) == ["m.py:4 a", "m.py:7 b", "m.py:10 c", "m.py:17 e"]


CONTRACTIONS = ("dot", "matmul", "tensordot", "einsum")


def contractions(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "attr", getattr(node, "id", None))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, node.col_offset, "@"))
        elif isinstance(node, (ast.Attribute, ast.Name)) and name in CONTRACTIONS:
            found.append((node.lineno, node.col_offset, name))
    return [f"{path.name}:{line} {name}" for line, _, name in sorted(found)]


def test_the_vm_contracts_only_through_apply_gate():
    assert contractions(SRC / "dlpc" / "qpu.py") == []


def test_scan_flags_every_contraction_spelling(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\n"
        "from numpy import einsum\n"
        "from dlpc.ir import _apply_gate\n"
        "a = np.dot(x, y)\n"
        "b = x @ y\n"
        "b @= x\n"
        "c = np.matmul(x, y) + np.tensordot(x, y, 1)\n"
        "d = einsum('ij,j', x, y) + x.dot(y)\n"
        "e = _apply_gate(x, y, (0,), 1) * np.abs(x) ** 2\n"
    )
    assert contractions(module) == [
        "m.py:4 dot", "m.py:5 @", "m.py:6 @", "m.py:7 matmul",
        "m.py:7 tensordot", "m.py:8 einsum", "m.py:8 dot",
    ]


RUNNER = re.compile(r"\b(run_session|CompileLog|ExecutionTrace|costs_from)\b")


def runner_names(paths: list[Path]) -> list[str]:
    return [
        f"{path.name}:{n} {name}"
        for path in paths
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for name in RUNNER.findall(line)
    ]


def test_only_the_runner_forks_the_pipelines():
    drivers = sorted((SRC / "dlpc" / "drivers").glob("*.py"))
    assert {p.name for p in drivers} >= {"accounting.py", "vqe.py", "rb.py", "calibration.py"}
    assert runner_names([p for p in drivers if p.name != "accounting.py"]) == []


def test_scan_flags_every_runner_name_but_not_lookalikes(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from ..rpc import run_session\n"
        "from ..devcomp import CompileLog, CompileLogger\n"
        "trace: qpu.ExecutionTrace = run_sessions()\n"
        "# costs_from(log, traces)\n"
        "my_costs_from = 1\n"
    )
    assert runner_names([module]) == [
        "m.py:1 run_session", "m.py:2 CompileLog", "m.py:3 ExecutionTrace", "m.py:4 costs_from"
    ]


# Pinned counts: change one only with the option it adds or removes.
SETTABLE_OPTIONS = 71
CLI_FLAGS = 42


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def settable_options(paths: list[Path]) -> list[str]:
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                n = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                found += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}"] * n
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [
                    f"{path.name}:{item.lineno} {node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and item.value is not None
                    and not _init_false(item.value)
                ]
    return found


def cli_flags() -> list[str]:
    (subparsers,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return [
        f"{name} {flag}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    ]


def test_settable_options_are_pinned():
    options, flags = settable_options(MODULES), cli_flags()
    why = "update the pin in tests/test_lint.py and justify the option in the change"
    assert len(options) == SETTABLE_OPTIONS, f"{len(options)} settable options: {why}"
    assert len(flags) == CLI_FLAGS, f"{len(flags)} CLI flags: {why}"


def test_option_scan_counts_defaults_and_init_fields(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = field(init=False, compare=False)\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    v: int = 1\n"
        "class C:\n"
        "    u: int = 2\n"
        "def f(a, b=1, *, c, d=2):\n"
        "    return lambda e=3: e\n"
    )
    assert settable_options([module]) == [
        "m.py:6 A.y", "m.py:7 A.z", "m.py:11 B.v", "m.py:14 f", "m.py:14 f", "m.py:15 lambda"
    ]


# Names that only Python 3.11 or later defines, in the stdlib or as builtins.
NEWER_THAN_310 = frozenset({
    "global_enum", "add_note", "StrEnum", "ExceptionGroup", "BaseExceptionGroup",
    "TaskGroup", "tomllib", "Self", "UTC",
})


def newer_than_310(path: Path, names: bool = True) -> list[str]:
    """Syntax a 3.10 grammar rejects, else (with ``names``) each 3.11-only name used."""
    try:
        tree = ast.parse(path.read_text(), feature_version=(3, 10))
    except SyntaxError as e:
        return [f"{path.name}:{e.lineno} {e.msg}"]
    if not names:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used = [node.id]
        elif isinstance(node, ast.Attribute):
            used = [node.attr]
        elif isinstance(node, ast.alias):
            used = node.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            used = (node.module or "").split(".")
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in used if name in NEWER_THAN_310]
    return found


def test_the_tree_runs_on_python_3_10():
    tests = ROOT / "tests"
    assert [f for path in USERS for f in newer_than_310(path, tests not in path.parents)] == []


def test_python_3_10_scan_flags_except_star_and_newer_names(tmp_path):
    star = tmp_path / "star.py"
    star.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    module = tmp_path / "names.py"
    module.write_text(
        "import enum\n"
        "import tomllib\n"
        "from typing import Self\n"
        "# enum.global_enum, in a comment\n"
        "@enum.global_enum\n"
        "class E(enum.IntEnum):\n"
        "    A = 1\n"
        "def f(e):\n"
        "    e.add_note('x')\n"
    )
    (found,) = newer_than_310(star, names=False)
    assert found.startswith("star.py:") and "only supported in Python 3.11" in found
    assert newer_than_310(module) == [
        "names.py:2 tomllib", "names.py:3 Self", "names.py:5 global_enum", "names.py:9 add_note"
    ]
    assert newer_than_310(module, names=False) == []


def imports(path: Path, wanted: Callable[[str], bool]) -> list[str]:
    """Each absolute import in ``path`` whose top-level package is ``wanted``; relative ones pass."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} {module}"
            for module in modules
            if wanted(module.split(".")[0])
        ]
    return found


def nonstandard_imports(path: Path) -> list[str]:
    """Each import in ``path`` of a module outside the standard library; relative ones pass."""
    return imports(path, lambda top: top not in sys.stdlib_module_names)


def test_the_wire_codec_imports_only_the_standard_library():
    assert nonstandard_imports(SRC / "dlpc" / "rpc.py") == []


def test_stdlib_scan_flags_numpy_but_not_stdlib_or_relative_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path, struct\n"
        "from array import array\n"
        "from . import ir\n"
        "from .devcomp import KernelBinary\n"
        "import numpy\n"
        "import numpy as np\n"
        "from numpy import frombuffer\n"
        "from dlpc import ir\n"
    )
    assert nonstandard_imports(module) == [
        "m.py:6 numpy", "m.py:7 numpy", "m.py:8 numpy", "m.py:9 dlpc"
    ]


SPLIT_FRAME_READER = "_SocketTransport.recv"


def timed_waits(path: Path) -> list[str]:
    """Calls that pass ``timeout=``, and ``settimeout`` calls off the split-frame path."""
    found = []

    def visit(node: ast.AST, scope: str, in_branch: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."), False)
                continue
            if isinstance(child, ast.Call):
                if any(k.arg == "timeout" for k in child.keywords):
                    found.append(f"{path.name}:{child.lineno} timeout=")
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name == "settimeout" and not (scope == SPLIT_FRAME_READER and in_branch):
                    found.append(f"{path.name}:{child.lineno} settimeout")
            visit(child, scope, in_branch or isinstance(child, ast.If))

    visit(ast.parse(path.read_text()), "", False)
    return found


def test_session_waits_are_untimed():
    assert timed_waits(SRC / "dlpc" / "rpc.py") == []


def test_timed_wait_scan_flags_timeouts_off_the_split_frame_path(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import threading\n"
        "lock = threading.Lock()\n"
        "lock.acquire(timeout=0.05)\n"
        "lock.acquire()\n"
        "def read(sock):\n"
        "    if sock:\n"
        "        sock.settimeout(1.0)\n"
        "class _SocketTransport:\n"
        "    def recv(self):\n"
        "        self._sock.settimeout(2.0)\n"
        "        if self._buf:\n"
        "            self._sock.settimeout(1.0)\n"
        "        return self._sock.recv(1)\n"
    )
    assert timed_waits(module) == ["m.py:3 timeout=", "m.py:7 settimeout", "m.py:10 settimeout"]


def threading_imports(path: Path) -> list[str]:
    """Each ``import threading`` or ``from threading import ...`` in ``path``."""
    return imports(path, lambda top: top == "threading")


def test_only_the_session_imports_threading():
    importing = [p.relative_to(SRC).as_posix() for p in MODULES if threading_imports(p)]
    assert importing == ["dlpc/rpc.py"]


def test_threading_scan_flags_each_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import threading\n"
        "from threading import Thread\n"
        "import os, threading as th\n"
        "from concurrent import futures\n"
        "from . import threading_helpers\n"
        "import threadpoolctl\n"
        "# import threading\n"
    )
    assert threading_imports(module) == ["m.py:1 threading", "m.py:2 threading", "m.py:3 threading"]


def dispatch_raises(path: Path) -> list[str]:
    """Every ``raise`` in ``_Vm._exec_window`` and ``_Vm.run``."""
    found = [
        (node.lineno, ast.unparse(node.exc) if node.exc else "raise")
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and cls.name == "_Vm"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_exec_window", "run")
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise)
    ]
    return [f"{path.name}:{line} {text}" for line, text in sorted(found)]


def test_the_dispatch_loop_raises_only_run_errors():
    # no run error is left: the kernel's structure and its launch are checked before it runs
    assert dispatch_raises(SRC / "dlpc" / "qpu.py") == []


def test_dispatch_scan_flags_a_structural_raise_in_the_loop_only(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class _Vm:\n"
        "    def _exec_window(self, start, end, shots):\n"
        "        if start:\n"
        "            raise UninitializedSlot('slot 0 read before first write')\n"
        "        raise\n"
        "    def _load(self, directive):\n"
        "        raise VmError('circuit references block 24 of 24')\n"
        "    def run(self):\n"
        "        raise VmError('kernel ran off the end without HALT')\n"
        "def run():\n"
        "    raise ValueError('not the VM')\n"
    )
    assert dispatch_raises(module) == [
        "m.py:4 UninitializedSlot('slot 0 read before first write')",
        "m.py:5 raise",
        "m.py:9 VmError('kernel ran off the end without HALT')",
    ]
