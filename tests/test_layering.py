"""Layering guards: the algorithm layers must not import the simulator.

The runtime refactor's core promise is that :mod:`repro.policies`,
:mod:`repro.core` and the buffer-manager layer depend only on the
:mod:`repro.runtime.base` protocols, so the identical code runs under
the discrete-event simulator *and* on real OS threads. These tests
enforce that promise structurally: a subprocess blocks
``repro.simcore`` (and :mod:`repro.sync`, the sim lock) in
``sys.modules`` and then imports the algorithm layers — any stray
simulator import fails immediately.

A stub ``repro`` parent package is installed first because the real
``repro/__init__`` re-exports harness entry points that legitimately
pull in the simulator; the layers under test must not.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_GUARD_TEMPLATE = """
import sys
import types

# Stand-in parent package: module lookups resolve against the real
# source tree, but repro/__init__.py (which imports the harness, and
# through it the simulator) never runs.
stub = types.ModuleType("repro")
stub.__path__ = [{pkg_path!r}]
sys.modules["repro"] = stub

# repro.sync's __init__ re-exports SimLock (sim-layer), but
# repro.sync.stats is plain counters both runtimes share — stub the
# package so stats resolves without the init running.
sync_stub = types.ModuleType("repro.sync")
sync_stub.__path__ = [{pkg_path!r} + "/sync"]
sys.modules["repro.sync"] = sync_stub

# Block the simulator and the sim lock: any import attempt raises
# ImportError ("import of repro.simcore halted").
for banned in ("repro.simcore", "repro.sync.locks"):
    sys.modules[banned] = None

import {module}
print("ok")
"""


def _import_with_sim_blocked(module: str) -> None:
    pkg_path = str(SRC / "repro")
    script = _GUARD_TEMPLATE.format(pkg_path=pkg_path, module=module)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, (
        f"{module} pulled in the simulator:\n{result.stderr}")
    assert result.stdout.strip() == "ok"


@pytest.mark.parametrize("module", [
    "repro.runtime.base",
    "repro.runtime.native",
    "repro.runtime.mp",
    "repro.policies",
    "repro.core",
    "repro.bufmgr.descriptors",
    "repro.bufmgr.manager",
    "repro.bufmgr.hashtable",
    "repro.util",
])
def test_layer_is_simulator_free(module):
    """Each algorithm-layer package imports with repro.simcore blocked."""
    _import_with_sim_blocked(module)


def test_guard_has_teeth():
    """The same harness fails for a module that does use the simulator."""
    script = _GUARD_TEMPLATE.format(
        pkg_path=str(SRC / "repro"), module="repro.simcore.engine")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert result.returncode != 0


# -- nobody reaches around the wrapper --------------------------------------

#: Where a handler's underscore attributes are the module's own business.
_HANDLER_INSIDERS = ("repro/core/", "repro/harness/systems.py")


def _handler_private_reads(tree):
    """Underscore-prefixed attributes read through ``<expr>.handler``."""
    return [f"line {node.lineno}: .handler.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "handler"]


def test_no_module_reads_a_handlers_private_attributes():
    """Callers ask the handler (``locks``, ``lock_stats()``,
    ``queues()``, ``new_slot()``); none pokes at its insides."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if any(inside in path.as_posix() for inside in _HANDLER_INSIDERS):
            continue
        reads = _handler_private_reads(ast.parse(path.read_text()))
        offenders.extend(f"{path.relative_to(SRC)} {read}"
                         for read in reads)
    assert not offenders, offenders


def test_handler_guard_has_teeth():
    poke = "self.handler." + "_hit_op = build.handler.lock"
    assert _handler_private_reads(ast.parse(poke)) == [
        "line 1: .handler." + "_hit_op"]


# -- numpy only where a Zipf rank is drawn ----------------------------------

def test_import_and_a_tablescan_run_leave_numpy_unloaded():
    """``import repro`` and a tablescan run never load numpy: only the
    Zipf sampler needs it, and it imports numpy when built."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro import ExperimentConfig, run_experiment\n"
        "loaded = 'numpy' in sys.modules\n"
        "run_experiment(ExperimentConfig(system='pgBatPre',"
        " workload='tablescan', workload_kwargs={'n_tables': 2,"
        " 'pages_per_table': 20}, n_processors=2, target_accesses=500))\n"
        "print(loaded, 'numpy' in sys.modules)\n")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]
