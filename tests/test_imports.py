"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

An import cycle only bites when its modules are entered in an unlucky
order, and within one test process every package is already loaded by
the time a test runs.  Each import here therefore gets its own
subprocess, so a cycle shows up whichever package a user imports first.
"""

from __future__ import annotations

import ast
import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SUBPACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def _import_alone(package: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", f"import {package}"],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def test_every_subpackage_is_listed():
    assert {"repro.webl", "repro.sources.web",
            "repro.core.extractor"} <= set(SUBPACKAGES)


def test_each_subpackage_imports_in_a_fresh_interpreter():
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = dict(zip(SUBPACKAGES, pool.map(_import_alone, SUBPACKAGES)))
    failures = {package: run.stderr.strip().splitlines()[-1:]
                for package, run in runs.items() if run.returncode != 0}
    assert not failures, failures


def _imported_modules(path: Path, package: str) -> set[str]:
    """Absolute names of every module ``path`` imports, relative
    imports resolved against ``package``."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[:len(package.split("."))
                                           - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            modules.add(base)
            modules.update(f"{base}.{alias.name}" for alias in node.names)
    return modules


def test_cluster_does_not_import_ingest():
    """The fleet scheduler serves ingest runs without knowing them: no
    module of ``repro.core.cluster`` imports ``repro.core.ingest``.

    A static check, because ``repro.core`` imports both packages, so a
    fresh interpreter cannot tell which one pulled the other in."""
    cluster_dir = Path(SRC_DIR) / "repro" / "core" / "cluster"
    offenders = {
        path.name: sorted(name for name in _imported_modules(
            path, "repro.core.cluster")
            if name == "repro.core.ingest"
            or name.startswith("repro.core.ingest."))
        for path in sorted(cluster_dir.glob("*.py"))}
    assert len(offenders) >= 5
    assert not {name: found for name, found in offenders.items() if found}
