"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

An import cycle only bites when its modules are entered in an unlucky
order, and within one test process every package is already loaded by
the time a test runs.  Each import here therefore gets its own
subprocess, so a cycle shows up whichever package a user imports first.
"""

from __future__ import annotations

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
