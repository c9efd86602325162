#!/usr/bin/env python3
"""Smoke test of the benchmark runner on small corpora.

    python3 perfbench/smoke.py

Checks, in a few minutes on a 4-core host, that

* pytest's configured collection (``testpaths``, ``python_files`` in
  pyproject.toml) picks up no file of this directory;
* every workload prints every end-to-end metric of BENCHMARK.json untraced
  and every per-layer metric traced, with its unit, and no failed operation;
* a deliberately perturbed result counts as one failed operation;
* in a directory that holds only BENCHMARK.json and this directory, the
  runner exits non-zero without printing a result.

Exits 0 when all hold; prints what failed otherwise.
"""
from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.1"


def run(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    pytest_cfg = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    here = str(HERE.relative_to(ROOT))
    if any(here == p or here.startswith(p + "/") for p in pytest_cfg["testpaths"]):
        problems.append(f"{here} lies under pytest testpaths {pytest_cfg['testpaths']}")
    for f in HERE.rglob("*.py"):
        if any(fnmatch.fnmatch(f.name, pat) for pat in pytest_cfg["python_files"]):
            problems.append(f"{f.name} matches pytest python_files")

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = run("--workload", w["name"], "--seed", "17",
                                 "--seconds", "1", "--trace", str(trace), "--scale", SCALE)
            label = f"{w['name']} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{label}: exit {code}\n{err[-2000:]}")
                continue
            if res["failed"] or not res["correct"]:
                problems.append(f"{label}: {res['failed']} of {res['attempted']} failed")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or not in {m['unit']}")
            print(f"{label}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} operations, {res['failed']} failed")

    name = spec["workloads"][0]["name"]
    code, res, err = run("--workload", name, "--seconds", "1", "--scale", SCALE, "--perturb")
    if code != 0 or res is None or res["failed"] != 1 or res["correct"]:
        problems.append(f"--perturb: expected exactly one failed operation, got "
                        f"exit {code}, {res and (res['failed'], res['correct'])}")
    else:
        print(f"--perturb: {res['failed']} of {res['attempted']} failed, as expected")

    bare = HERE / ".run" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / here, ignore=shutil.ignore_patterns(".run", "__pycache__"))
        code, res, _ = run("--workload", name, "--seconds", "1", cwd=bare)
        if code == 0 or res is not None:
            problems.append(f"without src/: exit {code}, result {res}")
        else:
            print(f"without src/: exit {code}, no result, as expected")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
