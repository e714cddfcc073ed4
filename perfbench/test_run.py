#!/usr/bin/env python3
"""Tests of the benchmark command itself.

    python3 perfbench/test_run.py

Run from the repository root. Each test runs `perfbench/run.py` as a
separate command, so the first one also builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                         or os.path.join(ROOT, ".bench_build"))


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600, check=False)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def bare_copy(into):
    """Copy `BENCHMARK.json` and `perfbench/` alone into `into`."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)
    shutil.copytree(HERE, os.path.join(into, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return os.path.join(into, "perfbench")


def scratch_dir():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    return tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out"))


class RunTest(unittest.TestCase):
    def test_pinned_seed_passes_every_check(self):
        done = run_bench("--workload", "corpus", "--seed", "42", "--seconds", "1",
                         "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for name in ("wall_s", "setup_s", "peak_rss_mib"):
            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_wrong_reference_digest_fails_every_pass(self):
        with scratch_dir() as copy:
            bench = bare_copy(copy)
            # Build the copy against this repository's crates, into the
            # same target directory, and pin a wrong digest for seed 42.
            manifest = os.path.join(bench, "Cargo.toml")
            with open(manifest, encoding="utf-8") as f:
                text = f.read()
            crates = os.path.join(ROOT, "crates")
            with open(manifest, "w", encoding="utf-8") as f:
                f.write(text.replace('path = "../crates/', f'path = "{crates}/'))
            spec_path = os.path.join(bench, "spec.json")
            with open(spec_path, encoding="utf-8") as f:
                spec = json.load(f)
            spec["references"]["42"]["corpus"] = "0000000000000000"
            with open(spec_path, "w", encoding="utf-8") as f:
                json.dump(spec, f)
            done = run_bench("--workload", "corpus", "--seed", "42", "--seconds", "1",
                             "--trace", "0", cwd=copy,
                             env={**os.environ, "CARGO_TARGET_DIR": TARGET})
        self.assertNotEqual(done.returncode, 0)
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_without_the_repository_it_fails_without_a_result(self):
        with scratch_dir() as bare:
            bare_copy(bare)
            done = run_bench("--workload", "fleet", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
