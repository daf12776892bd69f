#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny workload sizes.

    python3 perfbench/test_perfbench.py

- a tiny run of every workload verifies its bytes;
- the single-rank workloads give identical modelled metrics (end-to-end and
  per-layer) for one seed run twice, and different op streams for different
  seeds;
- the output names exactly the metrics listed in BENCHMARK.json;
- without the repository sources the benchmark fails without a result.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SINGLE_RANK = ("random_update", "ckpt_ec")

# Host-clock metrics; everything else is modelled or counted and must repeat.
HOST_METRICS = re.compile(r"(^|\.)(setup_s|host_s|peak_rss_mb)$|host|^bench\.")


def run(workload, seed, trace=0, cwd=ROOT, seconds="0.1"):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", seconds, "--trace",
           str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


def digest(proc):
    m = re.search(r"op_stream_digest (\w+)", proc.stdout)
    assert m, proc.stdout
    return m.group(1)


def modelled(res):
    return {k: v["value"] for k, v in res["metrics"].items()
            if not HOST_METRICS.search(k)}


class PerfbenchTest(unittest.TestCase):

    def test_every_workload_verifies_its_bytes(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], seed=7)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result(proc)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)

    def test_single_rank_workloads_repeat_exactly(self):
        for w in SINGLE_RANK:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    a, b = run(w, 11, trace), run(w, 11, trace)
                    self.assertEqual(digest(a), digest(b))
                    self.assertEqual(modelled(result(a)),
                                     modelled(result(b)))

    def test_seeds_change_the_op_stream(self):
        for w in SINGLE_RANK:
            with self.subTest(workload=w):
                self.assertNotEqual(digest(run(w, 1)), digest(run(w, 2)))

    def test_output_names_every_listed_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    res = result(run(w["name"], 3, trace))
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_repository_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, tmp / p)
            proc = run("random_update", 1, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
