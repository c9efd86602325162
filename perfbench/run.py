#!/usr/bin/env python3
"""The repository benchmark: end-to-end ``mine()`` time, plus a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload amznf-t3 --seed 17 --seconds 8 --trace 0

``--trace 0`` times the public API: ``mine(..., algorithm="dseq")`` and
``mine(..., algorithm="dcand")`` (no ``dictionary=``, collected to the
driver), in rounds until ``--seconds`` have passed and two rounds are done,
and reports medians. ``--trace 1`` also times ``mine_sequential``, calls the
functions ``mine()`` calls, in the same order, and times each from here;
then it replays the per-sequence kernels Spark-free on the driver
(``replay.py``). Every result, timed or replayed, is compared with a
reference computed after the timed region by an oracle independent of the
miners (``workloads.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is ``{"info": ...}`` with the settings, versions, input hash and raw samples
that make two runs comparable. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter as clock
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up is repeated this often per run; setup_s reports the median.
SETUP_REPEATS = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the corpus size (smoke runs use < 1)")
    p.add_argument("--perturb", action="store_true",
                   help="drop one pattern from the first timed D-SEQ result, "
                        "to show that the correctness gate counts it")
    return p.parse_args(argv)


# -- Spark session ----------------------------------------------------------

def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2..8 (the Tier-1 test rule).

    The cgroup limit is not used: on some hosts it reads as "unlimited".
    """
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        return f"{min(8, max(2, kib // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def spark_settings(run_dir: Path) -> Dict[str, str]:
    k = min(4, len(os.sched_getaffinity(0)))
    return {
        "spark.master": f"local[{k}]",
        "spark.driver.memory": driver_memory(),
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        # Spark's default of 200 shuffle partitions suits a cluster; on
        # local[k] it turns every f-list stage into 200 tiny tasks.
        "spark.sql.shuffle.partitions": str(2 * k),
        # Executors are Python workers forked by the JVM: they import repro
        # from the checkout's src/, with no installed package needed.
        "spark.executorEnv.PYTHONPATH": str(SRC),
        # Keep every file Spark and the JVM write inside the checkout.
        "spark.local.dir": str(run_dir),
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={run_dir} -XX:-UsePerfData",
    }


def start_spark(settings: Dict[str, str]):
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in settings.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def descendants(pid: int) -> List[int]:
    """PIDs of every living descendant of ``pid``, from /proc."""
    children: Dict[int, List[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we looked
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def wait_gone(pids: List[int], timeout: float) -> None:
    """Wait until every process in ``pids`` has ended; kill what remains."""
    deadline = clock() + timeout
    while pids and clock() < deadline:
        pids = [p for p in pids if Path(f"/proc/{p}").exists()]
        if pids:
            time.sleep(0.05)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def stop_spark(spark) -> None:
    """Stop the session, then the JVM and the Python workers it started,
    and wait until all of them have exited."""
    from pyspark import SparkContext

    started = descendants(os.getpid())
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits on EOF
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    # The pyspark daemon and its workers exit once the JVM has gone.
    wait_gone(started, timeout=30)


# -- operations -------------------------------------------------------------

class Ops:
    """Counts operations and remembers each result's digest for the gate.

    A call that raises is a failed operation; the result of every call is
    checked against the reference once that exists (``check``).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: List[tuple] = []  # (label, digest, patterns)

    def call(self, label: str, fn: Callable[[], dict]):
        from workloads import result_digest

        self.attempted += 1
        t0 = clock()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return clock() - t0, None
        seconds = clock() - t0
        self.digests.append((label, result_digest(result), len(result)))
        return seconds, result

    def check(self, reference_digest: str) -> None:
        for label, digest, _ in self.digests:
            if digest != reference_digest:
                print(f"result of {label} differs from the reference", file=sys.stderr)
                self.failed += 1


# -- the benchmark ----------------------------------------------------------

class Bench:
    def __init__(self, spark, w, args) -> None:
        self.spark, self.w, self.args = spark, w, args
        self.ops = Ops()
        self.info: Dict = {}

    def setup_data(self) -> List[float]:
        """Generate the corpus and cache it as a DataFrame, several times."""
        from workloads import corpus, sequences_sha256

        times = []
        for i in range(SETUP_REPEATS):
            t0 = clock()
            seqs, hierarchy = corpus(self.w, self.args.seed)
            df = self.spark.createDataFrame(
                list(enumerate(seqs)), "seq_id long, items array<string>"
            ).cache()
            df.count()
            times.append(clock() - t0)
            if i < SETUP_REPEATS - 1:
                df.unpersist(blocking=True)
        self.seqs, self.hierarchy, self.df = seqs, hierarchy, df
        self.info["input_sha256"] = sequences_sha256(seqs)
        self.info["sequences"] = len(seqs)
        self.info["items"] = sum(map(len, seqs))
        return times

    # The three public API calls, each consuming its result.
    def mine(self, algorithm: str) -> dict:
        from repro.core import mine

        out = mine(self.spark, self.df, self.hierarchy, self.w.expr, self.w.sigma,
                   algorithm=algorithm)
        return {r["pattern"]: r["support"] for r in out.collect()}

    def mine_sequential(self) -> dict:
        from repro.core import mine_sequential

        res = mine_sequential(self.seqs, self.hierarchy, self.w.expr, self.w.sigma)
        return {" ".join(p): f for p, f in res.items()}

    def warm_up(self) -> None:
        """One untimed call of each Spark path: it starts the Python workers
        and compiles the JVM's code paths, which makes the first calls much
        slower than later ones."""
        for algorithm in ("dseq", "dcand"):
            self.ops.call(f"warm-up {algorithm}", lambda: self.mine(algorithm))

    def measure(self, ops, min_rounds: int = 1) -> Dict[str, List[float]]:
        """Run rounds of ``ops`` (key, fn), each op once per round in order,
        until --seconds have passed and ``min_rounds`` are done. A round
        that has started finishes, so every op has a sample per round."""
        samples: Dict[str, List[float]] = {key: [] for key, _ in ops}
        start = clock()
        rounds = 0
        while rounds < min_rounds or clock() - start < self.args.seconds:
            for key, fn in ops:
                gc.collect()  # no garbage of an earlier call collected inside a timing
                seconds, _ = self.ops.call(key, fn)
                samples[key].append(seconds)
            rounds += 1
        self.info["rounds"] = rounds
        return samples

    # -- --trace 0 ---------------------------------------------------------
    def untraced(self) -> Dict[str, tuple]:
        def dseq():
            result = self.mine("dseq")
            if self.args.perturb and not perturbed:
                perturbed.append(result.popitem())
            return result

        perturbed: list = []
        # At least two rounds, so no median rests on one sample.
        samples = self.measure([
            ("dseq_s", dseq),
            ("dcand_s", lambda: self.mine("dcand")),
        ], min_rounds=2)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.info["samples"] = samples
        metrics = {k: (median(v), "s") for k, v in samples.items()}
        metrics["driver_peak_rss_mb"] = (rss_mb, "MB")
        return metrics

    # -- --trace 1 ---------------------------------------------------------
    def traced_pipeline(self, algorithm: str, spans: Dict[str, List[float]]) -> dict:
        """mine()'s steps, each timed: f-list, encode, compile, job, results."""
        from repro.core import framework
        from repro.core.dcand import d_cand
        from repro.core.dseq import d_seq
        from repro.core.flist import build_dictionary
        from repro.patex import compile_patex

        def span(name, fn):
            t0 = clock()
            value = fn()
            spans.setdefault(name, []).append(clock() - t0)
            return value

        w = self.w
        df = framework.with_seq_ids(self.df, "items")
        d = span("core.flist.build_dictionary_s",
                 lambda: build_dictionary(self.spark, df, self.hierarchy, "items"))
        rdd = framework.encode_rdd(df, d, "items", 0)
        span("core.framework.encode_s", rdd.count)
        fst = span("patex.compile_s", lambda: compile_patex(w.expr, d))
        run = d_seq if algorithm == "dseq" else d_cand
        collected = span(f"core.{algorithm}.job_s",
                         lambda: run(rdd, fst, d, w.sigma).collect())
        rows = span("core.framework.results_to_df_s",
                    lambda: framework.results_to_df(self.spark, collected, d).collect())
        self.d, self.fst, self.patterns = d, fst, len(rows)
        return {r["pattern"]: r["support"] for r in rows}

    def traced(self) -> Dict[str, tuple]:
        import replay

        spans: Dict[str, List[float]] = {}
        calls = self.measure([
            ("dseq", lambda: self.mine("dseq")),
            ("dcand", lambda: self.mine("dcand")),
            ("traced dseq", lambda: self.traced_pipeline("dseq", spans)),
            ("traced dcand", lambda: self.traced_pipeline("dcand", spans)),
            ("seq", self.mine_sequential),
        ])
        self.info["samples"] = calls
        self.info["spans"] = spans
        m = {key: median(v) for key, v in calls.items()}
        metrics: Dict[str, tuple] = {k: (median(v), "s") for k, v in spans.items()}
        metrics["seq_s"] = (m["seq"], "s")
        d, fst, sigma = self.d, self.fst, self.w.sigma
        metrics["core.flist.vocab_items"] = (len(d), "count")
        metrics["patex.fst_states"] = (fst.n_states, "count")
        metrics["patex.fst_transitions"] = (len(fst.transitions), "count")
        metrics["trace.overhead_frac"] = (
            (m["traced dseq"] + m["traced dcand"]) / (m["dseq"] + m["dcand"]) - 1, "ratio")

        # Spark-free replay of the kernels on the driver.
        encoded = [d.encode(s) for s in self.seqs]
        layer: Dict[str, float] = {}
        for name, fn in (("sequential", replay.replay_sequential),
                         ("dseq", replay.replay_dseq),
                         ("dcand", replay.replay_dcand)):
            def run_replay(fn=fn):
                mined, counters = fn(encoded, fst, d, sigma)
                layer.update(counters)
                return {d.decode_str(p): f for p, f in mined.items()}
            self.ops.call(f"replay {name}", run_replay)
        for key, value in layer.items():
            metrics[key] = (value, "s" if key.endswith("_s") else
                            "ratio" if key.endswith("_ratio") else "count")

        k = int(self.spark.sparkContext.defaultParallelism)
        seq_s = layer["desq.dfs.sequential_s"]
        dseq_cpu = (layer["desq.grid.build_s"] + layer["desq.rewrite.pivot_representations_s"]
                    + layer["desq.dfs.pivot_reduce_s"])
        dcand_cpu = (layer["desq.simulate.accepting_runs_s"] + layer["desq.nfa.build_s"]
                     + layer["desq.nfa.serialize_s"] + layer["desq.nfa.mine_s"])
        metrics["core.dseq.kernel_share"] = (
            dseq_cpu / (k * metrics["core.dseq.job_s"][0]), "ratio")
        metrics["core.dcand.kernel_share"] = (
            dcand_cpu / (k * metrics["core.dcand.job_s"][0]), "ratio")
        metrics["inflation.dseq"] = (dseq_cpu / seq_s, "ratio")
        metrics["inflation.dcand"] = (dcand_cpu / seq_s, "ratio")
        metrics["core.framework.patterns"] = (self.patterns, "count")
        return metrics

    def run(self, session_s: float) -> dict:
        from workloads import reference, result_digest

        data_s = self.setup_data()
        t0 = clock()
        self.warm_up()
        warm_s = clock() - t0
        setup_s = session_s + median(data_s) + warm_s
        self.info["setup"] = {"session_s": session_s, "data_s": data_s, "warm_up_s": warm_s}

        metrics = self.traced() if self.args.trace else self.untraced()

        # Correctness gate, outside every timed region.
        ref = reference(self.w, self.seqs, self.hierarchy)
        if not self.args.trace:
            metrics["setup_s"] = (setup_s, "s")
        ref_digest = result_digest(ref)
        self.ops.check(ref_digest)
        self.info["reference"] = {"oracle": self.w.oracle, "patterns": len(ref),
                                  "digest": ref_digest}
        self.info["results"] = self.ops.digests
        return {
            "correct": self.ops.failed == 0,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def cpu_jiffies() -> List[int]:
    """Host-wide CPU time from /proc/stat: user … steal, or [] if unreadable."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to others: runs with a high
    share ran on a busy host and are slower."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def versions(spark) -> Dict[str, str]:
    import pyspark

    return {
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from workloads import WORKLOADS, scaled

    w = scaled(WORKLOADS[args.workload], args.scale)
    run_dir = HERE / ".run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    settings = spark_settings(run_dir)
    jiffies = cpu_jiffies()
    try:
        t0 = clock()
        spark = start_spark(settings)
        session_s = clock() - t0
        try:
            bench = Bench(spark, w, args)
            result = bench.run(session_s)
            info = {
                "workload": {"name": w.name, "dataset": w.dataset, "n": w.n,
                             "sigma": w.sigma, "expr": w.expr},
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "host_cores": os.cpu_count(),
                "usable_cores": len(os.sched_getaffinity(0)),
                "versions": versions(spark),
                "host_steal_share": steal_share(jiffies, cpu_jiffies()),
                "spark": settings,
                **bench.info,
            }
        finally:
            stop_spark(spark)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
