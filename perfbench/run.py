"""The repository's benchmark: one controlling process, one program process at a time.

Run from the repository root::

    python3 perfbench/run.py --workload paper-64-ones --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare perfbench/results/OLD perfbench/results/NEW

A run prints one line per metric (name, value, unit), writes its full
record (host, per-pass values, checks) under ``perfbench/results/``, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with
the program unmodified; ``--trace 1`` runs one pass untraced and the
same pass again with the layer wrappers of ``spans.py`` installed in
the program process, and reports the per-layer metrics.  The exit code
is non-zero when an output check fails.  ``compare`` prints, for every
(metric, workload) pair, each side's median and quartiles and a verdict
against the metric's bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

import benchstats  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.OFFLINE) + (workloads.SERVICE,)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
READY = re.compile(r"listening on [^:\s]+:(\d+)")

#: Service-only end-to-end readings: printed and recorded, not bounded
#: (see README.md for why).
SERVICE_READINGS = {
    "submit_p50_ms": "ms",
    "submit_tail_ms": "ms",
    "max_rate_per_s": "1/s",
    "failed_frac": "ratio",
}


# -- host -------------------------------------------------------------------------------


def host_fingerprint() -> Dict[str, Any]:
    """CPU, interpreter, numeric stack and BLAS threading of this host."""
    import platform

    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def cpu_steal_s() -> float:
    """Seconds of CPU time this host's vCPUs lost to other guests (Linux ``steal``)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return float(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return math.nan


def program_env() -> Dict[str, str]:
    """The caller's environment, plus ``src`` on the import path; no thread settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reap(proc: subprocess.Popen) -> Tuple[int, float]:
    """Wait for ``proc``; return its exit code and peak RSS in MB."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# -- offline workloads --------------------------------------------------------------------


def run_child(workload: str, seed: int, index: int, spans_path: Optional[str],
              rounds: int = 1, setup_only: bool = False,
              sample: Optional[str] = None) -> Dict[str, Any]:
    """One program process replaying trace ``index`` ``rounds`` times; returns its record.

    With ``sample`` (``setup`` or ``all``) the process samples the host's
    speed, and the record gains ``setup_ref_s``, and with ``all`` each run
    ``run_ref_s``: host seconds at the reference speed (:mod:`hostspeed`).
    """
    load_before = os.getloadavg()
    cmd = [sys.executable, os.path.join(HERE, "sim_child.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--rounds", str(rounds)]
    if spans_path:
        cmd += ["--spans", spans_path]
    if setup_only:
        cmd += ["--setup-only"]
    if sample:
        cmd += ["--sample", sample]
    launch = perf_counter()
    proc = subprocess.Popen(cmd + ["--launch", repr(launch)], stdout=subprocess.PIPE,
                            text=True, env=program_env())
    try:
        with proc.stdout:
            out = proc.stdout.read()
    except BaseException:
        proc.kill()
        reap(proc)
        raise
    code, rss = reap(proc)
    if code != 0:
        raise RuntimeError(f"{workload} trace {index} exited with {code}")
    record = json.loads(out.strip().splitlines()[-1])
    record.update(
        index=index,
        setup_s=record["ready"] - launch,
        peak_rss_mb=rss,
        load_before=load_before,
        load_after=os.getloadavg(),
    )
    return record


def offline_pass(workload: str, seed: int, indices: Sequence[int],
                 spans_dir: Optional[str] = None, rounds: int = 1,
                 setup_launches: int = 0, sample: Optional[str] = None) -> Dict[str, Any]:
    """Set-up-only launches, then one replaying process per trace in ``indices``.

    With ``sample``, ``setup_s``, and with ``all`` also ``run_s``, are at
    the reference host speed; the wall-clock values are kept under ``wall``.
    """
    setups = [run_child(workload, seed, indices[0], None, setup_only=True, sample=sample)
              for _ in range(setup_launches)]
    children = []
    for index in indices:
        spans_path = os.path.join(spans_dir, f"spans-{index}.json") if spans_dir else None
        children.append(run_child(workload, seed, index, spans_path, rounds, sample=sample))
    runs = [run for child in children for run in child["runs"]]
    first = [run for run in runs if run["round"] == 0]
    problems = [p for run in runs for p in run["problems"]]

    def host_seconds(setup_key: str, run_key: str) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(c[setup_key] for c in setups + children),
            "run_s": statistics.median(benchstats.replay_seconds(c["runs"], run_key)
                                       for c in children),
        }

    wall = host_seconds("setup_s", "run_s")
    scaled = host_seconds("setup_ref_s", "run_ref_s" if sample == "all" else "run_s") \
        if sample else wall
    return {
        "setup_children": setups,
        "children": children,
        "wall": wall,
        "metrics": {
            **scaled,
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
            "avg_jct_s": statistics.fmean(run["avg_jct_s"] for run in first),
            "makespan_s": statistics.fmean(run["makespan_s"] for run in first),
        },
        "attempted": sum(run["jobs"] for run in runs),
        "failed": len(problems),
        "problems": problems,
        "digests": [run["digest"] for run in first],
    }


# -- service workload ---------------------------------------------------------------------


def service_phases(seconds: float) -> List[Tuple[float, int]]:
    """(offered rate, submissions) per phase, scaled to the measurement budget."""
    scale = seconds / 30.0
    return [(rate, max(12, int(round(count * scale)))) for rate, count in workloads.SERVICE_PHASES]


def start_server(spans_dir: Optional[str] = None, samples_path: Optional[str] = None,
                 ) -> Tuple[subprocess.Popen, int, float, float]:
    """Launch ``repro-ones serve`` (or its traced or sampled twin); wait for readiness.

    Returns the process, its port, its set-up seconds and the launch instant.
    """
    common = ["--scheduler", workloads.SERVICE_SCHEDULER, "--gpus", str(workloads.SERVICE_GPUS),
              "--seed", str(workloads.PROGRAM_SEED)]
    for tenant in workloads.TENANTS:
        common += ["--tenant", tenant]
    serve = ["serve", "--mode", "virtual", "--port", "0"]
    launch = perf_counter()
    if spans_dir is not None:
        cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), "--launch", repr(launch),
               "--summary", os.path.join(spans_dir, "server-summary.json"),
               "--spans", os.path.join(spans_dir, "server-spans.json")]
    elif samples_path is not None:
        cmd = [sys.executable, os.path.join(HERE, "serve_sampled.py"), samples_path] + serve
    else:
        cmd = [sys.executable, "-m", "repro.cli"] + serve
    proc = subprocess.Popen(cmd + common, stdout=subprocess.PIPE, text=True, env=program_env())
    line = proc.stdout.readline()
    match = READY.search(line)
    if match is None:
        proc.kill()
        reap(proc)
        raise RuntimeError(f"service did not announce readiness: {line!r}")
    setup_s = perf_counter() - launch
    if samples_path is not None:
        proc.send_signal(signal.SIGUSR1)  # set-up is over: stop sampling
    return proc, int(match.group(1)), setup_s, launch


@contextmanager
def serving(spans_dir: Optional[str] = None, samples_path: Optional[str] = None,
            ) -> Iterator[Tuple[subprocess.Popen, int, float, float]]:
    """A started server that is killed and reaped if the block raises."""
    proc, port, setup_s, launch = start_server(spans_dir, samples_path)
    try:
        yield proc, port, setup_s, launch
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            reap(proc)
        raise


def stop_server(proc: subprocess.Popen, client) -> float:
    client.shutdown()
    client.close()
    with proc.stdout:
        proc.stdout.read()
    code, rss = reap(proc)
    if code != 0:
        raise RuntimeError(f"service exited with {code}")
    return rss


def reply_problems(replies: Sequence[Dict[str, Any]]) -> List[str]:
    problems = []
    for reply in replies:
        status = reply.get("decision", {}).get("status") if reply.get("ok") else None
        if status not in ("placed", "queued"):
            problems.append(f"submission answered {reply}")
    return problems


def service_pass(seed: int, phases: Sequence[Tuple[float, int]], setup_launches: int,
                 spans_dir: Optional[str] = None,
                 sample_dir: Optional[str] = None) -> Dict[str, Any]:
    """Extra set-up launches, then one server driven through ``phases`` and drained.

    With ``sample_dir`` every server samples the host's speed into that
    directory, and ``setup_s`` is at the reference speed; the wall-clock
    value is kept under ``wall``.  ``run_s`` stays wall clock: the
    server's BLAS threads slow the speed blocks themselves.
    """
    sys.path.insert(1, SRC)
    from openloop import OpenLoopClient

    # (set-up seconds, launch instant, samples path) of every server.
    launches: List[Tuple[float, float, Optional[str]]] = []

    def samples_path() -> Optional[str]:
        return os.path.join(sample_dir, f"speed-{len(launches)}.json") if sample_dir else None

    rss = []
    for _ in range(setup_launches):
        path = samples_path()
        with serving(samples_path=path) as (proc, port, setup_s, launch):
            rss.append(stop_server(proc, OpenLoopClient("127.0.0.1", port, timeout=60.0)))
        launches.append((setup_s, launch, path))

    total = sum(count for _rate, count in phases)
    submissions = workloads.service_submissions(seed, -(-total // 2))[:total]
    load_before = os.getloadavg()
    path = samples_path()
    with serving(spans_dir, path) as (proc, port, setup_s, launch):
        client = OpenLoopClient("127.0.0.1", port, timeout=60.0)
        results, cursor, busy = [], 0, 0.0
        for rate, count in phases:
            batch = submissions[cursor:cursor + count]
            offered = client.offer(batch, rate)
            latency, lateness = benchstats.open_loop_latencies(
                offered["due"], offered["sent"], offered["replied"])
            busy += sum(benchstats.server_busy_times(offered["sent"], offered["replied"]))
            results.append({"rate": rate, "count": count, "names": [s.name for s in batch],
                            "latency": latency, "lateness": lateness, **offered})
            cursor += count
        drain_start = perf_counter()
        summary = client.drain()
        drain_s = perf_counter() - drain_start
        reported = client.metrics()["decision_latency"]
        rss.append(stop_server(proc, client))
    launches.append((setup_s, launch, path))
    load_after = os.getloadavg()

    wall = {"setup_s": statistics.median(setup for setup, _launch, _path in launches),
            "run_s": busy + drain_s}
    host_seconds = dict(wall)
    if sample_dir:
        host_seconds["setup_s"] = statistics.median(
            benchstats.at_reference_speed(setup, launch, launch + setup, load_samples(path),
                                          hostspeed.REFERENCE_S)
            for setup, launch, path in launches)

    problems = [p for phase in results for p in reply_problems(phase["replies"])]
    problems += benchstats.check_summary(summary, total)
    return {
        "phases": results,
        "summary": summary,
        "reported_decision_latency": reported,
        "setups": [setup for setup, _launch, _path in launches],
        "drain_s": drain_s,
        "busy_s": busy,
        "load_before": load_before,
        "load_after": load_after,
        "wall": wall,
        "metrics": {
            **host_seconds,
            "peak_rss_mb": max(rss),
            "avg_jct_s": float(summary.get("average_jct", math.nan)),
            "makespan_s": float(summary.get("makespan", math.nan)),
        },
        "attempted": total,
        "failed": len(problems),
        "problems": problems,
        "digests": [hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()],
    }


def load_samples(path: str) -> Dict[str, List[float]]:
    with open(path) as handle:
        return json.load(handle)


def service_readings(record: Dict[str, Any]) -> Dict[str, Any]:
    """Latency at the lowest rate and the highest rate that meets the tail limit."""
    phases = sorted(record["phases"], key=lambda phase: phase["rate"])
    lowest = phases[0]
    tail = benchstats.tail([1e3 * v for v in lowest["latency"]])
    max_rate = 0.0
    verdicts = []
    for phase in phases:
        phase_tail = benchstats.tail([1e3 * v for v in phase["latency"]])
        grows = benchstats.backlog_grows(phase["due"], phase["sent"], phase["replied"])
        ok = phase_tail["value"] <= workloads.SERVICE_TAIL_LIMIT_MS and not grows
        verdicts.append({"rate": phase["rate"], "tail_ms": phase_tail["value"],
                         "tail_percentile": phase_tail["percentile"],
                         "samples": phase_tail["samples"], "backlog_grows": grows,
                         "meets_limit": ok})
        if ok:
            max_rate = max(max_rate, phase["rate"])
    return {
        "submit_p50_ms": 1e3 * statistics.median(lowest["latency"]),
        "submit_tail_ms": tail["value"],
        "submit_tail_percentile": tail["percentile"],
        "submit_samples": tail["samples"],
        "max_rate_per_s": max_rate,
        "failed_frac": record["failed"] / record["attempted"],
        "service_decision_p50_ms": record["reported_decision_latency"].get("p50_ms"),
        "rates": verdicts,
        "late_tail_ms": benchstats.tail([1e3 * v for v in lowest["lateness"]])["value"],
    }


def service_layers(record: Dict[str, Any], spans_dir: str) -> Dict[str, float]:
    """Server-side layer rows plus the request-matched wait and transport times."""
    with open(os.path.join(spans_dir, "server-summary.json")) as handle:
        server = json.load(handle)
    layers = dict(server["layers"])
    spans = server["submit_spans"]
    waits, transports = [], []
    for phase in record["phases"]:
        for i, name in enumerate(phase["names"]):
            if name not in spans:
                continue
            start, end = spans[name]
            waits.append(start - phase["due"][i])
            transports.append((phase["replied"][i] - phase["sent"][i]) - (end - start))
    layers["service.wait_ms"] = 1e3 * statistics.median(waits) if waits else 0.0
    layers["service.transport_ms"] = 1e3 * statistics.median(transports) if transports else 0.0
    layers["service.reported_decision_p50_ms"] = float(
        record["reported_decision_latency"].get("p50_ms", 0.0))
    layers["rows_sum_ok"] = server["rows_sum_ok"]
    return layers


# -- one invocation ---------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> Dict[str, Any]:
    host = host_fingerprint()
    host["load_before"] = os.getloadavg()
    steal, start = cpu_steal_s(), perf_counter()
    spans_dir = os.path.join(out_dir, f"{workload}-seed{seed}-spans")
    # Full runs sample the host's speed; a traced run compares wall clock
    # with wall clock.
    if workload in workloads.OFFLINE:
        count = workloads.traces_per_run(workload, seconds)
        spec = workloads.OFFLINE[workload]
        if not trace:
            record = offline_pass(workload, seed, range(count), rounds=int(spec["rounds"]),
                                  setup_launches=int(spec["setup_launches"]),
                                  sample="all" if spec["run_at_reference_speed"] else "setup")
        else:
            os.makedirs(spans_dir, exist_ok=True)
            plain = offline_pass(workload, seed, [0])
            record = offline_pass(workload, seed, [0], spans_dir)
            record["untraced"] = plain
    else:
        phases = service_phases(seconds)
        if not trace:
            sample_dir = os.path.join(out_dir, f"{workload}-seed{seed}-speed")
            os.makedirs(sample_dir, exist_ok=True)
            record = service_pass(seed, phases, workloads.SERVICE_SETUP_LAUNCHES,
                                  sample_dir=sample_dir)
        else:
            os.makedirs(spans_dir, exist_ok=True)
            plain = service_pass(seed, phases[:1], 0)
            record = service_pass(seed, phases[:1], 0, spans_dir)
            record["untraced"] = plain
        record["readings"] = service_readings(record)
    host["load_after"] = os.getloadavg()
    # Share of the host's CPU capacity taken by other guests during the run.
    host["steal_share"] = (cpu_steal_s() - steal) / ((perf_counter() - start) * os.cpu_count())
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace), host=host)
    # The reference holds full (--trace 0) runs; a traced run replays less.
    record["reference"] = "none" if trace else reference_flag(
        workload, seed, seconds, record["digests"])
    return record


def reference_flag(workload: str, seed: int, seconds: float, digests: Sequence[str]) -> str:
    """``match``/``differs`` against the recorded simulated outputs, or ``none``."""
    try:
        with open(REFERENCE) as handle:
            reference = json.load(handle)
    except (OSError, ValueError):
        return "none"
    expected = reference.get(workload, {}).get(f"{seed}:{seconds:g}")
    if expected is None:
        return "none"
    return "match" if list(expected) == list(digests) else "differs"


def layer_metrics(record: Dict[str, Any], spans_dir: str) -> Dict[str, float]:
    import spans

    names = [entry["name"] for entry in bench_config()["per_layer"]]
    values = {name: 0.0 for name in names}
    if record["workload"] in workloads.OFFLINE:
        child = record["children"][0]
        values.update({k: v for k, v in child["layers"].items() if k in values})
        rows_ok = child["rows_sum_ok"]
    else:
        layers = service_layers(record, spans_dir)
        rows_ok = layers.pop("rows_sum_ok")
        values.update({k: v for k, v in layers.items() if k in values})
        values["loadgen.late_tail_ms"] = record["readings"]["late_tail_ms"]
    values["trace.overhead_ratio"] = (
        record["metrics"]["run_s"] / record["untraced"]["metrics"]["run_s"])
    missing = sorted(set(spans.ROWS) - set(values))
    if missing:
        raise KeyError(f"BENCHMARK.json lacks per-layer rows {missing}")
    record["rows_sum_ok"] = rows_ok
    return values


def bench_config() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_main(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    out_dir = args.out or os.path.join(RESULTS, "latest")
    os.makedirs(out_dir, exist_ok=True)
    record = run_workload(args.workload, args.seed, float(args.seconds), bool(args.trace),
                          out_dir)
    config = bench_config()
    if args.trace:
        spans_dir = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans")
        values = layer_metrics(record, spans_dir)
        units = {entry["name"]: entry["unit"] for entry in config["per_layer"]}
        if not record["rows_sum_ok"]:
            record["problems"].append("per-layer rows do not sum to the traced total")
            record["failed"] += 1
    else:
        values = dict(record["metrics"])
        units = {entry["name"]: entry["unit"] for entry in config["end_to_end"]}
    correct = record["failed"] == 0 and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    record.update(correct=correct, values=values)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    host = record["host"]
    print(f"# host: {host['cpu_count']}x {host['cpu_model']}, python {host['python']}, "
          f"numpy {host['numpy']}, scipy {host['scipy']}, {host['blas']}, "
          f"threads {host['threads']}")
    print(f"# load average {host['load_before'][0]:.2f} -> {host['load_after'][0]:.2f}; "
          f"CPU stolen by other guests {100 * host['steal_share']:.1f}%")
    if not args.trace:
        print(f"# wall clock (setup_s, and run_s on baselines, are at the reference host "
              f"speed): setup {record['wall']['setup_s']:.4g} s, "
              f"run {record['wall']['run_s']:.4g} s")
    print(f"# reference outputs: {record['reference']}; record: {os.path.relpath(path, ROOT)}")
    for problem in record["problems"]:
        print(f"# FAILED CHECK: {problem}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    if "readings" in record and not args.trace:
        readings = record["readings"]
        for name, unit in SERVICE_READINGS.items():
            print(f"{name} {readings[name]:.6g} {unit}")
        print(f"# tail = p{readings['submit_tail_percentile']:.1f} of "
              f"{readings['submit_samples']} samples; service-reported decision p50 "
              f"{readings['service_decision_p50_ms']} ms (arrival step only)")
    result = {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# -- compare ----------------------------------------------------------------------------


def load_results(directory: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(metric, workload): [values...]}`` over every record in ``directory``."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for dirpath, _dirs, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json") or "-trace" not in name:
                continue
            with open(os.path.join(dirpath, name)) as handle:
                record = json.load(handle)
            extra = record.get("readings", {}) if not record.get("trace") else {}
            merged = {**record.get("values", {}),
                      **{k: extra[k] for k in SERVICE_READINGS if k in extra}}
            for metric, value in merged.items():
                values.setdefault((metric, record["workload"]), []).append(float(value))
    return values


def compare_main(args: argparse.Namespace) -> int:
    config = bench_config()
    bounds = {e["name"]: (e["bound"], e["better"]) for e in config["end_to_end"]}
    bounds.update({e["name"]: (None, e["better"]) for e in config["per_layer"]})
    bounds.update({name: (None, "higher" if name == "max_rate_per_s" else "lower")
                   for name in SERVICE_READINGS})
    old, new = load_results(args.old), load_results(args.new)
    print(f"{'metric':34} {'workload':24} {'old median [q1, q3]':30} "
          f"{'new median [q1, q3]':30} verdict")
    for key in sorted(set(old) | set(new)):
        metric, workload = key
        bound, better = bounds.get(metric, (None, "lower"))
        cells = []
        for side in (old.get(key, []), new.get(key, [])):
            if side:
                q1, med, q3 = benchstats.quartiles(side)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            else:
                cells.append("-")
        verdict = benchstats.verdict(old.get(key, []), new.get(key, []), bound, better)
        print(f"{metric:34} {workload:24} {cells[0]:30} {cells[1]:30} {verdict}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("old")
        parser.add_argument("new")
        return compare_main(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for the run's record")
    return run_main(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
