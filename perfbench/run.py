#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload swift_mix --seed 1 --seconds 45 --trace 0

The script builds perfbench/ (the simulator library from src/ in the
`perf` preset's configuration, plus the measuring binary perfbench.cc)
into .bench_build/perfbench, runs the workload in a child process on one
simulation thread, and prints a human-readable report. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. README.md here defines every metric. Host time
per event is scaled by the cost of a reference loop timed between chunks
of the simulation, which cancels most of a shared machine's drift
(README.md, "Machine drift and estimators").

A workload that aborts, fails to drain or returns a wrong digest is
reported as failed: every operation it attempted counts as failed and no
timing is reported.
"""

import argparse
import fcntl
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dcs_perfbench")
WORKLOADS = ("swift_mix", "hdfs_balance", "open_load", "open_overload")
# A run must end within 180 s once the build is done.
CHILD_TIMEOUT_S = 170.0

PAPER_CPU_REDUCTION_PCT = 52.0  # Fig. 12a, dcs-ctrl vs sw-opt

# The reference loop's cost per event (perfbench.cc, Reference) on the
# 4-vCPU Xeon VM the benchmark was defined on. norm_ns_per_event is the
# host time per simulated event on a machine that runs the reference at
# this speed (README.md, "Machine drift and estimators").
REF_NOMINAL_NS = 700.0
# How strongly each workload's host time follows the reference's when
# the machine drifts: the slope of log(host ns per event) on log(reference
# ns per event), measured on that VM within runs (per repetition) and
# across ten-seed sets of runs: swift_mix 0.97-1.23 and 1.17,
# hdfs_balance 1.46-1.72 and 1.63, open_load 1.66-2.42 and 2.24. The
# smaller the workload's memory footprint, the more of it sits in caches
# that other tenants take away, and the steeper it follows.
REF_EXPONENT = {"swift_mix": 1.0, "hdfs_balance": 1.5, "open_load": 2.0,
                "open_overload": 2.0}

# Printed in the text only, not listed in BENCHMARK.json: raw host time
# moves with the machine's drift and wall_s with swift_mix's seed;
# gpu.host_s, ndp.est_s and ndp.crc32_bytes are zero by construction on
# some or all listed workloads (no GPU events, no hashed bytes, CRC32
# only on the unlisted hdfs_balance).
REPORT_ONLY_UNITS = {"host_ns_per_event": "ns", "ref_ns_per_event": "ns",
                     "host_setup_s": "s",
                     "wall_s": "s", "gpu.host_s": "s", "ndp.est_s": "s",
                     "ndp.crc32_bytes": "B"}


def say(line=""):
    print(line, flush=True)


def build():
    """Configure (once) and build the benchmark package; log to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under %s; run from the "
                 "root of a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout build once, one after another.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_child(args):
    """Run the measuring binary; return (exit status, stdout, stderr)."""
    tag = "%d" % os.getpid()
    out_path = os.path.join(BUILD, "child-%s.out" % tag)
    err_path = os.path.join(BUILD, "child-%s.err" % tag)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pid = os.posix_spawn(BINARY, argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)])
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    timed_out = False
    while True:
        wpid, status = os.waitpid(pid, os.WNOHANG)
        if wpid == pid:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
            timed_out = True
            break
        time.sleep(0.05)
    with open(out_path) as f:
        out = f.read()
    with open(err_path) as f:
        err = f.read()
    os.remove(out_path)
    os.remove(err_path)
    if timed_out:
        err += "perfbench: killed after %.0f s\n" % CHILD_TIMEOUT_S
    return status, out, err


def layer_seconds(tb):
    totals = {}
    for info in tb.get("labels", {}).values():
        totals[info["layer"]] = totals.get(info["layer"], 0.0) + info["s"]
    return totals


def stat_sum(testbeds, group, key, combine=sum):
    """Combine stats-registry counter `key` over groups matching `group`."""
    values = [vals[key]
              for tb in testbeds
              for path, vals in tb["stats"].items()
              if re.fullmatch(group, path) and key in vals]
    return combine(values) if values else 0


def sim_metrics(rep):
    """Simulated results of one repetition (identical for a given seed)."""
    dcs = rep["testbeds"][-1]["sim"]
    m = {
        "sim_p50_us": (dcs["p50_us"], "us"),
        "sim_tail_us": (dcs["tail_us"], "us"),
        "sim_goodput_gbps": (dcs["goodput_gbps"], "Gbps"),
        "sim_cpu_pct": (dcs["cpu_pct"], "%"),
    }
    if dcs["open_loop"]:
        missed = dcs["slo_misses"] + dcs["rejected_429"] + dcs["dropped"]
        m["sim_slo_miss_pct"] = (100.0 * missed / max(dcs["offered"], 1),
                                 "%")
    if len(rep["testbeds"]) == 2:  # swift_mix: sw-opt, then dcs-ctrl
        swo = rep["testbeds"][0]["sim"]["cpu_pct"]
        reduction = 100.0 * (1.0 - dcs["cpu_pct"] / swo)
        m["paper_err_pct"] = (abs(reduction - PAPER_CPU_REDUCTION_PCT), "pp")
        m["cpu_reduction_pct"] = (reduction, "%")
    return m, dcs


def best_wall(reps):
    """Best-of-N simulation wall time: the fastest repetition of each
    testbed, summed. Interference on a shared host only ever adds time,
    so the minimum is steadier than the median.
    """
    return sum(min(r["testbeds"][i]["wall_s"] for r in reps)
               for i in range(len(reps[0]["testbeds"])))


def rep_costs(rep):
    """(events, host ns per event, reference ns per reference event)."""
    tbs = rep["testbeds"]
    events = sum(tb["events"] for tb in tbs)
    wall = sum(tb["wall_s"] for tb in tbs)
    ref = sum(tb["ref_s"] for tb in tbs)
    ref_events = sum(tb["ref_events"] for tb in tbs)
    return events, wall * 1e9 / events, ref * 1e9 / ref_events


def per_seed_mean(timed, cost):
    """Median of cost(rep) over each seed's repetitions, averaged over
    the seeds weighted by their events: ns per event over all seeds."""
    by_seed = {}
    for r in timed:
        by_seed.setdefault(r["seed"], []).append(r)
    total = events = 0.0
    for reps in by_seed.values():
        n = rep_costs(reps[0])[0]
        total += n * statistics.median(cost(r) for r in reps)
        events += n
    return total / events


def normalized(rep, exponent):
    """Host ns per event at the reference's nominal speed."""
    _, ns, ref_ns = rep_costs(rep)
    return ns * (REF_NOMINAL_NS / ref_ns) ** exponent


def end_to_end(result):
    reps = result["reps"]
    timed = [r for r in reps if r["kind"] == "timed"]
    setups = [sum(tb["setup_s"] for tb in r["testbeds"])
              for r in reps if r["kind"] in ("timed", "setup")]
    exponent = REF_EXPONENT[result["workload"]]
    raw = per_seed_mean(timed, lambda r: rep_costs(r)[1])
    norm = per_seed_mean(timed, lambda r: normalized(r, exponent))
    ref_ns = statistics.median(rep_costs(r)[2] for r in timed)
    # Set-up follows the machine's drift about as the simulation does.
    setup = statistics.median(setups)
    return {
        "norm_ns_per_event": norm,
        "setup_s": setup * (REF_NOMINAL_NS / ref_ns) ** exponent,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "host_ns_per_event": raw,
        "host_setup_s": setup,
        "ref_ns_per_event": ref_ns,
        "wall_s": statistics.median(
            sum(tb["wall_s"] for tb in r["testbeds"])
            for r in timed if r["seed"] == result["seed"]),
    }, len(timed), len(setups), len({r["seed"] for r in timed})


def per_layer(result):
    reps = result["reps"]
    traced = [r for r in reps if r["kind"] == "traced"]
    untraced = [r for r in reps if r["kind"] == "untraced"]
    calib = result["calib"]
    # The layer split is that of the fastest traced repetition, so the
    # layers add up to its wall time.
    quiet = min(traced, key=lambda r: sum(tb["wall_s"]
                                          for tb in r["testbeds"]))
    last = quiet["testbeds"]
    events = sum(tb["events"] for tb in last)
    ops = sum(tb["ops"] for tb in untraced[-1]["testbeds"])
    untraced_wall = best_wall(untraced)
    split = {}
    for tb in last:
        for layer, seconds in layer_seconds(tb).items():
            split[layer] = split.get(layer, 0.0) + seconds

    def layer_s(layer):
        return split.get(layer, 0.0)

    node = r"node\w+"
    md5_bytes = sum(tb["md5_bytes"] for tb in last)
    crc_bytes = sum(tb["crc32_bytes"] for tb in last)
    frames = stat_sum(last, node + r"\.nic", "frames_sent")
    m = {
        "sim.events": events,
        "sim.events_per_s": events / untraced_wall,
        "sim.ns_per_event": calib["ns_per_event"],
        "sim.self_s": events * calib["ns_per_event"] * 1e-9,
        "hdc.host_s": layer_s("hdc"),
        "hdc.commands": stat_sum(last, node + r"\.hdc", "commands_done"),
        "hdc.doorbells": stat_sum(last, node + r"\.hdc", "doorbell_writes")
        + stat_sum(last, node + r"\.host\.hdcdrv", "doorbell_writes"),
        "hdc.irqs": stat_sum(last, node + r"\.hdc", "irqs"),
        "hdc.sb_issued": stat_sum(last, node + r"\.hdc\.scoreboard",
                                  "issued"),
        "hdc.sb_peak_live": stat_sum(last, node + r"\.hdc\.scoreboard",
                                     "peak_live", max),
        "hdc.rejects_429": stat_sum(last, node + r"\.hdc", "cmd_rejects"),
        "ndp.md5_bytes": md5_bytes,
        "ndp.crc32_bytes": crc_bytes,
        "ndp.md5_ns_per_byte": calib["md5_ns_per_byte"],
        "ndp.crc32_ns_per_byte": calib["crc32_ns_per_byte"],
        "ndp.est_s": 1e-9 * (md5_bytes * calib["md5_ns_per_byte"]
                             + crc_bytes * calib["crc32_ns_per_byte"]),
        "pcie.host_s": layer_s("pcie"),
        "pcie.tlps": stat_sum(last, node + r"\.pcie", "backplane_tlps"),
        "pcie.bytes": stat_sum(last, node + r"\.pcie", "total_bytes"),
        "pcie.host_mmio_writes": stat_sum(last, node + r"\.pcie",
                                          "host_mmio_writes"),
        "net.host_s": layer_s("net"),
        "net.frames": frames,
        "net.frame_ns": calib["frame_ns"],
        "net.est_s": frames * calib["frame_ns"] * 1e-9,
        "nic.host_s": layer_s("nic"),
        "nic.msis": stat_sum(last, node + r"\.nic", "recv_msis"),
        "nvme.host_s": layer_s("nvme"),
        "nvme.commands": stat_sum(last, node + r"\.ssd\d*", "commands"),
        "nvme.bytes_read": stat_sum(last, node + r"\.ssd\d*", "bytes_read"),
        "nvme.bytes_written": stat_sum(last, node + r"\.ssd\d*",
                                       "bytes_written"),
        "host.host_s": layer_s("host"),
        "host.tcp_bytes": stat_sum(last, node + r"\.host\.tcp", "rx_bytes")
        + stat_sum(last, node + r"\.host\.tcp", "tx_bytes"),
        "gpu.host_s": layer_s("gpu"),
        "mem.allocs_per_req": sum(tb["allocs"]
                                  for tb in untraced[-1]["testbeds"]) / ops,
        "mem.alloc_bytes_per_req": sum(tb["alloc_bytes"]
                                       for tb in untraced[-1]["testbeds"])
        / ops,
        "mem.dram_bytes_copied": stat_sum(last, node + r"\.hdc",
                                          "dram_bytes_copied"),
        "workload.host_s": layer_s("workload"),
        "workload.offered": sum(tb["sim"]["offered"] for tb in last),
        "workload.completed": sum(tb["sim"]["completed"] for tb in last),
        "workload.rejected_429": sum(tb["sim"]["rejected_429"]
                                     for tb in last),
        "workload.dropped": sum(tb["sim"]["dropped"] for tb in last),
        "hdclib.submitted": stat_sum(last, node + r"\.host\.hdcdrv",
                                     "submitted"),
        "hdclib.rejected_local": stat_sum(last, node + r"\.host\.hdcdrv",
                                          "rejected_local"),
        "trace.coverage_pct": 100.0 * sum(split.values())
        / sum(tb["wall_s"] for tb in last),
        "trace.overhead_pct": 100.0 * (best_wall(traced) / untraced_wall
                                       - 1.0),
    }
    other = layer_s("other")
    return m, other, len(traced), len(untraced)


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the figure bench's)")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r (one of %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    if args.seed is None:
        args.seed = 2 if args.workload == "hdfs_balance" else 1
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")

    build()
    status, out, err = run_child(args)
    sys.stderr.write(err)
    say("perfbench %s seed=%d trace=%d (host: %d CPUs, one simulation "
        "thread)" % (args.workload, args.seed, args.trace,
                     os.cpu_count() or 1))

    line = next((l for l in reversed(out.splitlines())
                 if l.startswith("RESULT ")), None)
    if status != 0 or line is None:
        why = [l for l in err.splitlines()
               if "panic:" in l or "fatal:" in l or "killed after" in l]
        m = re.search(r"aborted after (\d+) datapath operations", err)
        attempted = max(int(m.group(1)) if m else 0, 1)
        if os.WIFSIGNALED(status):
            ended = "was killed by signal %d" % os.WTERMSIG(status)
        else:
            ended = "exited with status %d" % os.waitstatus_to_exitcode(status)
        say("FAILED: the workload process %s before reporting" % ended)
        for l in why:
            say("  " + l)
        say("  all %d attempted datapath operations count as failed; no "
            "timing reported" % attempted)
        emit(False, attempted, attempted, {})
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    result = json.loads(line[len("RESULT "):])
    attempted = sum(tb["ops"] for r in result["reps"]
                    for tb in r["testbeds"])
    errors = [e for e in err.splitlines() if "check failed:" in e]
    if errors:
        say("FAILED: %d output checks failed" % len(errors))
        for e in errors[:10]:
            say("  " + e)
        say("  all %d attempted datapath operations count as failed; no "
            "timing reported" % attempted)
        emit(False, max(attempted, 1), max(attempted, 1), {})
        return 0

    first = next(r for r in result["reps"] if r["kind"] != "unwrapped")
    sim, dcs = sim_metrics(first)
    say("checks passed: digests recomputed from stored bytes, queues "
        "drained, every datapath operation completed once, HDC engines "
        "quiescent, repetitions identical")
    say("simulated results (dcs-ctrl testbed, simulated time):")
    for name, (value, unit) in sim.items():
        say("  %-18s %.6g %s" % (name, value, unit))
    say("  tail percentile    p%.4g with %.1f of %d samples beyond it" % (
        dcs["tail_pct"], dcs["tail_beyond"], dcs["samples"]))
    if dcs["open_loop"]:
        say("  open loop: latency runs from each request's arrival, so it "
            "includes backlog wait; the generator runs in simulated time "
            "and is never late")
        say("  window: offered=%d completed=%d 429=%d dropped=%d" % (
            dcs["offered"], dcs["completed"], dcs["rejected_429"],
            dcs["dropped"]))
    if "paper_err_pct" in sim:
        say("  paper_err_pct is against Fig. 12a's ~52%; the model was "
            "calibrated on the paper's numbers, so it is not a held-out "
            "check")
    # Speed-only changes keep these; the digest needs a hashed run, so it
    # is printed with --trace 1.
    hashed = [r for r in result["reps"] if r["testbeds"][0]["digest"]]
    for tb in (hashed or result["reps"])[0]["testbeds"]:
        say("  %-9s events=%d digest=%s" % (tb["label"], tb["events"],
                                           tb["digest"] or "(--trace 1)"))

    if args.trace == 0:
        values, n_timed, n_setups, n_seeds = end_to_end(result)
        say("host time (%d timed repetitions over %d seeds, each seed's "
            "median, events-weighted; setup: median of %d):"
            % (n_timed, n_seeds, n_setups))
        listed = declared["end_to_end"]
    else:
        values, other, n_traced, n_untraced = per_layer(result)
        say("per-layer host time (fastest of %d traced repetitions, "
            "against the best of %d untraced; other=%.4g s):"
            % (n_traced, n_untraced, other))
        listed = declared["per_layer"]
    units = dict(REPORT_ONLY_UNITS, **{m["name"]: m["unit"] for m in listed})
    for name, value in values.items():
        say("  %-24s %.6g %s" % (name, value, units[name]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    emit(True, attempted, 0, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
