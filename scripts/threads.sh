#!/usr/bin/env bash
# CPU time and run-queue wait per daemon thread role, for one benchmark
# workload run of this checkout.
#
#   scripts/threads.sh <workload> [seed]
#
# Runs `benchmark/run.sh --workload <workload> --seed <seed> --seconds 12
# --trace 0` (seed 1 by default; the build is run.sh's own) and, while it
# runs, reads every 50 ms the `/proc/<pid>/task/<tid>/{comm,schedstat}` of
# each `scidockd` the benchmark starts. Nothing is written under /proc and
# the program is not changed: the numbers are the kernel's own per-thread
# scheduler accounting (schedstat: ns on a CPU, ns waiting on a run queue).
#
# Printed, per thread name with a trailing `-<n>` dropped (the kernel keeps
# 15 bytes of a name: the workers' `scidockd-worker-<i>` all read
# `scidockd-worker`, the committer `provenance-committer` reads
# `provenance-comm`; unnamed threads carry the process name): the thread
# count, CPU seconds and run-queue wait seconds, summed over every daemon
# of the run. A daemon's connection threads all read `scidockd-conn`, so
# they are numbered `#1`, `#2`, ... by thread id, which the kernel hands
# out in creation order, and the one accept thread creates them in the
# order it accepts connections. The serve workloads connect their driver
# before their steerer (benchmark/src/workloads.rs), so on the measured
# daemon `#1` serves the driver's status polls and submits and `#2` the
# steering queries; the n column shows when other daemons add to a row.
# The last column is the part of the CPU time a thread spent after its
# daemon's search workers last gained CPU (all of it in a daemon whose
# workers were never sampled): time that did not compete with the search.
# Then the sum over all sampled threads beside the daemons' own utime +
# stime (which also counts the last < 50 ms of a thread that
# exited between two samples), and the share of the box's CPU time that
# was idle (idle + iowait in /proc/stat) from the first to the last sample
# that found a daemon.
#
# A workload without a daemon (dist_screen, deep_local) samples nothing.
# The run's own output is kept in target/threads/<workload>-<seed>.log.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: scripts/threads.sh <workload> [seed]" >&2
    exit 2
fi
workload="$1" seed="${2:-1}"
[[ "$seed" =~ ^[0-9]+$ ]] || { echo "seed must be a number" >&2; exit 2; }

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/target/threads"
log="$root/target/threads/$workload-$seed.log"

exec python3 - "$root" "$workload" "$seed" "$log" <<'EOF'
import os, re, subprocess, sys, time

root, workload, seed, log = sys.argv[1:]
TICK = os.sysconf("SC_CLK_TCK")


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def box_cpu():
    # the aggregate `cpu` line: (idle + iowait, total) in clock ticks
    f = [int(x) for x in read("/proc/stat").split("\n", 1)[0].split()[1:]]
    return f[3] + f[4], sum(f[:8])


CPUS = sum(1 for l in read("/proc/stat").splitlines() if re.match(r"cpu\d", l))


def daemons(bench):
    # every scidockd below the benchmark process, by the ppid in each
    # process's /proc/<pid>/stat
    parent, comm = {}, {}
    for d in os.listdir("/proc"):
        stat = read(f"/proc/{d}/stat") if d.isdigit() else None
        if stat is None:
            continue
        head, rest = stat.rsplit(")", 1)
        parent[int(d)] = int(rest.split()[1])
        comm[int(d)] = head.split("(", 1)[1]

    def below(pid):
        while pid in parent:
            pid = parent[pid]
            if pid == bench:
                return True
        return False

    return [p for p, c in comm.items() if c == "scidockd" and below(p)]


threads = {}  # (pid, tid) -> (name, cpu_ns, wait_ns)
hist = {}  # (pid, tid) -> [(time, cpu_ns)] at each sample
procs = {}  # pid -> utime + stime, seconds
box = []  # box_cpu() and the time at each sample that found a daemon
with open(log, "w") as out:
    bench = subprocess.Popen(
        ["bash", f"{root}/benchmark/run.sh", "--workload", workload, "--seed", seed,
         "--seconds", "12", "--trace", "0"],
        stdout=out, stderr=subprocess.STDOUT, cwd=root)
    while bench.poll() is None:
        found = daemons(bench.pid)
        now = time.monotonic()
        if found:
            box.append((box_cpu(), now))
        for pid in found:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                comm = read(f"/proc/{pid}/task/{tid}/comm")
                stat = read(f"/proc/{pid}/task/{tid}/schedstat")
                if comm is None or stat is None:
                    continue
                cpu, wait = (int(x) for x in stat.split()[:2])
                threads[(pid, tid)] = (comm.strip(), cpu, wait)
                hist.setdefault((pid, tid), []).append((now, cpu))
            stat = read(f"/proc/{pid}/stat")
            if stat is not None:
                f = stat.rsplit(")", 1)[1].split()
                procs[pid] = (int(f[11]) + int(f[12])) / TICK
        time.sleep(0.05)

if bench.returncode != 0:
    sys.exit(f"threads.sh: the benchmark exited {bench.returncode}; see {log}")
if not threads:
    print(f"threads.sh: {workload} seed {seed}: no scidockd sampled")
    sys.exit(0)
((idle0, total0), t0), ((idle1, total1), t1) = box[0], box[-1]
print(f"threads.sh: {workload} seed {seed}: {len(procs)} scidockd process(es), "
      f"{len(threads)} threads sampled every 50 ms over {t1 - t0:.1f} s")
conns = {}
for (pid, tid), (name, _, _) in threads.items():
    if name == "scidockd-conn":
        conns.setdefault(pid, []).append(int(tid))
rank = {(pid, str(t)): i + 1 for pid, ts in conns.items() for i, t in enumerate(sorted(ts))}
busy = {}  # pid -> the first sample at which its workers had their last CPU
for key, (name, cpu, _) in threads.items():
    if name.startswith("scidockd-worker"):
        t = next(t for t, c in hist[key] if c == cpu)
        busy[key[0]] = max(busy.get(key[0], t), t)
roles = {}
for key, (name, cpu, wait) in threads.items():
    role = re.sub(r"-\d+$", "", name)
    if key in rank:
        role += f" #{rank[key]}"
    until = busy.get(key[0], float("-inf"))
    before = [c for t, c in hist[key] if t <= until]
    r = roles.setdefault(role, [0, 0, 0, 0])
    r[0] += 1
    r[1] += cpu
    r[2] += wait
    r[3] += cpu - (before[-1] if before else 0)
print(f"{'thread':<20} {'n':>3} {'cpu_s':>8} {'runq_wait_s':>12} {'after_workers_s':>16}")
for name, (n, cpu, wait, after) in sorted(roles.items(), key=lambda kv: -kv[1][1]):
    print(f"{name:<20} {n:>3} {cpu / 1e9:>8.2f} {wait / 1e9:>12.2f} {after / 1e9:>16.2f}")
print(f"{'sampled threads':<24} {sum(r[1] for r in roles.values()) / 1e9:>8.2f} cpu_s")
print(f"{'daemons utime+stime':<24} {sum(procs.values()):>8.2f} cpu_s")
idle = (idle1 - idle0) / max(total1 - total0, 1)
print(f"box idle share while a daemon ran: {idle:.0%} of {CPUS} CPU(s)")
EOF
