//! One end-to-end, layer-attributed SciDock campaign benchmark.
//!
//! `benchmark/run.sh` builds the shipped `scidockd` / `scidock-worker`
//! binaries and this program, then runs it. With `--workload` it makes one
//! run and ends with the one-line JSON result the benchmark contract asks
//! for; without, it runs a set of every workload and prints every metric by
//! name. See `benchmark/README.md`.

mod budget;
mod digest;
mod layers;
mod proc;
mod spec;
mod stats;
mod steer;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use telemetry::json::num;
use telemetry::{CollectorConfig, Telemetry};

use crate::digest::Golden;
use crate::spec::{Better, EndToEnd, END_TO_END, PER_LAYER, REFERENCE_SECONDS, WORKLOADS};
use crate::stats::{iqr_share, median, tail_quantile};
use crate::workloads::{Ctx, ServeWorkload, UnitOut};

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--ab]
  --workload W  one run of W, ending in the one-line JSON result; W is one of
                screen_cold screen_warm_mem tenants_small dist_screen deep_local
  --seed N      draws the tenants_small campaign order and the probe literals (11)
  --seconds S   how long a run measures (12); scales the number of units
  --trace       also report the per-layer metrics and write a Chrome trace
  --smoke       every workload at a tenth of its size, gates on, no bounds
  --ab          two sets of the same build back to back; fails on a gap over a bound";

/// Set once the first workload run of this process starts.
static RAN_BEFORE: AtomicBool = AtomicBool::new(false);

/// Runs per workload in a set.
const SET_RUNS: usize = 3;
/// Time box of one layer-suite entry.
const LAYER_BUDGET: Duration = Duration::from_millis(300);

struct Args {
    workload: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    ab: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        ab: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = WORKLOADS.iter().position(|w| w.name == name);
                a.workload = Some(w.ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--ab" => a.ab = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Where things are: fixed for the life of the process.
struct Env {
    out: PathBuf,
    scidockd: PathBuf,
    worker: PathBuf,
    golden: BTreeMap<String, Golden>,
}

/// One run of one workload: its units, folded.
struct RunOut {
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<String, f64>,
    extra: BTreeMap<String, f64>,
    /// Open-loop steering latencies of every unit, ms.
    live_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    slow_steering: u64,
    digests: BTreeMap<String, String>,
    units: usize,
    wall_s: f64,
}

fn run_workload(env: &Env, args: &Args, w: usize, trace: bool) -> Result<RunOut, String> {
    let t0 = Instant::now();
    let name = WORKLOADS[w].name;
    let sizes = if args.smoke { &spec::SMOKE } else { &spec::FULL };
    let tel = if trace {
        // room for every poll span of the longest unit
        Telemetry::with_config(CollectorConfig { shards: 16, shard_capacity: 128 * 1024 })
    } else {
        Telemetry::disabled()
    };
    let ctx = Ctx {
        out: &env.out,
        scidockd: &env.scidockd,
        worker: &env.worker,
        golden: &env.golden,
        sizes,
        seed: args.seed,
        tel: tel.clone(),
        fresh_process: !RAN_BEFORE.swap(true, Ordering::SeqCst),
    };
    let units = sizes.units_for(w, args.seconds);
    let mut outs: Vec<UnitOut> = Vec::with_capacity(units);
    for unit in 0..units {
        outs.push(match name {
            "screen_cold" => {
                workloads::serve_unit(&ctx, name, &ServeWorkload::screen(sizes, false), unit)?
            }
            "screen_warm_mem" => {
                workloads::serve_unit(&ctx, name, &ServeWorkload::screen(sizes, true), unit)?
            }
            "tenants_small" => {
                workloads::serve_unit(&ctx, name, &ServeWorkload::tenants(sizes, args.seed), unit)?
            }
            "dist_screen" => workloads::dist_unit(&ctx, unit)?,
            _ => workloads::deep_unit(&ctx, unit)?,
        });
    }
    workloads::sweep(&env.out, name);
    if let Some(trace_json) = tel.export_chrome_trace() {
        let path = env.out.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace_json).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(fold(outs, t0.elapsed().as_secs_f64()))
}

/// Fold the units of a run: medians of per-unit values, the peak of the
/// peaks, and the steering percentiles over the pooled open-loop samples.
fn fold(outs: Vec<UnitOut>, wall_s: f64) -> RunOut {
    let live_ms: Vec<f64> = outs.iter().flat_map(|u| u.live_ms.clone()).collect();
    let mut e2e = BTreeMap::new();
    for m in &END_TO_END {
        let vals: Vec<f64> = outs.iter().filter_map(|u| u.e2e.get(m.name).copied()).collect();
        let v = match m.name {
            "setup_s" => median(&outs.iter().flat_map(|u| u.setups.clone()).collect::<Vec<_>>()),
            "rss_peak_mb" => vals.iter().copied().reduce(f64::max),
            "steer_p50_ms" | "steer_p95_ms" => steering_percentile(m.name, &live_ms),
            _ => median(&vals),
        };
        if let Some(v) = v {
            e2e.insert(m.name, v);
        }
    }
    let fold_map = |pick: &dyn Fn(&UnitOut) -> &BTreeMap<String, f64>| -> BTreeMap<String, f64> {
        let mut names: Vec<&String> = outs.iter().flat_map(|u| pick(u).keys()).collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .filter_map(|n| {
                let vals: Vec<f64> = outs.iter().filter_map(|u| pick(u).get(n).copied()).collect();
                Some((n.clone(), median(&vals)?))
            })
            .collect()
    };
    let mut layer = fold_map(&|u| &u.layer);
    if !layer.is_empty() {
        // the highest of p95 / p90 / p50 that has ten samples beyond it
        let late_ms: Vec<f64> = outs.iter().flat_map(|u| u.late_ms.clone()).collect();
        let late = [0.95, 0.90, 0.50].iter().find_map(|q| tail_quantile(&late_ms, *q));
        layer.insert("client.steer.late_p95_ms".into(), late.unwrap_or(0.0));
    }
    RunOut {
        e2e,
        layer,
        extra: fold_map(&|u| &u.extra),
        live_ms,
        attempted: outs.iter().map(|u| u.attempted).sum(),
        failed: outs.iter().map(|u| u.failed).sum(),
        problems: outs.iter().flat_map(|u| u.problems.clone()).collect(),
        slow_steering: outs.iter().map(|u| u.slow_steering).sum(),
        digests: outs.iter().flat_map(|u| u.digests.clone()).collect(),
        units: outs.len(),
        wall_s,
    }
}

/// `steer_p50_ms` / `steer_p95_ms` over pooled open-loop samples. One run
/// holds ~200 samples, not always the 200 a p95 needs (ten beyond it); a set
/// pools its runs and always has them.
fn steering_percentile(metric: &str, live_ms: &[f64]) -> Option<f64> {
    match metric {
        "steer_p50_ms" => median(live_ms),
        _ => tail_quantile(live_ms, 0.95),
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |v| format!("{v:.4}"))
}

/// The contract's result: one JSON object, the last line of stdout.
fn result_line(run: &RunOut, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    )
}

fn print_run(w: usize, run: &RunOut) {
    println!(
        "-- {}: {} unit(s), {:.1} s wall, ops_total {} ops_failed {}",
        WORKLOADS[w].name, run.units, run.wall_s, run.attempted, run.failed
    );
    for m in &END_TO_END {
        println!("   {:<22} {:>14} {}", m.name, fmt_opt(run.e2e.get(m.name).copied()), m.unit);
    }
    if run.slow_steering > 0 {
        println!("   {} steering queries took over 1 s from their due time", run.slow_steering);
    }
    for (spec, digest) in &run.digests {
        println!("   digest {spec} = {digest}");
    }
    for p in run.problems.iter().take(20) {
        println!("   FAILED: {p}");
    }
}

fn print_layers(title: &str, layer: &BTreeMap<String, f64>) {
    println!("-- per-layer, {title}");
    for m in PER_LAYER.iter().filter(|m| layer.contains_key(m.name)) {
        let dir = if m.better == Better::Lower { "lower is better" } else { "higher is better" };
        println!("   {:<40} {:>16.4} {:<6} {dir}", m.name, layer[m.name], m.unit);
    }
}

fn print_extras(run: &RunOut) {
    for (name, v) in &run.extra {
        println!("   {name:<40} {v:>16.4} (this workload only)");
    }
}

/// `--workload W`: one run, the contract's JSON as the last line.
fn single(env: &Env, args: &Args, w: usize) -> Result<bool, String> {
    let run = run_workload(env, args, w, args.trace)?;
    print_run(w, &run);
    let line = if args.trace {
        let mut layer = run.layer.clone();
        layer.extend(layers::run(
            &env.out.join("layers"),
            &env.scidockd,
            &env.worker,
            LAYER_BUDGET,
        )?);
        print_layers("traced run and layer suite", &layer);
        print_extras(&run);
        let metrics: Result<Vec<_>, String> = PER_LAYER
            .iter()
            .map(|m| {
                let v = layer.get(m.name).ok_or_else(|| format!("{} was not measured", m.name))?;
                Ok((m.name, m.unit, *v))
            })
            .collect();
        result_line(&run, &metrics?)
    } else {
        let metrics: Result<Vec<_>, String> = END_TO_END
            .iter()
            .filter(|m| m.everywhere)
            .map(|m| {
                let v =
                    run.e2e.get(m.name).ok_or_else(|| format!("{} was not measured", m.name))?;
                Ok((m.name, m.unit, *v))
            })
            .collect();
        result_line(&run, &metrics?)
    };
    println!("{line}");
    Ok(run.failed == 0)
}

/// A set: every selected workload `runs` times, in `order`.
struct Set {
    /// workload → its runs.
    runs: BTreeMap<usize, Vec<RunOut>>,
}

impl Set {
    fn values(&self, w: usize, metric: &str) -> Vec<f64> {
        self.runs[&w].iter().filter_map(|r| r.e2e.get(metric).copied()).collect()
    }

    /// The set's value of a metric: the median of its runs, except the
    /// steering percentiles, which are taken over the runs' pooled samples.
    fn value(&self, w: usize, metric: &str) -> Option<f64> {
        if matches!(metric, "steer_p50_ms" | "steer_p95_ms") {
            let pooled: Vec<f64> = self.runs[&w].iter().flat_map(|r| r.live_ms.clone()).collect();
            return steering_percentile(metric, &pooled);
        }
        median(&self.values(w, metric))
    }

    fn ok(&self) -> bool {
        self.runs.values().flatten().all(|r| r.failed == 0)
    }
}

fn run_set(env: &Env, args: &Args, order: &[usize], runs: usize) -> Result<Set, String> {
    let mut set = Set { runs: BTreeMap::new() };
    for &w in order {
        for _ in 0..runs {
            let run = run_workload(env, args, w, false)?;
            print_run(w, &run);
            set.runs.entry(w).or_default().push(run);
        }
    }
    Ok(set)
}

fn print_set(set: &Set) {
    for (&w, runs) in &set.runs {
        let (total, failed): (u64, u64) =
            runs.iter().fold((0, 0), |a, r| (a.0 + r.attempted, a.1 + r.failed));
        println!("== {} — {}", WORKLOADS[w].name, WORKLOADS[w].why);
        println!("   {:<22} {:>12} {:>12} {:>12}  n  unit", "metric", "median", "min", "max");
        for m in &END_TO_END {
            let v = set.values(w, m.name);
            let lo = v.iter().copied().reduce(f64::min);
            let hi = v.iter().copied().reduce(f64::max);
            println!(
                "   {:<22} {:>12} {:>12} {:>12}  {}  {}",
                m.name,
                fmt_opt(set.value(w, m.name)),
                fmt_opt(lo),
                fmt_opt(hi),
                v.len(),
                m.unit
            );
        }
        println!("   ops_total = {total}  ops_failed = {failed}");
    }
}

/// Results of the same spec must agree bit for bit across the workloads
/// that ran it.
fn parity(sets: &[&Set]) -> bool {
    // spec → (first digest seen, workloads that produced it)
    let mut seen: BTreeMap<&str, (&str, Vec<&str>)> = BTreeMap::new();
    let mut ok = true;
    for set in sets {
        for (&w, runs) in &set.runs {
            for (spec, digest) in runs.iter().flat_map(|r| &r.digests) {
                let name = WORKLOADS[w].name;
                let entry = seen.entry(spec).or_insert((digest, Vec::new()));
                if entry.0 != digest {
                    println!(
                        "PARITY BROKEN: {spec} is {} elsewhere but {digest} on {name}",
                        entry.0
                    );
                    ok = false;
                } else if !entry.1.contains(&name) {
                    entry.1.push(name);
                }
            }
        }
    }
    for (spec, (digest, names)) in &seen {
        println!("   parity {spec} = {digest} on {}", names.join(", "));
    }
    ok
}

/// The traced pass of `--trace` without `--workload`: each workload once
/// more with spans on, then the layer suite once.
/// Per-layer numbers of a traced pass: `(section, name → value)`, one section
/// per workload and one for the layer suite.
type Traced = Vec<(&'static str, BTreeMap<String, f64>)>;

fn traced_pass(
    env: &Env,
    args: &Args,
    order: &[usize],
    untraced: &Set,
) -> Result<(bool, Traced), String> {
    let mut ok = true;
    let mut traced: Traced = Vec::new();
    for &w in order {
        let mut run = run_workload(env, args, w, true)?;
        print_run(w, &run);
        print_layers(&format!("traced {}", WORKLOADS[w].name), &run.layer);
        print_extras(&run);
        if let (Some(base), Some(tet)) = (untraced.value(w, "tet_s"), run.e2e.get("tet_s")) {
            let pct = (tet / base - 1.0) * 100.0;
            println!("   {:<40} {pct:>16.4} % (traced vs untraced tet_s)", "trace.overhead_pct");
            run.extra.insert("trace.overhead_pct".into(), pct);
        }
        println!(
            "   Chrome trace: {}",
            env.out.join(format!("trace-{}.json", WORKLOADS[w].name)).display()
        );
        ok &= run.failed == 0;
        run.layer.append(&mut run.extra);
        traced.push((WORKLOADS[w].name, run.layer));
    }
    let suite = layers::run(&env.out.join("layers"), &env.scidockd, &env.worker, LAYER_BUDGET)?;
    print_layers("layer suite", &suite);
    traced.push(("layer_suite", suite));
    Ok((ok, traced))
}

fn worse_share(m: &EndToEnd, a: f64, b: f64) -> f64 {
    // how much worse the worse of the two medians is, as a share of the other
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match m.better {
        Better::Lower => (hi - lo) / lo,
        Better::Higher => (hi - lo) / hi,
    }
}

/// `--ab`: two sets of the same build; every gap must stay within its bound.
fn ab(env: &Env, args: &Args, order: &[usize]) -> Result<bool, String> {
    println!("== set A");
    let a = run_set(env, args, order, SET_RUNS)?;
    println!("== set B (reverse workload order)");
    let reversed: Vec<usize> = order.iter().rev().copied().collect();
    let b = run_set(env, args, &reversed, SET_RUNS)?;
    let mut ok = a.ok() && b.ok() && parity(&[&a, &b]);
    println!("== A/B: medians of the two sets, their gap, the bound");
    for &w in order {
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (a.value(w, m.name), b.value(w, m.name)) else {
                continue;
            };
            let gap = worse_share(m, ma, mb);
            let within = gap <= m.bound || (ma - mb).abs() <= m.floor;
            let verdict = match (within, m.gated) {
                (true, _) => "ok",
                (false, true) => "OVER",
                (false, false) => "over (not gated)",
            };
            let both: Vec<f64> = [a.values(w, m.name), b.values(w, m.name)].concat();
            println!(
                "   {:<16} {:<20} A {:>12.4} B {:>12.4} {:<4} gap {:>5.1} % bound {:>4.0} % spread {:>5.1} % {}",
                WORKLOADS[w].name,
                m.name,
                ma,
                mb,
                m.unit,
                gap * 100.0,
                m.bound * 100.0,
                iqr_share(&both).unwrap_or(0.0) * 100.0,
                verdict
            );
            ok &= within || !m.gated;
        }
    }
    Ok(ok)
}

fn write_summary(env: &Env, args: &Args, set: &Set, traced: &Traced) -> Result<(), String> {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "{{\n  \"nproc\": {nproc},\n  \"rustc\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{",
        telemetry::json::escape(&rustc),
        args.seed,
        num(args.seconds)
    );
    for (i, (&w, runs)) in set.runs.iter().enumerate() {
        s += &format!("{}\n    \"{}\": {{", if i > 0 { "," } else { "" }, WORKLOADS[w].name);
        let mut first = true;
        for m in &END_TO_END {
            let v = set.values(w, m.name);
            let Some(med) = set.value(w, m.name) else { continue };
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            s += &format!(
                "{}\n      \"{}\": {{\"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"unit\": \"{}\"}}",
                if first { "" } else { "," },
                m.name,
                num(med),
                num(lo),
                num(hi),
                v.len(),
                m.unit
            );
            first = false;
        }
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        s += &format!(",\n      \"ops_failed\": {failed}\n    }}");
    }
    s += "\n  }";
    for (section, layer) in traced {
        let rows: Vec<String> =
            layer.iter().map(|(name, v)| format!("\n    \"{name}\": {}", num(*v))).collect();
        s += &format!(",\n  \"per_layer.{section}\": {{{}\n  }}", rows.join(","));
    }
    s += "\n}\n";
    let path = env.out.join("last-set.json");
    std::fs::write(&path, s).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("set summary written to {}", path.display());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        return Err(format!("the load shape needs 2 cores; this machine has {nproc}"));
    }
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let env = Env {
        out: here.join("out"),
        scidockd: proc::sibling_bin("scidockd")?,
        worker: proc::sibling_bin("scidock-worker")?,
        golden: digest::parse_golden(include_str!("../golden.json"))?,
    };
    std::fs::create_dir_all(&env.out).map_err(|e| format!("create {}: {e}", env.out.display()))?;

    let order: Vec<usize> = match args.workload {
        Some(w) => vec![w],
        None => (0..WORKLOADS.len()).collect(),
    };
    if args.ab {
        return ab(&env, &args, &order);
    }
    if let Some(w) = args.workload {
        return single(&env, &args, w);
    }
    let set = run_set(&env, &args, &order, if args.smoke { 1 } else { SET_RUNS })?;
    print_set(&set);
    let mut ok = set.ok() & parity(&[&set]);
    let mut traced = Traced::new();
    if args.trace {
        let (traced_ok, layers) = traced_pass(&env, &args, &order, &set)?;
        ok &= traced_ok;
        traced = layers;
    }
    if !args.smoke {
        write_summary(&env, &args, &set, &traced)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: failed operations or checks (see FAILED lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_invocation_parses() {
        let a =
            args(&["--workload", "dist_screen", "--seed", "7", "--seconds", "12", "--trace", "0"])
                .unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Some(3), 7, 12.0, false));
        assert!(args(&["--workload", "deep_local", "--trace", "1"]).unwrap().trace);
        // a bare --trace (the human spelling) means on, whatever follows
        let a = args(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// `BENCHMARK.json` is written by hand; it must say what the tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = include_str!("../../BENCHMARK.json");
        let dir = |b: Better| if b == Better::Lower { "lower" } else { "higher" };
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why is {} chars", w.name, w.why.len());
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "workload {} differs", w.name);
        }
        for m in END_TO_END.iter().filter(|m| m.everywhere) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                dir(m.better),
                m.bound
            );
            assert!(json.contains(&entry), "end-to-end metric {} differs: {entry}", m.name);
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                dir(m.better)
            );
            assert!(json.contains(&entry), "per-layer metric {} differs: {entry}", m.name);
        }
        let listed = json.matches("\"better\"").count();
        let everywhere = END_TO_END.iter().filter(|m| m.everywhere).count();
        assert_eq!(listed, everywhere + PER_LAYER.len(), "BENCHMARK.json lists other metrics");
        assert!(json.contains(&format!("\"run_seconds\": {REFERENCE_SECONDS}")));
    }

    #[test]
    fn gap_is_the_worse_median_over_the_better() {
        let lower = &END_TO_END[1]; // tet_s
        let higher = &END_TO_END[2]; // pairs_per_s
        assert_eq!(worse_share(lower, 10.0, 11.0), 0.1);
        assert_eq!(worse_share(lower, 11.0, 10.0), 0.1);
        assert_eq!(worse_share(higher, 100.0, 90.0), 0.1);
    }
}
