//! The repository's benchmark: three workloads, each one process running a
//! closed loop of `Scenario::run_seed` calls, timed from outside the
//! crates. See README.md for the workloads, the metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gauntlet --seed 0 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the same
//! executions with the crates' seams wrapped and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the exit
//! code is nonzero when any execution fails the correctness gate.

mod arith;
mod gate;
mod plan;
mod replay;
mod trace;

use std::panic::AssertUnwindSafe;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ba_bench::{ScenarioRun, SharedElig};

use crate::arith::{cell_median, hit_ratio, idle_share, mean, median, tail};
use crate::gate::{Baselines, Digest};
use crate::plan::{Item, Plan, Workload};
use crate::replay::Outcome;

const USAGE: &str = "usage: perfbench --workload population|gauntlet|real_vrf \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Timed trusted-setup samples per run; `setup_s` is their median.
const SETUP_SAMPLES: u64 = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 30, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = Plan::new(args.workload, args.seed, args.seconds, nproc);
    let baselines = match Baselines::load(plan.baselines) {
        Ok(baselines) => baselines,
        Err(e) => {
            eprintln!("perfbench: cannot load a committed baseline: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host_record(&args, &plan, nproc));
    let output = if args.trace { traced(&plan, &baselines) } else { untraced(&plan, &baselines) };
    output.print();
    if output.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The host facts every result carries: a perf figure means nothing
/// without the machine, toolchain and commit it was measured on.
fn host_record(args: &Args, plan: &Plan, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |cmd: &str, arg: &[&str]| {
        Command::new(cmd)
            .args(arg)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit =
        run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {cpu:?}, \"rustc\": {rustc:?}, \"commit\": {commit:?}, \
         \"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"passes\": {}, \
         \"warmup_passes\": {}, \"workers\": {}, \"sim_threads\": {}}}",
        plan.workload.name(),
        args.seed,
        args.seconds,
        plan.passes,
        plan.warmup_passes,
        plan.workers,
        plan.sim_threads
    )
}

/// One execution's result (`None` if it panicked) and wall time.
struct Done<T> {
    out: Option<T>,
    secs: f64,
}

/// A finished closed loop.
struct Loop<T> {
    done: Vec<Done<T>>,
    wall_s: f64,
    idle_share: f64,
}

/// Runs `items` as a closed loop: `workers` threads each take the next
/// item, execute it, and only then take another. Only `exec` is timed;
/// `keep` then reduces its result to what the caller needs, on the same
/// worker. A panicking execution is caught and recorded as `None`.
fn closed_loop<T, U: Send>(
    items: &[Item],
    workers: usize,
    exec: impl Fn(Item) -> T + Sync,
    keep: impl Fn(Item, T) -> U + Sync,
) -> Loop<U> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Done<U>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    let per_worker: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut busy = 0.0;
                    loop {
                        // Relaxed: the cursor only hands out indices; each
                        // result is published through its slot's mutex.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&item) = items.get(i) else { break };
                        let t = Instant::now();
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| exec(item))).ok();
                        let secs = t.elapsed().as_secs_f64();
                        busy += secs;
                        let out = out.map(|out| keep(item, out));
                        *slots[i].lock().expect("slots are locked only to store") =
                            Some(Done { out, secs });
                    }
                    busy
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("executions are caught per item")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    // A worker that ran out of items is idle until the loop ends.
    let busy: Vec<f64> = per_worker.into_iter().collect();
    let lifetimes = vec![wall_s; busy.len()];
    let done = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("no worker panics holding a slot").expect("every item ran")
        })
        .collect();
    Loop { done, wall_s, idle_share: idle_share(&lifetimes, &busy) }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run prints.
struct Output {
    attempted: usize,
    /// One line per failed execution.
    failures: Vec<String>,
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Human-readable lines printed before it.
    notes: Vec<String>,
}

impl Output {
    fn print(&self) {
        for failure in self.failures.iter().take(20) {
            println!("FAILED {failure}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name,
                    json_num(m.name, m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        );
    }
}

/// A JSON number. JSON has no NaN or infinity, and every metric is finite
/// by construction, so a non-finite one is a bug in the arithmetic.
fn json_num(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

/// Names the failing executions; `verdicts` holds one entry per item:
/// `None` if it panicked, else the gate's failure message, if any.
fn failure_lines(
    plan: &Plan,
    items: &[Item],
    verdicts: impl Iterator<Item = Option<Option<String>>>,
) -> Vec<String> {
    items
        .iter()
        .zip(verdicts)
        .filter_map(|(item, verdict)| {
            let why = verdict.unwrap_or_else(|| Some("panicked".into()))?;
            let cell = &plan.cells[item.cell];
            Some(format!("{}/{} seed {}: {why}", cell.sweep, cell.scenario.label, item.seed))
        })
        .collect()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs the plan's warm-up passes, untimed, on run seeds that neither
/// the timed loop nor the setup samples use (so no per-key table the
/// loop needs is built ahead of it). Their results are discarded.
fn warm_up(plan: &Plan) {
    let first = plan.passes + SETUP_SAMPLES * plan.setup_passes;
    let items: Vec<Item> =
        (first..first + plan.warmup_passes).flat_map(|p| plan.pass_items(p)).collect();
    closed_loop(
        &items,
        plan.workers,
        |item| plan.cells[item.cell].scenario.run_seed(item.seed, &SharedElig::new()),
        |_, _| (),
    );
}

/// The end-to-end run: the timed closed loop of `run_seed` calls, the
/// trusted setup timed on its own, and the correctness gate.
fn untraced(plan: &Plan, baselines: &Baselines) -> Output {
    warm_up(plan);
    let items = plan.items(plan.passes);
    let run = closed_loop(
        &items,
        plan.workers,
        |item| plan.cells[item.cell].scenario.run_seed(item.seed, &SharedElig::new()),
        |item, record| gate::digest(plan, item, &record, baselines),
    );
    let (wall_s, rss) = (run.wall_s, peak_rss_mib());

    // Set-up, timed after the loop on passes the loop did not run: built
    // from outside exactly as `run_seed` builds it, then dropped. Running
    // it first would leave the fixed-base tables of the loop's own keys in
    // the process-wide table cache and make the loop's setups cheaper.
    let setup_s: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|sample| {
            let first = plan.passes + sample * plan.setup_passes;
            let start = Instant::now();
            for item in (first..first + plan.setup_passes).flat_map(|p| plan.pass_items(p)) {
                drop(replay::trusted_setup(&plan.cells[item.cell].scenario, item.seed));
            }
            start.elapsed().as_secs_f64()
        })
        .collect();

    let exec_ms: Vec<f64> = run.done.iter().map(|d| d.secs * 1e3).collect();
    let by_cell: Vec<(usize, f64)> =
        items.iter().map(|i| i.cell).zip(exec_ms.iter().copied()).collect();
    let digests: Vec<Option<Digest>> = run.done.into_iter().map(|d| d.out).collect();
    let ran = || digests.iter().flatten();
    let kbits: Vec<f64> = ran().map(|d| d.kbits).collect();
    let rounds: Vec<f64> = ran().map(|d| d.rounds).collect();
    let exec_tail = tail(&exec_ms).expect("at least one execution");
    let failures =
        failure_lines(plan, &items, digests.iter().map(|d| d.as_ref().map(|d| d.failure.clone())));
    let notes = vec![
        format!(
            "exec_ms_tail is p{:.2} of {} executions, {} beyond it{}",
            exec_tail.percentile,
            exec_tail.count,
            exec_tail.beyond,
            if exec_tail.beyond == 0 {
                " (too few executions for a tail percentile of at least p90: the maximum)"
            } else {
                ""
            }
        ),
        format!("exec_ms_tail = {} ms", exec_tail.value),
        format!("failed_share = {} ratio", failures.len() as f64 / items.len() as f64),
    ];
    Output {
        attempted: items.len(),
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric("exec_ms_p50", cell_median(&by_cell).unwrap_or(0.0), "ms"),
            metric("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
            metric("peak_rss_mb", rss, "MiB"),
            metric("kbits_per_exec", mean(&kbits), "kbit"),
            metric("rounds_per_exec", mean(&rounds), "rounds"),
        ],
        failures,
        notes,
    }
}

/// Why a traced execution differs from the untraced one of the same
/// (cell, seed), if it does. Every observable of a record is distilled
/// from the report, the verdict and the adversary's probe counters, so
/// equal inputs mean equal records.
fn fidelity(plain: &ScenarioRun, traced: &Outcome) -> Option<String> {
    let report = plain.report.as_ref()?;
    let (pm, tm) = (&report.metrics, &traced.report.metrics);
    if *report != traced.report
        || (pm.peak_live_nodes, pm.peak_resident_msgs)
            != (tm.peak_live_nodes, tm.peak_resident_msgs)
    {
        return Some("traced report differs from the untraced one".into());
    }
    if plain.verdict != Some(traced.verdict) {
        return Some("traced verdict differs from the untraced one".into());
    }
    traced.extras.iter().find_map(|(name, v)| {
        (plain.record.get(name) != Some(*v))
            .then(|| format!("traced {name} differs from the untraced one"))
    })
}

/// The traced run: half the timed phase's passes, executed untraced and
/// then traced through the wrapped seams; the two must agree execution
/// for execution. Prints the per-layer metrics.
fn traced(plan: &Plan, baselines: &Baselines) -> Output {
    warm_up(plan);
    let items = plan.items((plan.passes / 2).max(1));
    let plain = closed_loop(
        &items,
        plan.workers,
        |item| plan.cells[item.cell].scenario.execute(item.seed),
        |item, run| (gate::digest(plan, item, &run.record, baselines), run),
    );
    let traced = closed_loop(
        &items,
        plan.workers,
        |item| replay::run_traced(&plan.cells[item.cell].scenario, item.seed),
        |_, outcome| outcome,
    );

    let mut digests: Vec<Option<Digest>> = Vec::new();
    let mut mismatches: Vec<Option<String>> = Vec::new();
    for (p, t) in plain.done.into_iter().zip(&traced.done) {
        mismatches.push(match (&p.out, &t.out) {
            (Some((_, p)), Some(t)) => fidelity(p, t),
            (_, None) => Some("traced execution panicked".into()),
            (None, Some(_)) => None, // already failed as a panic
        });
        digests.push(p.out.map(|(digest, _)| digest));
    }
    let verdicts = digests
        .into_iter()
        .zip(mismatches)
        .map(|(digest, mismatch)| digest.map(|d| d.failure.or(mismatch)));
    let failures = failure_lines(plan, &items, verdicts);
    let reports = || traced.done.iter().filter_map(|d| d.out.as_ref()).map(|o| &o.report.metrics);
    let peak_live = reports().map(|m| m.peak_live_nodes).max().unwrap_or(0);
    let peak_resident = reports().map(|m| m.peak_resident_msgs).max().unwrap_or(0);

    use trace::*;
    let exec_s = EXEC_NS.load(Ordering::Relaxed) as f64 * 1e-9;
    let metrics = vec![
        metric("fmine.would_mine.calls", WOULD_MINE.calls() as f64, "count"),
        metric("fmine.would_mine.busy_s", WOULD_MINE.secs(), "s"),
        metric(
            "fmine.would_mine.hit_ratio",
            hit_ratio(WOULD_MINE_HITS.load(Ordering::Relaxed), WOULD_MINE.calls()),
            "ratio",
        ),
        metric("fmine.mine.calls", MINE.calls() as f64, "count"),
        metric("fmine.mine.busy_s", MINE.secs(), "s"),
        metric("fmine.verify.calls", VERIFY.calls() as f64, "count"),
        metric("fmine.verify.busy_s", VERIFY.secs(), "s"),
        metric("fmine.verify_batch.calls", VERIFY_BATCH.calls() as f64, "count"),
        metric(
            "fmine.verify_batch.items",
            VERIFY_BATCH_ITEMS.load(Ordering::Relaxed) as f64,
            "count",
        ),
        metric("fmine.verify_batch.busy_s", VERIFY_BATCH.secs(), "s"),
        metric("fmine.setup.busy_s", SETUP.secs(), "s"),
        metric("core.step.calls", STEP.calls() as f64, "count"),
        metric("core.step.self_s", STEP.secs(), "s"),
        metric("core.step.max_ms", STEP_MAX_NS.load(Ordering::Relaxed) as f64 * 1e-6, "ms"),
        metric("sim.transport.copies", TRANSPORT.calls() as f64, "count"),
        metric("sim.transport.busy_s", TRANSPORT.secs(), "s"),
        metric("sim.engine.self_s", ENGINE.secs(), "s"),
        metric("sim.peak_live_nodes", peak_live as f64, "count"),
        metric("sim.peak_resident_msgs", peak_resident as f64, "count"),
        metric("adversary.calls", ADVERSARY.calls() as f64, "count"),
        metric("adversary.busy_s", ADVERSARY.secs(), "s"),
        metric("bench.exec_s", exec_s, "s"),
        metric("bench.idle_share", plain.idle_share, "ratio"),
        metric("bench.trace_overhead_share", traced.wall_s / plain.wall_s - 1.0, "ratio"),
    ];
    let mut notes = vec![format!(
        "traced {} executions; untraced wall {:.3} s, traced wall {:.3} s",
        items.len(),
        plain.wall_s,
        traced.wall_s
    )];
    for m in &metrics {
        if m.name.ends_with("_s") && !matches!(m.name, "bench.exec_s" | "fmine.setup.busy_s") {
            notes.push(format!("share of bench.exec_s: {} = {:.4}", m.name, m.value / exec_s));
        }
    }
    if plan.cells.iter().any(|c| c.scenario.population == ba_sim::PopulationMode::Sparse) {
        notes.push(
            "sparse engine: it builds its nodes internally and has no Transport, so protocol steps \
             are counted in sim.engine.self_s and core.step.* / sim.transport.* read 0"
                .into(),
        );
    }
    if plan.sim_threads > 1 {
        notes.push(format!(
            "sim_threads = {}: sim.engine.self_s includes waiting for in-execution worker threads; \
             oracle calls made on those threads count in fmine.* but are not subtracted from it",
            plan.sim_threads
        ));
    }
    notes.push("bench.idle_share is measured on the untraced pass".into());
    Output { attempted: items.len(), failures, metrics, notes }
}
