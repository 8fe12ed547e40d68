//! `bench_e2e`: the repo's end-to-end benchmark. Five workloads through
//! the real stack (`sdm-apps` → `sdm-core` → `sdm-mpi` → `sdm-pfs`, with
//! `sdm-metadb` behind `CachedStore`), simulated and host time side by
//! side, outputs verified, and in a separate traced run the time
//! attributed to layers from outside. See README.md.

mod args;
mod fun3d;
mod host;
mod json;
mod meta;
mod micro;
mod reference;
mod report;
mod rt;
mod stats;
mod timed_store;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use args::Args;
use host::Heap;
use json::Json;
use reference::Reference;
use report::{Better, Metric, END_TO_END};
use workload::{Env, Rep, SetupTimes, Workload};

/// The workloads, in running order. Later issues cite these names.
pub const WORKLOADS: [&str; 5] = [
    "fun3d_fresh",
    "fun3d_history",
    "rt_write",
    "rt_restart_read",
    "meta_small_steps",
];

/// The workloads BENCHMARK.json names, i.e. the ones the driver runs: at
/// 22 runs each, four leave a run twice the time five would. The one left
/// out is `rt_restart_read`, whose gathers live in the last-level cache and
/// take twice as long when other tenants evict them (README, "Steadiness").
#[cfg(test)]
pub const CONTRACT_WORKLOADS: [&str; 4] = [
    "fun3d_fresh",
    "fun3d_history",
    "rt_write",
    "meta_small_steps",
];

/// Set-ups per end-to-end run; `setup_s` is their median. (A traced run
/// reports no `setup_s` and sets up once.)
const SETUPS: usize = 3;
/// Repetitions on the allocator's defaults that start a run: they give
/// `host_peak_rss_mb` and warm caches and lazy state.
const COLD_REPS: usize = 2;
/// Untimed repetitions after the switch to the warm heap, which fill it.
const WARMUPS: usize = 3;
/// Fewest timed repetitions of a run, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Share of `--seconds` the traced run gives its repetitions; the layer
/// sections take the rest.
const TRACE_SHARE: f64 = 0.8;

fn set_up(name: &str, env: &Env) -> (Box<dyn Workload>, SetupTimes) {
    match name {
        "fun3d_fresh" | "fun3d_history" => {
            let (w, t) = fun3d::setup(env, name == "fun3d_history");
            (Box::new(w), t)
        }
        "rt_write" | "rt_restart_read" => {
            let (w, t) = rt::setup(env, name == "rt_restart_read");
            (Box::new(w), t)
        }
        "meta_small_steps" => {
            let (w, t) = meta::setup(env);
            (Box::new(w), t)
        }
        other => unreachable!("args::parse admits only WORKLOADS, got {other}"),
    }
}

/// Repeat until `seconds` have passed, and at least `min` times, taking
/// the `kinds` (traced or not) in turn so that all of them see the same
/// state of the machine. With a `reference`, its kernel runs between the
/// repetitions and each records the mean of the two runs around it.
fn repeat<const N: usize>(
    w: &dyn Workload,
    env: &Env,
    kinds: [bool; N],
    reference: Option<&Reference>,
    seconds: f64,
    min: usize,
) -> [Vec<Rep>; N] {
    let start = Instant::now();
    let mut reps = kinds.map(|_| Vec::new());
    let mut before = reference.map(Reference::run);
    while reps[N - 1].len() < min || start.elapsed().as_secs_f64() < seconds {
        for (of_kind, traced) in reps.iter_mut().zip(kinds) {
            let mut rep = w.rep(env, traced);
            if let (Some(reference), Some(b)) = (reference, before) {
                let after = reference.run();
                rep.ref_s = (b + after) / 2.0;
                before = Some(after);
            }
            of_kind.push(rep);
        }
        if env.smoke {
            break;
        }
    }
    reps
}

/// Everything one run of one workload produced.
struct Outcome {
    metrics: Vec<Metric>,
    /// Workload-specific phase metrics (untraced runs only).
    extras: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    /// Spans of the last traced repetition.
    spans: Vec<trace::Span>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn setups_per_run(env: &Env, args: &Args) -> usize {
    if env.smoke || args.trace {
        1
    } else {
        SETUPS
    }
}

fn run_workload(name: &str, env: &Env, args: &Args) -> Outcome {
    host::set_heap(Heap::Cold);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..setups_per_run(env, args) {
        // One set of inputs in memory at a time.
        drop(built.take());
        let (w, t) = set_up(name, env);
        setups.push(t);
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up");
    w.prepare_checks(env);
    let [cold] = repeat(&*w, env, [false], None, 0.0, COLD_REPS);
    if !env.smoke {
        host::set_heap(Heap::Warm);
        repeat(&*w, env, [false], None, 0.0, WARMUPS);
    }
    // Not before the cold repetitions: its buffers are not the workload's
    // memory.
    let reference = Reference::new();

    let mut out = if args.trace {
        let [untraced, traced] = repeat(
            &*w,
            env,
            [false, true],
            Some(&reference),
            args.seconds * TRACE_SHARE,
            3,
        );
        let micro = micro::run(env, &w.micro_input(env));
        let mut problems = report::drift(&untraced, &traced, !env.smoke);
        problems.extend(w.run_checks(&traced));
        let (attempted, failed) = report::ops(&traced);
        problems.extend(traced.iter().flat_map(|r| r.problems.iter().cloned()));
        Outcome {
            metrics: report::per_layer(env, &setups, &untraced, &traced, &micro),
            extras: Vec::new(),
            attempted,
            failed,
            problems,
            notes: micro.notes,
            spans: traced.into_iter().last().map_or(Vec::new(), |r| r.spans),
        }
    } else {
        let [reps] = repeat(&*w, env, [false], Some(&reference), args.seconds, MIN_REPS);
        let mut problems = w.run_checks(&reps);
        let (attempted, failed) = report::ops(&reps);
        problems.extend(reps.iter().flat_map(|r| r.problems.iter().cloned()));
        Outcome {
            metrics: report::end_to_end(&setups, &cold, &reps),
            extras: report::phase_metrics(&reps),
            attempted,
            failed,
            problems,
            notes: Vec::new(),
            spans: Vec::new(),
        }
    };
    out.notes.extend(w.notes());
    // A required metric that could not be measured is a failed run, not a
    // number to make up.
    for m in out.metrics.iter().filter(|m| !m.value.is_finite()) {
        out.problems
            .push(format!("{} could not be measured", m.name));
    }
    out.problems.dedup();
    out
}

fn print_outcome(name: &str, out: &Outcome) {
    println!("# workload {name}");
    for m in out.metrics.iter().chain(&out.extras) {
        println!("{}", m.line());
    }
    for note in &out.notes {
        println!("# note: {note}");
    }
    for p in out.problems.iter().take(20) {
        println!("# FAILED: {p}");
    }
    println!(
        "# checks: {} attempted, {} failed, {}",
        out.attempted,
        out.failed,
        if out.correct() {
            "all green"
        } else {
            "NOT CORRECT"
        }
    );
}

fn config_json(env: &Env, args: &Args) -> Json {
    Json::obj([
        ("ranks", Json::Int(env.ranks as u64)),
        ("nproc", Json::Int(env.nproc as u64)),
        ("machine", Json::str(env.machine.name.clone())),
        ("scale", Json::str(if env.smoke { "smoke" } else { "1/8" })),
        ("seed", Json::Int(env.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        (
            "setups_per_run",
            Json::Int(if env.smoke { 1 } else { SETUPS } as u64),
        ),
        (
            "cold_reps",
            Json::Int(if env.smoke { 1 } else { COLD_REPS } as u64),
        ),
        (
            "warmups",
            Json::Int(if env.smoke { 0 } else { WARMUPS } as u64),
        ),
    ])
}

fn outcome_json(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        (
            "metrics",
            Json::obj(
                out.metrics
                    .iter()
                    .chain(&out.extras)
                    .map(|m| (m.name, m.json())),
            ),
        ),
        (
            "problems",
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
        (
            "notes",
            Json::Arr(out.notes.iter().map(Json::str).collect()),
        ),
    ])
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.encode() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// `--repeat-check`: two runs of every workload, same seed, back to back;
/// each end-to-end metric's two medians must agree within its own bound.
fn repeat_check(env: &Env, args: &Args) -> bool {
    let mut ok = true;
    for name in args.workload.names() {
        let a = run_workload(name, env, args);
        let b = run_workload(name, env, args);
        ok &= a.correct() && b.correct();
        for ((ma, mb), &(_, _, better, bound)) in a.metrics.iter().zip(&b.metrics).zip(&END_TO_END)
        {
            let worse = match better {
                Better::Lower => (mb.value - ma.value) / ma.value,
                Better::Higher => (ma.value - mb.value) / ma.value,
            };
            // Either run may play the parent: the difference must stay
            // within the bound in both directions.
            let within = worse.abs() <= bound;
            ok &= within;
            println!(
                "repeat-check {name} {} first={} second={} diff={:+.4} bound={bound} {}",
                ma.name,
                ma.value,
                mb.value,
                worse,
                if within { "ok" } else { "FAILED" }
            );
        }
    }
    println!("repeat-check {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// Run what `args` ask for; `Ok(true)` when every check was green.
fn run(args: &Args) -> Result<bool, String> {
    let out_dir = args.out.clone().unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        target.join("bench_e2e")
    });
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let env = Env::new(args.smoke, args.seed);
    println!(
        "# bench_e2e ranks={} nproc={} machine={} scale={} seed={} seconds={} trace={}",
        env.ranks,
        env.nproc,
        env.machine.name,
        if env.smoke { "smoke" } else { "1/8" },
        env.seed,
        args.seconds,
        u8::from(args.trace)
    );

    if args.repeat_check {
        return Ok(repeat_check(&env, args));
    }
    let mut all_correct = true;
    let mut filed = Vec::new();
    // `--smoke` covers both kinds of run.
    let modes: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.trace]
    };
    for &trace in modes {
        let args = Args {
            trace,
            ..args.clone()
        };
        for (pid, name) in args.workload.names().into_iter().enumerate() {
            let out = run_workload(name, &env, &args);
            print_outcome(name, &out);
            all_correct &= out.correct();
            if trace {
                let doc = trace::chrome_trace(name, pid as u64, &out.spans);
                write_file(&out_dir.join(format!("{name}.trace.json")), &doc)?;
            }
            // The driver reads the last line of standard output; the
            // files below are written without printing.
            println!(
                "{}",
                report::contract_line(out.correct(), out.attempted, out.failed, &out.metrics)
            );
            filed.push((name, outcome_json(&out)));
        }
    }
    let doc = Json::obj([
        ("config", config_json(&env, args)),
        ("workloads", Json::obj(filed)),
    ]);
    write_file(&out_dir.join("BENCH_e2e.json"), &doc)?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_e2e: a check failed (see the FAILED lines above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::Selection;

    /// All five workloads, untraced and traced, at the generators' floor
    /// on the `test-tiny` machine, with full output verification.
    #[test]
    fn smoke_runs_every_workload_green() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("smoke-test-{}", std::process::id()));
        let args = Args {
            workload: Selection::All,
            seed: 7,
            seconds: 1.0,
            trace: false,
            out: Some(out.clone()),
            smoke: true,
            repeat_check: false,
        };
        let green = run(&args).expect("smoke run completes");
        let filed = std::fs::read_to_string(out.join("BENCH_e2e.json")).expect("result file");
        let traces: Vec<bool> = WORKLOADS
            .iter()
            .map(|w| out.join(format!("{w}.trace.json")).exists())
            .collect();
        let _ = std::fs::remove_dir_all(&out);
        assert!(green, "a smoke check failed");
        assert!(traces.iter().all(|&t| t), "a Chrome trace per workload");
        let doc = serde_json::parse(&filed).expect("BENCH_e2e.json parses");
        assert!(doc.as_obj().is_some());
    }
}
