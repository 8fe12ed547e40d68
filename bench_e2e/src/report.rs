//! From repetitions to named metrics: the end-to-end table, the per-layer
//! table, the exactness audit, and the text and JSON forms of both.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::micro::MicroResult;
use crate::stats::{self, Summary};
use crate::trace::{self, Total};
use crate::workload::{Env, Rep, SetupTimes};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which a later change may worsen it. BENCHMARK.json
/// repeats this table (a test holds the two together).
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("setup_s", "s", Lower, 0.25),
    ("sim_makespan_s", "s", Lower, 0.05),
    ("sim_io_mbps", "MB/s", Higher, 0.05),
    // Host times as multiples of the reference kernel's (`reference.rs`).
    // Even so they wander by 5-20 % between runs on a shared two-core
    // sandbox (README, "Steadiness"); a tighter bound would reject the same
    // code measured twice.
    ("host_run_rel", "kernels", Lower, 0.25),
    ("host_cpu_rel", "kernels", Lower, 0.25),
    ("host_peak_rss_mb", "MB", Lower, 0.15),
    ("stored_bytes_per_payload_byte", "ratio", Lower, 0.01),
];

/// The per-layer metrics of the traced run, in printing order.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("core.index_distribution.host_s", "s", Lower),
    ("core.index_distribution.sim_s", "s", Lower),
    ("core.import.host_s", "s", Lower),
    ("core.import.sim_s", "s", Lower),
    ("core.import.bytes", "B", Lower),
    ("core.history_replay.host_s", "s", Lower),
    ("core.history_replay.sim_s", "s", Lower),
    ("core.history.hits", "count", Higher),
    ("core.history_register.host_s", "s", Lower),
    ("core.history_register.sim_s", "s", Lower),
    ("core.set_view.host_s", "s", Lower),
    ("core.set_view.sim_s", "s", Lower),
    ("core.set_view.calls", "count", Lower),
    ("core.step_write.host_s", "s", Lower),
    ("core.step_commit.host_s", "s", Lower),
    ("core.step_commit.sim_s", "s", Lower),
    ("core.step_commit.calls", "count", Lower),
    ("core.read.host_s", "s", Lower),
    ("core.read.sim_s", "s", Lower),
    ("core.read.calls", "count", Lower),
    ("core.init.host_s", "s", Lower),
    ("core.init.sim_s", "s", Lower),
    ("core.finalize.host_s", "s", Lower),
    ("core.finalize.sim_s", "s", Lower),
    ("core.self.host_s", "s", Lower),
    ("core.metadata_syncs", "count", Lower),
    ("core.writes", "count", Lower),
    ("core.reads", "count", Lower),
    ("core.micro.view_compile_melems_per_s", "Melem/s", Higher),
    ("core.micro.to_file_order_mbps", "MB/s", Higher),
    ("core.micro.to_user_order_mbps", "MB/s", Higher),
    ("store.calls", "count", Lower),
    ("store.host_s", "s", Lower),
    ("store.record_execution.calls", "count", Lower),
    ("store.record_execution.host_s", "s", Lower),
    ("store.lookup_execution.calls", "count", Lower),
    ("store.lookup_execution.host_s", "s", Lower),
    ("store.history_lookup.calls", "count", Lower),
    ("store.history_lookup.host_s", "s", Lower),
    ("store.flush.calls", "count", Lower),
    ("store.flush.host_s", "s", Lower),
    ("metadb.transactions", "count", Lower),
    ("metadb.wal_appends", "count", Lower),
    ("metadb.wal_fsyncs", "count", Lower),
    ("metadb.group_commit_batched", "count", Higher),
    ("metadb.rows_scanned", "count", Lower),
    ("metadb.rows_returned", "count", Lower),
    ("metadb.rows_scanned_per_returned", "ratio", Lower),
    ("metadb.full_scans", "count", Lower),
    ("metadb.parse_misses", "count", Lower),
    ("metadb.ast_eval_fallbacks", "count", Lower),
    ("metadb.wal_bytes_per_step", "B", Lower),
    ("mpi.sends", "count", Lower),
    ("mpi.send_bytes", "B", Lower),
    ("mpi.barriers", "count", Lower),
    ("mpi.alltoalls", "count", Lower),
    ("mpi.allgathers", "count", Lower),
    ("mpi.bcasts", "count", Lower),
    ("mpi.exchange_bytes_per_payload_byte", "ratio", Lower),
    ("mpi.write_alls", "count", Lower),
    ("mpi.read_alls", "count", Lower),
    ("mpi.twophase_rmw", "count", Lower),
    ("mpi.sieve_reads", "count", Lower),
    ("mpi.sieve_writes", "count", Lower),
    ("mpiio.micro.write_all_irregular_host_mbps", "MB/s", Higher),
    ("mpiio.micro.write_all_irregular_sim_mbps", "MB/s", Higher),
    ("mpiio.micro.write_all_contig_host_mbps", "MB/s", Higher),
    ("mpiio.micro.write_all_contig_sim_mbps", "MB/s", Higher),
    ("mpiio.micro.read_all_irregular_host_mbps", "MB/s", Higher),
    ("mpiio.micro.read_all_irregular_sim_mbps", "MB/s", Higher),
    (
        "mpiio.micro.sieved_read_irregular_host_mbps",
        "MB/s",
        Higher,
    ),
    ("mpiio.micro.sieved_read_irregular_sim_mbps", "MB/s", Higher),
    ("ranks.commit_skew_share", "share", Lower),
    ("ranks.sim_skew_share", "share", Lower),
    ("pfs.write_ops", "count", Lower),
    ("pfs.write_bytes", "B", Lower),
    ("pfs.read_ops", "count", Lower),
    ("pfs.read_bytes", "B", Lower),
    ("pfs.opens", "count", Lower),
    ("pfs.closes", "count", Lower),
    ("pfs.views", "count", Lower),
    ("pfs.metadata_ops", "count", Lower),
    ("pfs.files", "count", Lower),
    ("pfs.mean_request_bytes", "B", Higher),
    ("pfs.bytes_written_per_payload_byte", "ratio", Lower),
    ("pfs.bytes_read_per_payload_byte", "ratio", Lower),
    ("pfs.micro.write_host_mbps", "MB/s", Higher),
    ("pfs.micro.write_sim_mbps", "MB/s", Higher),
    ("pfs.micro.read_host_mbps", "MB/s", Higher),
    ("pfs.micro.read_sim_mbps", "MB/s", Higher),
    ("pfs.micro.small_write_host_ops_per_s", "1/s", Higher),
    ("apps.compute.host_s", "s", Lower),
    ("apps.compute.sim_s", "s", Lower),
    ("setup.mesh_s", "s", Lower),
    ("setup.partition_s", "s", Lower),
    ("setup.stage_s", "s", Lower),
    ("trace.host_run_s", "s", Lower),
    ("trace.overhead_share", "share", Lower),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The median of the repetitions; for the two host times the mean of
    /// their faster half without its fastest fifth (see `end_to_end`).
    pub value: f64,
    /// The repetitions (one value for a metric measured once per run).
    pub summary: Summary,
    /// For counts: whether every repetition gave the same value.
    pub exact: Option<bool>,
}

fn metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let summary = Summary::of(samples).expect("a run has at least one set-up and repetition");
    let exact = samples.windows(2).all(|w| w[0] == w[1]);
    Metric {
        name,
        unit,
        value: summary.median,
        summary,
        // Counts and ratios of counts are audited; timings never repeat.
        exact: matches!(unit, "count" | "B" | "ratio").then_some(exact),
    }
}

impl Metric {
    /// `name value unit`, with the spread beside it unless exact.
    pub fn line(&self) -> String {
        let s = &self.summary;
        let head = format!("{} {} {}", self.name, self.value, self.unit);
        match self.exact {
            Some(true) => head,
            _ if s.n <= 1 => head,
            Some(false) => format!("{head} min={} max={} n={} exact=false", s.min, s.max, s.n),
            None => format!(
                "{head} median={} q1={} q3={} min={} max={} n={} spread={:.4}",
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n,
                s.spread()
            ),
        }
    }

    pub fn json(&self) -> Json {
        let s = &self.summary;
        let mut pairs = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::str(self.unit)),
            ("median".to_string(), Json::Num(s.median)),
            ("q1".to_string(), Json::Num(s.q1)),
            ("q3".to_string(), Json::Num(s.q3)),
            ("min".to_string(), Json::Num(s.min)),
            ("max".to_string(), Json::Num(s.max)),
            ("n".to_string(), Json::Int(s.n as u64)),
        ];
        if let Some(exact) = self.exact {
            pairs.push(("exact".to_string(), Json::Bool(exact)));
        }
        Json::Obj(pairs)
    }
}

fn mbps(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

fn column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The end-to-end metrics of one untraced run: set-up time from the
/// set-ups, peak memory from the `cold` repetitions (allocator defaults),
/// everything else from the timed `reps` (warm heap).
pub fn end_to_end(setups: &[SetupTimes], cold: &[Rep], reps: &[Rep]) -> Vec<Metric> {
    let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| {
            let samples = match name {
                "setup_s" => setup.clone(),
                "sim_makespan_s" => column(reps, |r| r.sim_makespan_s),
                "sim_io_mbps" => column(reps, |r| mbps(r.payload_bytes(), r.sim_io_s())),
                "host_run_rel" => column(reps, |r| r.host_run_s / r.ref_s),
                "host_cpu_rel" => column(reps, |r| r.host_cpu_s / r.ref_s),
                "host_peak_rss_mb" => column(cold, |r| r.host_peak_rss_mb),
                "stored_bytes_per_payload_byte" => {
                    // Against what was written; for a pure reader, against
                    // what it read of the writer's files.
                    let payload = |r: &Rep| match r.phases.get_bytes("write") {
                        0 => r.phases.get_bytes("read"),
                        written => written,
                    };
                    column(reps, |r| r.stored_bytes as f64 / payload(r) as f64)
                }
                other => unreachable!("no rule for end-to-end metric {other}"),
            };
            let mut m = metric(name, unit, &samples);
            // What the reference kernel does not cancel comes in bursts that
            // only ever add time and can cover a third of a run, while now
            // and then a repetition is 20 % faster than all others. The
            // mean of the repetitions between the 20th and the 50th
            // percentile ignores both, and moves with the code as much as
            // the median does.
            if matches!(name, "host_run_rel" | "host_cpu_rel") {
                m.value = stats::band_mean(&samples, 0.2, 0.5);
            }
            m
        })
        .collect()
}

/// What only some workloads have a phase for; printed and filed beside
/// the end-to-end table, left out where there is no such phase.
pub fn phase_metrics(reps: &[Rep]) -> Vec<Metric> {
    let has = |f: &dyn Fn(&Rep) -> bool| reps.first().is_some_and(f);
    let mut out = Vec::new();
    if has(&|r| r.phases.get("import") > 0.0) {
        out.push(metric(
            "sim_startup_s",
            "s",
            &column(reps, Rep::sim_startup_s),
        ));
    }
    for (name, phase) in [("sim_write_mbps", "write"), ("sim_read_mbps", "read")] {
        if has(&|r| r.phases.get_bytes(phase) > 0) {
            let f = |r: &Rep| mbps(r.phases.get_bytes(phase), r.phases.get(phase));
            out.push(metric(name, "MB/s", &column(reps, f)));
        }
    }
    // The seconds behind `host_run_rel` and `host_cpu_rel`.
    out.push(metric("host_run_s", "s", &column(reps, |r| r.host_run_s)));
    out.push(metric("host_cpu_s", "s", &column(reps, |r| r.host_cpu_s)));
    out.push(metric("host_ref_s", "s", &column(reps, |r| r.ref_s)));
    let (attempted, failed) = ops(reps);
    out.push(metric(
        "failed_ops_share",
        "share",
        &[failed as f64 / attempted.max(1) as f64],
    ));
    out
}

/// Operations attempted and failed over all repetitions.
pub fn ops(reps: &[Rep]) -> (u64, u64) {
    reps.iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

/// The per-layer values of one traced repetition that need arithmetic:
/// everything from spans, and the ratios of counters. (Plain counters are
/// read from the repetition by name; micro sections and set-up parts are
/// per run.)
fn layer_values(env: &Env, rep: &Rep) -> BTreeMap<String, f64> {
    let totals = trace::totals(&rep.spans, env.ranks);
    // Per rank, the sum of `f` over the spans whose name starts with one of
    // `prefixes`.
    let per_rank = |prefixes: &[&str], f: &dyn Fn(&Total) -> f64| -> Vec<f64> {
        (0..env.ranks)
            .map(|r| {
                totals
                    .iter()
                    .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
                    .map(|(_, t)| f(&t[r]))
                    .sum()
            })
            .collect()
    };
    // The slowest rank sets a collective's time, so times are the maximum
    // over ranks; calls are summed over ranks.
    let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    let host = |prefixes: &[&str]| max(per_rank(prefixes, &|t| t.host_s));
    let sim = |prefixes: &[&str]| max(per_rank(prefixes, &|t| t.sim_s));
    // (`+ 0.0`: an empty f64 sum is -0.0.)
    let calls =
        |prefixes: &[&str]| per_rank(prefixes, &|t| t.calls as f64).iter().sum::<f64>() + 0.0;
    let skew = |v: Vec<f64>| {
        let top = max(v.clone());
        if top > 0.0 {
            (top - v.iter().sum::<f64>() / v.len() as f64) / top
        } else {
            0.0
        }
    };
    let count = |name: &str| rep.count(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    // `<metric>.host_s`, `.sim_s` and `.calls` of the spans behind it; the
    // table keeps the ones worth reporting.
    for (metric, spans) in [
        ("core.index_distribution", &["core.index_distribution"][..]),
        ("core.import", &["core.import"]),
        ("core.history_replay", &["core.history_replay"]),
        ("core.history_register", &["core.history_register"]),
        ("core.set_view", &["core.set_view"]),
        ("core.step_write", &["core.step_write"]),
        ("core.step_commit", &["core.step_commit"]),
        ("core.read", &["core.read"]),
        ("core.init", &["core.init"]),
        ("core.finalize", &["core.finalize"]),
        ("apps.compute", &["apps.compute"]),
        ("store.record_execution", &["store.record_execution"]),
        ("store.lookup_execution", &["store.lookup_execution"]),
        (
            "store.history_lookup",
            &["store.lookup_index_registry", "store.lookup_history_block"],
        ),
        ("store.flush", &["store.flush"]),
    ] {
        put(&format!("{metric}.host_s"), host(spans));
        put(&format!("{metric}.sim_s"), sim(spans));
        put(&format!("{metric}.calls"), calls(spans));
    }
    put("store.calls", calls(&["store."]));
    put("store.host_s", host(&["store."]));
    put(
        "core.self.host_s",
        max(per_rank(&["core."], &|t| t.self_host_s)),
    );
    put(
        "core.import.bytes",
        rep.notes
            .iter()
            .map(|n| n.import_read_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    put("core.history.hits", count("sdm.history_hits"));
    put("core.metadata_syncs", count("sdm.metadata_syncs"));
    put("core.writes", count("sdm.writes"));
    put("core.reads", count("sdm.reads"));

    put(
        "metadb.rows_scanned_per_returned",
        ratio(count("metadb.rows_scanned"), count("metadb.rows_returned")),
    );
    let steps = totals.get("core.step_commit").map_or(0, |t| t[0].calls);
    put(
        "metadb.wal_bytes_per_step",
        ratio(count("metadb.wal_bytes"), steps as f64),
    );
    let written = rep.phases.get_bytes("write") as f64;
    let read = (rep.phases.get_bytes("read") + rep.phases.get_bytes("import")) as f64;
    put(
        "mpi.exchange_bytes_per_payload_byte",
        ratio(count("mpi.send_bytes"), written + read),
    );
    put(
        "pfs.mean_request_bytes",
        ratio(
            count("pfs.write_bytes") + count("pfs.read_bytes"),
            count("pfs.write_ops") + count("pfs.read_ops"),
        ),
    );
    put(
        "pfs.bytes_written_per_payload_byte",
        ratio(count("pfs.write_bytes"), written),
    );
    put(
        "pfs.bytes_read_per_payload_byte",
        ratio(count("pfs.read_bytes"), read),
    );

    // Skew inside the workload's collective I/O: commits where it writes,
    // reads where it only reads.
    let io = if totals.contains_key("core.step_commit") {
        "core.step_commit"
    } else {
        "core.read"
    };
    put(
        "ranks.commit_skew_share",
        skew(per_rank(&[io], &|t| t.host_s)),
    );
    put("ranks.sim_skew_share", skew(per_rank(&[io], &|t| t.sim_s)));
    m
}

/// The per-layer metrics of one traced run.
pub fn per_layer(
    env: &Env,
    setups: &[SetupTimes],
    untraced: &[Rep],
    traced: &[Rep],
    micro: &MicroResult,
) -> Vec<Metric> {
    let computed: Vec<BTreeMap<String, f64>> =
        traced.iter().map(|r| layer_values(env, r)).collect();
    let median_host =
        |reps: &[Rep]| Summary::of(&column(reps, |r| r.host_run_s)).map_or(f64::NAN, |s| s.median);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let samples: Vec<f64> = match name {
                "setup.mesh_s" => setups.iter().map(|s| s.mesh_s).collect(),
                "setup.partition_s" => setups.iter().map(|s| s.partition_s).collect(),
                "setup.stage_s" => setups.iter().map(|s| s.stage_s).collect(),
                // The denominator of every layer's share of a traced run.
                "trace.host_run_s" => column(traced, |r| r.host_run_s),
                "trace.overhead_share" => {
                    vec![median_host(traced) / median_host(untraced) - 1.0]
                }
                _ if micro.metrics.contains_key(name) => vec![micro.metrics[name]],
                _ if computed.first().is_some_and(|m| m.contains_key(name)) => {
                    computed.iter().map(|m| m[name]).collect()
                }
                // What is left is a layer's own counter under its own name
                // (absent where the layer never counted: 0).
                _ => {
                    assert!(
                        ["metadb.", "mpi.", "pfs."]
                            .iter()
                            .any(|p| name.starts_with(p)),
                        "no rule for {name}"
                    );
                    column(traced, |r| r.count(name) as f64)
                }
            };
            metric(name, unit, &samples)
        })
        .collect()
}

/// The traced mirror driver against the untraced original: byte and sync
/// counts exactly, simulated phase times within 5 %.
pub fn drift(untraced: &[Rep], traced: &[Rep], check_sim: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for counter in ["pfs.write_bytes", "pfs.read_bytes", "sdm.metadata_syncs"] {
        let of = |reps: &[Rep]| {
            let v: Vec<u64> = reps.iter().map(|r| r.count(counter)).collect();
            (stats::median_u64(&v), stats::exact(&v))
        };
        let (a, b) = (of(untraced), of(traced));
        if a != b || !a.1 {
            problems.push(format!(
                "drift: {counter} untraced {a:?} vs traced {b:?} (value, repeats exactly)"
            ));
        }
    }
    if check_sim {
        let phases: Vec<String> = untraced
            .first()
            .map(|r| r.phases.phases().map(|(p, _)| p.to_string()).collect())
            .unwrap_or_default();
        for phase in phases {
            let median = |reps: &[Rep]| {
                Summary::of(&column(reps, |r| r.phases.get(&phase))).map_or(f64::NAN, |s| s.median)
            };
            let (a, b) = (median(untraced), median(traced));
            if (a - b).abs() > 0.05 * a.abs() {
                problems.push(format!(
                    "drift: simulated {phase} phase {a} s untraced vs {b} s traced"
                ));
            }
        }
    }
    problems
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;

    #[test]
    fn tables_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used once");
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "set-up has the largest bound"
        );
    }

    /// BENCHMARK.json states the same metrics as the tables here.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse(&text).expect("valid JSON");
        let get = |key: &str| {
            let obj = doc.as_obj().expect("object");
            &obj.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{key} missing"))
                .1
        };
        let field = |entry: &serde::Json, key: &str| -> String {
            let obj = entry.as_obj().expect("object");
            match &obj
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{key} missing"))
                .1
            {
                serde::Json::Str(s) => s.clone(),
                serde::Json::F64(x) => format!("{x}"),
                other => panic!("unexpected {other:?}"),
            }
        };
        let stated: Vec<(String, String, String, String)> = get("end_to_end")
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                (
                    field(e, "name"),
                    field(e, "unit"),
                    field(e, "better"),
                    field(e, "bound"),
                )
            })
            .collect();
        let here: Vec<(String, String, String, String)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.0.into(),
                    m.1.into(),
                    m.2.as_str().into(),
                    format!("{}", m.3),
                )
            })
            .collect();
        assert_eq!(stated, here);
        let stated: Vec<(String, String, String)> = get("per_layer")
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let here: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.as_str().into()))
            .collect();
        assert_eq!(stated, here);
        let workloads: Vec<String> = get("workloads")
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| field(e, "name"))
            .collect();
        assert_eq!(workloads, crate::CONTRACT_WORKLOADS);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let m = metric("setup_s", "s", &[1.25, 1.5, 1.75]);
        let line = contract_line(true, 10, 0, &[m]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn counts_are_audited_and_timings_are_not() {
        let exact = metric("pfs.opens", "count", &[4.0, 4.0, 4.0]);
        assert_eq!(exact.exact, Some(true));
        assert_eq!(exact.line(), "pfs.opens 4 count");
        let loose = metric("metadb.rows_scanned", "count", &[10.0, 30.0, 20.0]);
        assert_eq!(loose.exact, Some(false));
        assert_eq!(
            loose.line(),
            "metadb.rows_scanned 20 count min=10 max=30 n=3 exact=false"
        );
        let timing = metric("host_run_s", "s", &[1.0, 1.0]);
        assert_eq!(timing.exact, None);
        assert!(timing.line().contains("median=1 q1="));
    }
}
