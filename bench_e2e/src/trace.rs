//! Spans recorded from the benchmark's own files, around the calls into
//! each layer.
//!
//! Every simulated rank is one thread, so the recorder is thread-local: a
//! rank installs it at the top of its closure, the drivers and
//! [`crate::timed_store::TimedStore`] open and close spans against it, and
//! the rank takes the spans out when it is done. With no recorder installed
//! (every untraced run) `begin` and `end` do nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use sdm_mpi::Comm;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    /// Position in the rank's span list.
    pub id: u32,
    /// The span that was open on this rank when this one began.
    pub parent: Option<u32>,
    /// Host nanoseconds since the repetition's epoch.
    pub host_ns: (u64, u64),
    /// Simulated seconds at entry and exit, where the caller has a clock
    /// (the metadata store has none: it costs host time only).
    pub sim: Option<(f64, f64)>,
}

impl Span {
    pub fn host_s(&self) -> f64 {
        (self.host_ns.1 - self.host_ns.0) as f64 / 1e9
    }

    pub fn sim_s(&self) -> f64 {
        self.sim.map_or(0.0, |(a, b)| b - a)
    }
}

struct Recorder {
    rank: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// An open span; hand it back to [`end`].
#[must_use]
pub struct Token(Option<u32>);

/// Start recording on this thread. `epoch` is shared by all ranks of a
/// repetition so their host times line up.
pub fn install(rank: usize, epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank: rank as u32,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording on this thread and return what was recorded.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or(Vec::new(), |rec| rec.spans))
}

pub fn begin(name: &'static str, sim_now: Option<f64>) -> Token {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Token(None);
        };
        let id = rec.spans.len() as u32;
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            rank: rec.rank,
            id,
            parent: rec.open.last().copied(),
            host_ns: (now, now),
            sim: sim_now.map(|t| (t, t)),
        });
        rec.open.push(id);
        Token(Some(id))
    })
}

pub fn end(token: Token, sim_now: Option<f64>) {
    let Some(id) = token.0 else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        let now = rec.epoch.elapsed().as_nanos() as u64;
        // Spans close innermost first; one left open by an early return
        // closes with its parent.
        while let Some(open) = rec.open.pop() {
            let s = &mut rec.spans[open as usize];
            s.host_ns.1 = now;
            if let (Some(sim), Some(t)) = (s.sim.as_mut(), sim_now) {
                sim.1 = t;
            }
            if open == id {
                break;
            }
        }
    });
}

/// A span around a call that may advance the rank's simulated clock.
pub fn span<T>(name: &'static str, comm: &mut Comm, f: impl FnOnce(&mut Comm) -> T) -> T {
    let token = begin(name, Some(comm.now()));
    let out = f(comm);
    end(token, Some(comm.now()));
    out
}

/// A span around a call that has no simulated clock.
pub fn host_only<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let token = begin(name, None);
    let out = f();
    end(token, None);
    out
}

/// Per-rank totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub calls: u64,
    pub host_s: f64,
    /// Host time not covered by child spans.
    pub self_host_s: f64,
    pub sim_s: f64,
}

/// Totals by span name and rank. Self time is the span minus its direct
/// children; the children of one span on one thread never overlap.
pub fn totals(spans: &[Span], ranks: usize) -> BTreeMap<&'static str, Vec<Total>> {
    let mut children: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry((s.rank, p)).or_default() += s.host_s();
        }
    }
    let mut out: BTreeMap<&'static str, Vec<Total>> = BTreeMap::new();
    for s in spans {
        let t = &mut out
            .entry(s.name)
            .or_insert_with(|| vec![Total::default(); ranks])[s.rank as usize];
        t.calls += 1;
        t.host_s += s.host_s();
        t.self_host_s += s.host_s() - children.get(&(s.rank, s.id)).copied().unwrap_or(0.0);
        t.sim_s += s.sim_s();
    }
    out
}

/// Chrome-trace ("Trace Event Format") document: one complete event per
/// span, `pid` = workload, `tid` = rank, host microseconds on the time
/// axis, simulated times and the parent in `args`.
pub fn chrome_trace(workload: &str, pid: u64, spans: &[Span]) -> Json {
    let mut events = vec![Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Int(pid)),
        ("args", Json::obj([("name", Json::str(workload))])),
    ])];
    for s in spans {
        let mut args = vec![("id".to_string(), Json::Int(u64::from(s.id)))];
        if let Some(p) = s.parent {
            args.push(("parent".into(), Json::Int(u64::from(p))));
        }
        if let Some((a, b)) = s.sim {
            args.push(("sim_start_s".into(), Json::Num(a)));
            args.push(("sim_end_s".into(), Json::Num(b)));
        }
        events.push(Json::obj([
            ("name", Json::str(s.name)),
            ("ph", Json::str("X")),
            ("pid", Json::Int(pid)),
            ("tid", Json::Int(u64::from(s.rank))),
            ("ts", Json::Num(s.host_ns.0 as f64 / 1e3)),
            ("dur", Json::Num((s.host_ns.1 - s.host_ns.0) as f64 / 1e3)),
            ("args", Json::Obj(args)),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, rank: u32, id: u32, parent: Option<u32>, ns: (u64, u64)) -> Span {
        Span {
            name,
            rank,
            id,
            parent,
            host_ns: ns,
            sim: Some((ns.0 as f64, ns.1 as f64)),
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let s = 1_000_000_000;
        let spans = vec![
            span("core.step_commit", 0, 0, None, (0, 10 * s)),
            span("store.record_execution", 0, 1, Some(0), (s, 3 * s)),
            span("store.flush", 0, 2, Some(0), (4 * s, 9 * s)),
            // A grandchild is its parent's business, not the root's.
            span("metadb.inner", 0, 3, Some(2), (5 * s, 6 * s)),
            span("core.step_commit", 1, 0, None, (0, 4 * s)),
        ];
        let t = totals(&spans, 2);
        let commit = &t["core.step_commit"];
        assert_eq!((commit[0].calls, commit[1].calls), (1, 1));
        assert_eq!(commit[0].host_s, 10.0);
        assert_eq!(commit[0].self_host_s, 3.0);
        assert_eq!(commit[1].self_host_s, 4.0);
        assert_eq!(t["store.flush"][0].self_host_s, 4.0);
        assert_eq!(t["store.flush"][1], Total::default());
        assert_eq!(commit[0].sim_s, 10.0 * s as f64);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_absent() {
        // No recorder: nothing happens, nothing is kept.
        end(begin("core.init", Some(0.0)), Some(1.0));
        assert!(take().is_empty());

        install(3, Instant::now());
        let outer = begin("core.read", Some(1.0));
        host_only("store.lookup_execution", || ());
        end(outer, Some(2.5));
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].rank, spans[0].parent, spans[0].sim),
            (3, None, Some((1.0, 2.5)))
        );
        assert_eq!((spans[1].parent, spans[1].sim), (Some(0), None));
        assert!(spans[0].host_ns.1 >= spans[1].host_ns.1);
        assert!(take().is_empty(), "take() uninstalls");
    }

    #[test]
    fn a_span_left_open_closes_with_its_parent() {
        install(0, Instant::now());
        let outer = begin("core.step_commit", None);
        let _leaked = begin("store.flush", None);
        end(outer, None);
        let after = begin("core.finalize", None);
        end(after, None);
        let spans = take();
        assert_eq!(spans[2].parent, None, "the stack was unwound");
        assert!(spans[1].host_ns.1 >= spans[1].host_ns.0);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let doc = chrome_trace(
            "rt_write",
            2,
            &[span("core.init", 1, 0, None, (1_000, 3_000))],
        );
        let text = doc.encode();
        assert!(
            text.contains(r#""ph":"X","pid":2,"tid":1,"ts":1.0,"dur":2.0"#),
            "{text}"
        );
        assert!(text.contains(r#""sim_start_s":1000.0"#), "{text}");
    }
}
