//! Ablation A2: "Clearly, there is an optimal buffer size that shows the
//! best I/O performance" (Figure 7 discussion). Sweep the per-process
//! data volume by varying the process count on a fixed dataset, plus the
//! collective-buffering stage size, and report write bandwidth.

use std::sync::Arc;

use sdm_apps::rt::run_sdm;
use sdm_apps::{PhaseReport, RtWorkload};
use sdm_bench::{fresh_world, print_header, HarnessArgs};
use sdm_core::OrgLevel;
use sdm_mpi::World;
use sdm_sim::MachineConfig;

fn main() {
    let args = HarnessArgs::from_env();
    let cfg = MachineConfig::origin2000();
    print_header(
        "Ablation A2: per-process buffer size vs write bandwidth",
        &cfg,
        "",
    );
    println!("{:<8} {:>14} {:>12}", "procs", "MB/proc/step", "write MB/s");

    let mut bws = Vec::new();
    for procs in [4usize, 8, 16, 32, 64, 128] {
        let w = RtWorkload::new(args.rt_nodes(), procs, args.seed);
        let per_proc = w.step_bytes() as f64 / procs as f64 / 1e6;
        let (pfs, store) = fresh_world(&cfg);
        let rep = PhaseReport::reduce_max(&World::run(procs, cfg.clone(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| run_sdm(c, &pfs, &store, &w, OrgLevel::Level2).unwrap()
        }));
        let bw = rep.bandwidth_mbs("write");
        println!("{procs:<8} {per_proc:>14.3} {bw:>12.1}");
        bws.push(bw);
    }
    println!();
    let best = bws.iter().cloned().fold(0.0f64, f64::max);
    let last = *bws.last().unwrap();
    assert!(
        last < best,
        "bandwidth must degrade once per-process buffers get small (best {best:.1}, 128p {last:.1})"
    );
    println!("PASS: bandwidth peaks at {best:.1} MB/s and degrades as per-process buffers shrink");
}
