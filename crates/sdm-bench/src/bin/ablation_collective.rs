//! Ablation A4: two-phase collective I/O vs independent data-sieving vs
//! naive per-segment I/O on the FUN3D interleaved node-write pattern —
//! the MPI-IO optimization stack the paper's Section 2 credits.

use std::sync::Arc;

use sdm_bench::{print_header, HarnessArgs};
use sdm_mpi::datatype::Datatype;
use sdm_mpi::io::{Hints, MpiFile};
use sdm_mpi::World;
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

fn main() {
    let args = HarnessArgs::from_env();
    let cfg = MachineConfig::origin2000();
    let procs = args.procs.unwrap_or(16);
    let elems_per_rank = ((args.fun3d_nodes() / procs).max(256)) & !1;
    print_header(
        "Ablation A4: collective vs sieved vs naive noncontiguous writes",
        &cfg,
        &format!("procs={procs} elems/rank={elems_per_rank}"),
    );

    let run = |mode: &'static str| -> f64 {
        let pfs = Pfs::new(cfg.clone());
        let times = World::run(procs, cfg.clone(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "a4.dat", true).unwrap();
                // Interleaved blocks: rank r owns elements [8r, 8r+8) of
                // every record. Useful-byte density within a rank's span
                // is 8/(8·procs); the covering window density once
                // neighbouring blocks interleave is what sieving sees,
                // and blocks of 8 keep it above the sieve threshold
                // while per-element writes stay tiny for the naive path.
                let t = Datatype::resized(
                    (procs * 64) as u64,
                    Datatype::indexed_block(8, vec![c.rank() as u64 * 8], Datatype::double()),
                );
                f.set_view(c, 0, t.flatten().unwrap()).unwrap();
                let mine = vec![c.rank() as f64; elems_per_rank];
                c.barrier();
                let t0 = c.now();
                match mode {
                    "collective" => f.write_all(c, 0, &mine).unwrap(),
                    "sieved" => {
                        // ROMIO always data-sieves independent
                        // noncontiguous writes; our density threshold is
                        // a refinement knob, so pin it open here.
                        f.set_hints(Hints {
                            sieve_min_density: 0.0,
                            ..Default::default()
                        });
                        f.write_view(c, 0, &mine).unwrap();
                        c.barrier();
                    }
                    _ => {
                        // Naive: force per-segment writes by disabling sieving.
                        f.set_hints(Hints {
                            sieve_min_density: 2.0,
                            ..Default::default()
                        });
                        f.write_view(c, 0, &mine).unwrap();
                        c.barrier();
                    }
                }
                let dt = c.now() - t0;
                f.close(c);
                dt
            }
        });
        times.into_iter().fold(0.0f64, f64::max)
    };

    let coll = run("collective");
    let sieve = run("sieved");
    let naive = run("naive");
    let mb = (procs * elems_per_rank * 8) as f64 / 1e6;
    println!();
    println!("{:<14} {:>10} {:>12}", "mode", "time (s)", "MB/s");
    for (m, t) in [("collective", coll), ("sieved", sieve), ("naive", naive)] {
        println!("{m:<14} {t:>10.4} {:>12.1}", mb / t);
    }
    assert!(
        coll < sieve,
        "two-phase must beat independent sieving on interleaved data"
    );
    assert!(sieve < naive, "sieving must beat per-segment I/O");
    println!(
        "\nPASS: collective < sieved < naive ({:.1}x total spread)",
        naive / coll
    );
}
