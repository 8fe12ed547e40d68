//! API-contract tests for the SDM surface: call-order errors, size
//! mismatches, metadata registration, multi-group behaviour, builder
//! validation, typed handle resolution, scopes, and `attach`
//! verification.

use std::sync::Arc;

use sdm_core::dataset::ImportDesc;
use sdm_core::schema::{AccessPatternCol, AccessPatternRow, ExecutionCol, ExecutionRow, RunRow};
use sdm_core::{CachedStore, OrgLevel, Sdm, SdmConfig, SdmError, SharedStore};
use sdm_metadb::stmt::Query;
use sdm_metadb::{Database, Value};
use sdm_mpi::World;
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

fn setup() -> (Arc<Pfs>, Arc<Database>, SharedStore) {
    let db = Arc::new(Database::new());
    let store = CachedStore::shared(&db);
    (Pfs::new(MachineConfig::test_tiny()), db, store)
}

#[test]
fn initialize_creates_tables_and_unique_runids() {
    let (pfs, db, store) = setup();
    World::run(2, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let s1 = Sdm::initialize(c, &pfs, &store, "app1").unwrap();
            let s2 = Sdm::initialize(c, &pfs, &store, "app2").unwrap();
            assert_ne!(
                s1.runid(),
                s2.runid(),
                "allocation reserves ids: two initializers never collide"
            );
            (s1.runid(), s2.runid())
        }
    });
    for t in [
        "run_table",
        "access_pattern_table",
        "execution_table",
        "import_table",
        "index_table",
        "index_history_table",
    ] {
        assert!(db.has_table(t), "missing {t}");
    }
}

#[test]
fn group_build_registers_run_and_datasets() {
    let (pfs, db, store) = setup();
    World::run(2, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "meta").unwrap();
            s.group(c)
                .dataset::<f64>("p", 100)
                .dataset::<f64>("q", 100)
                .build()
                .unwrap();
            s.finalize(c).unwrap();
        }
    });
    let rs = db
        .exec_stmt(
            &Query::<RunRow>::all()
                .select(&[sdm_core::schema::RunCol::Application])
                .compile(),
            &[],
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0].as_str(), Some("meta"));
    let rs = db
        .exec_stmt(
            &Query::<AccessPatternRow>::all()
                .select(&[
                    AccessPatternCol::Dataset,
                    AccessPatternCol::StorageOrder,
                    AccessPatternCol::AccessPattern,
                ])
                .order_by(AccessPatternCol::Dataset)
                .compile(),
            &[],
        )
        .unwrap();
    // Figure 4's annotations: every dataset is row-major and irregular.
    let row = |d: &str| vec![Value::from(d), "ROW_MAJOR".into(), "IRREGULAR".into()];
    assert_eq!(rs.rows, vec![row("p"), row("q")]);
}

#[test]
fn write_without_view_is_error() {
    let (pfs, _db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "e1").unwrap();
            let g = s.group(c).dataset::<f64>("p", 10).build().unwrap();
            let hp = g.handle::<f64>("p").unwrap();
            let mut step = s.timestep(c, 0);
            let err = step.write(hp, &[1.0f64]).unwrap_err();
            assert!(matches!(err, SdmError::NoView(_)), "got {err}");
            step.abandon();
        }
    });
}

#[test]
fn read_unwritten_timestep_is_error() {
    let (pfs, _db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "e2").unwrap();
            let g = s.group(c).dataset::<f64>("p", 4).build().unwrap();
            let hp = g.handle::<f64>("p").unwrap();
            s.set_view(c, hp, &[0, 1, 2, 3]).unwrap();
            let mut buf = vec![0.0f64; 4];
            let err = s.read_handle(c, hp, 5, &mut buf).unwrap_err();
            assert!(
                matches!(err, SdmError::NotWritten { timestep: 5, .. }),
                "got {err}"
            );
        }
    });
}

#[test]
fn unknown_dataset_and_bad_sizes_are_errors() {
    let (pfs, _db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "e3").unwrap();
            let g = s.group(c).dataset::<f64>("p", 4).build().unwrap();
            assert!(matches!(g.slot("nope"), Err(SdmError::NoSuchDataset(_))));
            // Wrong element type (4-byte vs DOUBLE): refused when the
            // handle is resolved, before any buffer exists.
            assert!(matches!(
                g.handle::<i32>("p"),
                Err(SdmError::TypeMismatch { .. })
            ));
            let hp = g.handle::<f64>("p").unwrap();
            s.set_view(c, hp, &[0, 1]).unwrap();
            // A buffer longer or shorter than the map.
            for buf in [&[1.0f64][..], &[1.0, 2.0, 3.0]] {
                let mut step = s.timestep(c, 0);
                assert!(matches!(step.write(hp, buf), Err(SdmError::Usage(_))));
                step.abandon();
            }
            // A read buffer that does not match the map.
            let mut step = s.timestep(c, 0);
            step.write(hp, &[1.0, 2.0]).unwrap();
            step.commit().unwrap();
            let mut short = vec![0.0f64; 1];
            assert!(matches!(
                s.read_handle(c, hp, 0, &mut short),
                Err(SdmError::Usage(_))
            ));
            // Map index out of range.
            assert!(matches!(s.set_view(c, hp, &[99]), Err(SdmError::Usage(_))));
            // Empty data group.
            assert!(matches!(s.group(c).build(), Err(SdmError::Usage(_))));
        }
    });
}

#[test]
fn import_type_mismatch_is_error() {
    let (pfs, _db, store) = setup();
    // Stage a tiny file.
    {
        let (f, _) = pfs.open_or_create("m.msh", 0.0).unwrap();
        pfs.write_at(&f, 0, &[0u8; 64], 0.0).unwrap();
    }
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "e4").unwrap();
            let h = s.group(c).dataset::<f64>("p", 4).build().unwrap().group();
            s.make_importlist(c, h, vec![ImportDesc::index("edge1", "m.msh")])
                .unwrap();
            // edge1 is declared INTEGER (4 bytes); importing f64 must fail.
            let err = s.import_contiguous::<f64>(c, h, "edge1", 0, 8).unwrap_err();
            assert!(matches!(err, SdmError::Usage(_)));
            // Unknown import name.
            let err = s.import_contiguous::<i32>(c, h, "edgeX", 0, 8).unwrap_err();
            assert!(matches!(err, SdmError::NoSuchDataset(_)));
        }
    });
}

#[test]
fn two_groups_are_independent() {
    let (pfs, _db, store) = setup();
    World::run(2, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let cfg = SdmConfig {
                org: OrgLevel::Level3,
                ..Default::default()
            };
            let mut s = Sdm::initialize_with(c, &pfs, &store, "two", cfg).unwrap();
            let g1 = s.group(c).dataset::<f64>("a", 8).build().unwrap();
            let g2 = s.group(c).dataset::<f64>("b", 8).build().unwrap();
            let ha = g1.handle::<f64>("a").unwrap();
            let hb = g2.handle::<f64>("b").unwrap();
            let mine: Vec<u64> = (c.rank() as u64..8).step_by(c.size()).collect();
            s.set_view(c, ha, &mine).unwrap();
            s.set_view(c, hb, &mine).unwrap();
            let va: Vec<f64> = mine.iter().map(|&g| g as f64).collect();
            let vb: Vec<f64> = mine.iter().map(|&g| -(g as f64)).collect();
            let mut step = s.timestep(c, 0);
            step.write(ha, &va).unwrap();
            step.write(hb, &vb).unwrap();
            step.commit().unwrap();
            // Level 3: one file per *group*.
            let mut ba = vec![0.0f64; mine.len()];
            s.read_handle(c, ha, 0, &mut ba).unwrap();
            assert_eq!(ba, va);
            let mut bb = vec![0.0f64; mine.len()];
            s.read_handle(c, hb, 0, &mut bb).unwrap();
            assert_eq!(bb, vb);
            // Dataset "a" is not visible through group 2.
            assert!(matches!(
                g2.handle::<f64>("a"),
                Err(SdmError::NoSuchDataset(_))
            ));
            s.finalize(c).unwrap();
        }
    });
    assert!(pfs.exists("two.g0.dat") && pfs.exists("two.g1.dat"));
}

// ---------------------------------------------------------------------
// Typed session API
// ---------------------------------------------------------------------

#[test]
fn builder_registers_attributes_and_resolves_typed_handles() {
    let (pfs, db, store) = setup();
    World::run(2, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "typed").unwrap();
            let g = s
                .group(c)
                .dataset::<f64>("p", 64)
                .dataset::<i32>("flags", 64)
                .build()
                .unwrap();
            assert_eq!(g.len(), 2);
            assert_eq!(g.names().collect::<Vec<_>>(), vec!["p", "flags"]);
            let hp = g.handle::<f64>("p").unwrap();
            let hf = g.handle::<i32>("flags").unwrap();
            // A handle of the wrong element type is rejected at
            // resolution, not at write time.
            assert!(matches!(
                g.handle::<i32>("p"),
                Err(SdmError::TypeMismatch { .. })
            ));
            assert!(matches!(
                g.handle::<f64>("nope"),
                Err(SdmError::NoSuchDataset(_))
            ));
            assert_eq!(hp.slot(), g.slot("p").unwrap());

            let mine: Vec<u64> = (c.rank() as u64..64).step_by(c.size()).collect();
            s.set_view(c, hp, &mine).unwrap();
            s.set_view(c, hf, &mine).unwrap();
            let p: Vec<f64> = mine.iter().map(|&g| g as f64).collect();
            let flags: Vec<i32> = mine.iter().map(|&g| g as i32 % 7).collect();
            let mut step = s.timestep(c, 0);
            step.write(hp, &p).unwrap();
            step.write(hf, &flags).unwrap();
            assert_eq!(step.staged_len(), 2);
            step.commit().unwrap();
            let mut back_p = vec![0.0f64; mine.len()];
            let mut back_f = vec![0i32; mine.len()];
            s.read_handle(c, hp, 0, &mut back_p).unwrap();
            s.read_handle(c, hf, 0, &mut back_f).unwrap();
            assert_eq!(back_p, p);
            assert_eq!(back_f, flags);
            s.finalize(c).unwrap();
        }
    });
    // The builder registered one access-pattern row per dataset.
    let rs = db
        .exec_stmt(
            &Query::<AccessPatternRow>::all()
                .select(&[AccessPatternCol::Dataset, AccessPatternCol::DataType])
                .order_by(AccessPatternCol::Dataset)
                .compile(),
            &[],
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][0].as_str(), Some("flags"));
    assert_eq!(rs.rows[0][1].as_str(), Some("INTEGER"));
    assert_eq!(rs.rows[1][1].as_str(), Some("DOUBLE"));
}

#[test]
fn builder_rejects_empty_and_duplicate_groups() {
    let (pfs, _db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "bad").unwrap();
            assert!(matches!(s.group(c).build(), Err(SdmError::Usage(_))));
            assert!(matches!(
                s.group(c)
                    .dataset::<f64>("p", 4)
                    .dataset::<f64>("p", 4)
                    .build(),
                Err(SdmError::Usage(_))
            ));
        }
    });
}

#[test]
fn scope_write_without_view_is_error_and_empty_scope_is_free() {
    let (pfs, db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "scope").unwrap();
            let g = s.group(c).dataset::<f64>("p", 8).build().unwrap();
            let hp = g.handle::<f64>("p").unwrap();
            {
                let mut step = s.timestep(c, 0);
                // Staging checks the view immediately; the failure
                // poisons the scope, so committing it is refused.
                assert!(matches!(step.write(hp, &[1.0]), Err(SdmError::NoView(_))));
                assert!(matches!(step.commit(), Err(SdmError::Usage(_))));
            }
            // Wrong buffer length surfaces at staging too.
            s.set_view(c, hp, &[0, 1]).unwrap();
            {
                let mut step = s.timestep(c, 0);
                assert!(matches!(step.write(hp, &[1.0]), Err(SdmError::Usage(_))));
                assert!(matches!(step.commit(), Err(SdmError::Usage(_))));
            }
            // An empty, healthy scope commits as a no-op.
            s.timestep(c, 0).commit().unwrap();
            s.finalize(c).unwrap();
        }
    });
    let rs = db
        .exec_stmt(&Query::<ExecutionRow>::all().count().compile(), &[])
        .unwrap();
    assert_eq!(rs.scalar().and_then(Value::as_i64), Some(0));
}

#[test]
fn poisoned_scope_abandons_staged_writes_on_drop() {
    let (pfs, db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "poison").unwrap();
            let g = s
                .group(c)
                .dataset::<f64>("good", 4)
                .dataset::<f64>("bad", 4)
                .build()
                .unwrap();
            let hg = g.handle::<f64>("good").unwrap();
            let hb = g.handle::<f64>("bad").unwrap();
            s.set_view(c, hg, &[0, 1, 2, 3]).unwrap();
            // No view for "bad": staging it fails after "good" staged.
            {
                let mut step = s.timestep(c, 0);
                step.write(hg, &[1.0, 2.0, 3.0, 4.0]).unwrap();
                assert!(step.write(hb, &[9.0; 4]).is_err());
                // Dropped poisoned: the half-staged step must NOT land.
            }
            // Explicit abandon discards staged writes too.
            {
                let mut step = s.timestep(c, 1);
                step.write(hg, &[5.0; 4]).unwrap();
                step.abandon();
            }
            s.finalize(c).unwrap();
        }
    });
    let rs = db
        .exec_stmt(&Query::<ExecutionRow>::all().count().compile(), &[])
        .unwrap();
    assert_eq!(
        rs.scalar().and_then(Value::as_i64),
        Some(0),
        "neither the poisoned nor the abandoned step may record rows"
    );
    assert!(
        pfs.list().is_empty(),
        "no data files from abandoned steps: {:?}",
        pfs.list()
    );
}

#[test]
fn scope_closes_on_drop() {
    let (pfs, _db, store) = setup();
    World::run(2, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "raii").unwrap();
            let g = s.group(c).dataset::<f64>("p", 16).build().unwrap();
            let hp = g.handle::<f64>("p").unwrap();
            let mine: Vec<u64> = (c.rank() as u64..16).step_by(c.size()).collect();
            s.set_view(c, hp, &mine).unwrap();
            let p: Vec<f64> = mine.iter().map(|&g| g as f64 + 0.5).collect();
            {
                let mut step = s.timestep(c, 3);
                step.write(hp, &p).unwrap();
                // No commit: the drop flushes collectively.
            }
            let mut back = vec![0.0f64; mine.len()];
            s.read_handle(c, hp, 3, &mut back).unwrap();
            assert_eq!(back, p);
            s.finalize(c).unwrap();
        }
    });
}

#[test]
fn attach_to_unknown_run_is_error() {
    let (pfs, _db, store) = setup();
    World::run(2, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            // Nothing recorded yet: attaching to runid 7 must fail on
            // every rank.
            match Sdm::attach(c, &pfs, &store, "ghost", 7, SdmConfig::default()) {
                Err(SdmError::NoSuchRun(7)) => {}
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("attach to an unknown run must fail"),
            }
            // A recorded run attaches fine.
            let mut s = Sdm::initialize(c, &pfs, &store, "real").unwrap();
            s.group(c).dataset::<f64>("p", 10).build().unwrap();
            let id = s.runid();
            s.finalize(c).unwrap();
            let s2 = Sdm::attach(c, &pfs, &store, "real", id, SdmConfig::default()).unwrap();
            assert_eq!(s2.runid(), id);
            s2.finalize(c).unwrap();
        }
    });
}

#[test]
fn level2_appends_across_timesteps() {
    let (pfs, db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let cfg = SdmConfig {
                org: OrgLevel::Level2,
                ..Default::default()
            };
            let mut s = Sdm::initialize_with(c, &pfs, &store, "app", cfg).unwrap();
            let g = s.group(c).dataset::<f64>("p", 4).build().unwrap();
            let hp = g.handle::<f64>("p").unwrap();
            s.set_view(c, hp, &[0, 1, 2, 3]).unwrap();
            for t in 0..3i64 {
                let vals = [t as f64; 4];
                let mut step = s.timestep(c, t);
                step.write(hp, &vals).unwrap();
                step.commit().unwrap();
            }
            // Read back the middle timestep.
            let mut buf = vec![0.0f64; 4];
            s.read_handle(c, hp, 1, &mut buf).unwrap();
            assert_eq!(buf, vec![1.0; 4]);
            s.finalize(c).unwrap();
        }
    });
    // One file, three regions.
    assert_eq!(pfs.file_len("app.g0.p.dat").unwrap(), 3 * 4 * 8);
    let rs = db
        .exec_stmt(
            &Query::<ExecutionRow>::all()
                .select(&[ExecutionCol::FileOffset])
                .order_by(ExecutionCol::FileOffset)
                .compile(),
            &[],
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows[2][0].as_i64(), Some(64));
}

// ---------------------------------------------------------------------
// File offsets that do not fit the `execution_table`'s i64 column
// ---------------------------------------------------------------------

#[test]
fn oversized_dataset_is_rejected_at_build_and_attach() {
    let (pfs, db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let mut s = Sdm::initialize(c, &pfs, &store, "huge").unwrap();
            // 2^62 doubles are 2^65 bytes: the byte size overflows u64.
            assert!(matches!(
                s.group(c).dataset::<f64>("x", u64::MAX / 4).build(),
                Err(SdmError::Usage(_))
            ));
            // 2^60 doubles are 2^63 bytes: fits u64, not i64.
            assert!(matches!(
                s.group(c).dataset::<f64>("x", 1 << 60).attach(),
                Err(SdmError::Usage(_))
            ));
            // The largest admissible dataset still registers.
            s.group(c)
                .dataset::<f64>("x", i64::MAX as u64 / 8)
                .build()
                .unwrap();
            s.finalize(c).unwrap();
        }
    });
    let rs = db
        .exec_stmt(&Query::<AccessPatternRow>::all().count().compile(), &[])
        .unwrap();
    assert_eq!(
        rs.scalar().and_then(Value::as_i64),
        Some(1),
        "a refused group records no rows"
    );
}

#[test]
fn append_past_the_largest_file_offset_is_refused() {
    let (pfs, db, store) = setup();
    World::run(1, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let cfg = SdmConfig {
                org: OrgLevel::Level2,
                ..Default::default()
            };
            let mut s = Sdm::initialize_with(c, &pfs, &store, "edge", cfg).unwrap();
            // One region ends 8 bytes short of i64::MAX; a second
            // appended after it cannot be addressed.
            let g = s
                .group(c)
                .dataset::<f64>("x", i64::MAX as u64 / 8)
                .build()
                .unwrap();
            let hx = g.handle::<f64>("x").unwrap();
            s.set_view(c, hx, &[0]).unwrap();
            let mut step = s.timestep(c, 0);
            step.write(hx, &[1.5]).unwrap();
            step.commit().unwrap();
            let mut step = s.timestep(c, 1);
            step.write(hx, &[2.5]).unwrap();
            assert!(matches!(step.commit(), Err(SdmError::Usage(_))));
            // The refused step left the landed one readable.
            let mut back = [0.0f64];
            s.read_handle(c, hx, 0, &mut back).unwrap();
            assert_eq!(back, [1.5]);
            assert!(matches!(
                s.read_handle(c, hx, 1, &mut back),
                Err(SdmError::NotWritten { timestep: 1, .. })
            ));
            s.finalize(c).unwrap();
        }
    });
    let rs = db
        .exec_stmt(&Query::<ExecutionRow>::all().count().compile(), &[])
        .unwrap();
    assert_eq!(rs.scalar().and_then(Value::as_i64), Some(1));
}
