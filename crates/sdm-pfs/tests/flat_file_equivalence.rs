//! The PFS's sparse file image behaves byte for byte like a flat file.
//!
//! Random sequences of `write_at` and `read_at` run against a `Pfs` and
//! against a plain `Vec<u8>` per file, the reference. Offsets cluster at
//! the image's 64 KiB extent boundaries and at the current end of file,
//! so writes straddle extents, overlap, land past EOF (leaving holes)
//! and reads come up short at EOF. One file is truncated and one
//! corrupted by the fault plan, which must keep its meaning.

use proptest::prelude::*;
use sdm_pfs::{FaultPlan, Pfs, PfsFile};
use sdm_sim::MachineConfig;

/// The image's extent size; offsets are drawn around its multiples.
const EXTENT: i64 = 64 * 1024;
/// Visible length of the truncated file: inside its second extent.
const TRUNCATED_TO: u64 = EXTENT as u64 + 123;
const NAMES: [&str; 3] = ["plain.dat", "truncated.dat", "corrupt.dat"];

/// The reference: a flat file that grows with zeros.
#[derive(Default)]
struct Flat(Vec<u8>);

impl Flat {
    fn write(&mut self, offset: usize, data: &[u8]) {
        let end = offset + data.len();
        if self.0.len() < end {
            self.0.resize(end, 0);
        }
        self.0[offset..end].copy_from_slice(data);
    }
}

/// `(is_write, file, anchor, delta, len, fill)`: the offset is `delta`
/// bytes from `anchor * EXTENT`, or from the current EOF when `anchor`
/// is [`AT_EOF`].
type Op = (bool, usize, i64, i64, usize, u8);
const AT_EOF: i64 = 4;

fn op() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        0usize..3,
        0i64..AT_EOF + 1,
        -300i64..300,
        prop_oneof![Just(0usize), 1usize..300, 1000usize..140_000],
        any::<u8>(),
    )
}

fn check(ops: &[Op]) -> Result<(), String> {
    let pfs = Pfs::with_faults(
        MachineConfig::test_tiny(),
        FaultPlan::none()
            .truncate(NAMES[1], TRUNCATED_TO)
            .corrupt_first_byte(NAMES[2]),
    );
    let files: Vec<PfsFile> = NAMES
        .iter()
        .map(|n| pfs.open_or_create(n, 0.0).unwrap().0)
        .collect();
    let mut flats: Vec<Flat> = NAMES.iter().map(|_| Flat::default()).collect();
    for &(is_write, i, anchor, delta, len, fill) in ops {
        let flat = &mut flats[i];
        let base = if anchor == AT_EOF {
            flat.0.len() as i64
        } else {
            anchor * EXTENT
        };
        let offset = (base + delta).max(0) as usize;
        if is_write {
            let data: Vec<u8> = (0..len).map(|k| fill.wrapping_add(k as u8)).collect();
            pfs.write_at(&files[i], offset as u64, &data, 0.0).unwrap();
            flat.write(offset, &data);
        } else {
            let visible = if i == 1 {
                flat.0.len().min(TRUNCATED_TO as usize)
            } else {
                flat.0.len()
            };
            let mut want = vec![0xEEu8; len];
            let n = visible.saturating_sub(offset).min(len);
            want[..n].copy_from_slice(&flat.0[offset.min(visible)..][..n]);
            if i == 2 && offset == 0 && n > 0 {
                want[0] = !want[0];
            }
            let mut got = vec![0xEEu8; len];
            let (got_n, _) = pfs
                .read_at(&files[i], offset as u64, &mut got, 0.0)
                .unwrap();
            prop_assert_eq!(got_n, n, "read count at {} of {}", offset, NAMES[i]);
            prop_assert!(got == want, "bytes differ at {} of {}", offset, NAMES[i]);
        }
        for (k, name) in NAMES.iter().enumerate() {
            let real = flats[k].0.len() as u64;
            let visible = if k == 1 { real.min(TRUNCATED_TO) } else { real };
            prop_assert_eq!(files[k].len(), real, "PfsFile::len of {}", name);
            prop_assert_eq!(pfs.file_len(name).unwrap(), visible, "file_len of {}", name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_image_matches_a_flat_file(ops in proptest::collection::vec(op(), 1..40)) {
        check(&ops)?;
    }
}
