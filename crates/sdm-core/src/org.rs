//! The three file organizations (paper Section 3.2, Figure 4 bottom).
//!
//! * **Level 1** — one file per dataset per timestep. Simple, but pays a
//!   file-open + file-view (+close) every timestep.
//! * **Level 2** — one file per dataset; timesteps append. Fewer files,
//!   fewer opens.
//! * **Level 3** — one file per *group*; all datasets and timesteps
//!   append. Fewest files; offsets tracked in the `execution_table`.

/// File-organization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgLevel {
    /// File per (dataset, timestep).
    Level1,
    /// File per dataset, timesteps appended.
    Level2,
    /// File per group, everything appended.
    Level3,
}

impl OrgLevel {
    /// File name for a write of `dataset` at `timestep` in group `group`
    /// of application `app`.
    pub fn file_name(&self, app: &str, group: usize, dataset: &str, timestep: i64) -> String {
        match self {
            OrgLevel::Level1 => format!("{app}.g{group}.{dataset}.t{timestep}.dat"),
            OrgLevel::Level2 => format!("{app}.g{group}.{dataset}.dat"),
            OrgLevel::Level3 => format!("{app}.g{group}.dat"),
        }
    }

    /// Whether a fresh file (and therefore an open) is needed at every
    /// timestep.
    pub fn opens_per_timestep(&self) -> bool {
        matches!(self, OrgLevel::Level1)
    }

    /// Number of files this level creates for `datasets` datasets over
    /// `timesteps` checkpoints (the paper's 10 / 5 / 2 example counts
    /// both groups).
    pub fn files_created(&self, datasets: usize, timesteps: usize) -> usize {
        match self {
            OrgLevel::Level1 => datasets * timesteps,
            OrgLevel::Level2 => datasets,
            OrgLevel::Level3 => 1,
        }
    }

    /// All three levels, for sweeps.
    pub fn all() -> [OrgLevel; 3] {
        [OrgLevel::Level1, OrgLevel::Level2, OrgLevel::Level3]
    }

    /// Short label for reports ("level 1"...).
    pub fn label(&self) -> &'static str {
        match self {
            OrgLevel::Level1 => "level 1",
            OrgLevel::Level2 => "level 2",
            OrgLevel::Level3 => "level 3",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_distinguish_levels() {
        let l1 = OrgLevel::Level1.file_name("fun3d", 0, "p", 10);
        let l2 = OrgLevel::Level2.file_name("fun3d", 0, "p", 10);
        let l3 = OrgLevel::Level3.file_name("fun3d", 0, "p", 10);
        assert!(l1.contains("t10"));
        assert!(!l2.contains("t10"), "level 2 appends timesteps: {l2}");
        assert!(!l3.contains('p'), "level 3 ignores the dataset: {l3}");
        // Same dataset, different timestep: level 1 differs, level 2 same.
        assert_ne!(l1, OrgLevel::Level1.file_name("fun3d", 0, "p", 20));
        assert_eq!(l2, OrgLevel::Level2.file_name("fun3d", 0, "p", 20));
    }

    #[test]
    fn file_counts_match_paper_example() {
        // Paper (Figure 6): 5 datasets, 2 timesteps -> 10 / 5 / 2 files
        // (2 because p-like and q-like sets were in 2 groups; per group
        // that's 1).
        assert_eq!(OrgLevel::Level1.files_created(5, 2), 10);
        assert_eq!(OrgLevel::Level2.files_created(5, 2), 5);
        assert_eq!(OrgLevel::Level3.files_created(5, 2), 1);
    }

    #[test]
    fn only_level1_reopens() {
        assert!(OrgLevel::Level1.opens_per_timestep());
        assert!(!OrgLevel::Level2.opens_per_timestep());
        assert!(!OrgLevel::Level3.opens_per_timestep());
    }
}
