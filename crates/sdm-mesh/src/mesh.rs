//! Mesh representation.

/// Cell topology of a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Triangles (3 nodes per cell).
    Triangle,
    /// Tetrahedra (4 nodes per cell).
    Tetrahedron,
}

impl CellKind {
    /// Nodes per cell.
    pub fn arity(&self) -> usize {
        match self {
            CellKind::Triangle => 3,
            CellKind::Tetrahedron => 4,
        }
    }

    /// Local node-index pairs forming each cell's edges.
    pub fn edge_pattern(&self) -> &'static [(usize, usize)] {
        match self {
            CellKind::Triangle => &[(0, 1), (1, 2), (0, 2)],
            CellKind::Tetrahedron => &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        }
    }
}

/// An unstructured mesh: node coordinates, unique undirected edges, and
/// (optionally) the generating cells.
#[derive(Debug, Clone)]
pub struct UnstructuredMesh {
    /// Node coordinates (z = 0 for 2-D meshes).
    pub coords: Vec<[f64; 3]>,
    /// Unique undirected edges as `(lo, hi)` node-id pairs, sorted.
    pub edges: Vec<(u32, u32)>,
    /// Cell kind.
    pub cell_kind: CellKind,
    /// Cell connectivity, `cell_kind.arity()` node ids per cell.
    pub cells: Vec<u32>,
}

impl UnstructuredMesh {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of unique edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len() / self.cell_kind.arity()
    }

    /// The paper's indirection arrays: `edge1[i]`, `edge2[i]` are the two
    /// node ids of edge `i`.
    pub fn indirection_arrays(&self) -> (Vec<i32>, Vec<i32>) {
        let mut e1 = Vec::with_capacity(self.edges.len());
        let mut e2 = Vec::with_capacity(self.edges.len());
        for &(a, b) in &self.edges {
            e1.push(a as i32);
            e2.push(b as i32);
        }
        (e1, e2)
    }

    /// Extract unique sorted edges from cell connectivity.
    ///
    /// Each `(lo, hi)` pair's higher end goes into a bucket under its
    /// lower end (a counting pass, then a scatter), so only the short
    /// buckets are sorted, and the result is allocated to its exact size.
    pub fn edges_from_cells(kind: CellKind, cells: &[u32]) -> Vec<(u32, u32)> {
        let arity = kind.arity();
        assert_eq!(
            cells.len() % arity,
            0,
            "cell array length must be a multiple of arity"
        );
        let n = cells.iter().max().map_or(0, |&v| v as usize + 1);
        let mut start = vec![0usize; n + 1];
        for_each_pair(kind, cells, |lo, _| start[lo + 1] += 1);
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let (mut fill, mut hi) = (start.clone(), vec![0u32; start[n]]);
        for_each_pair(kind, cells, |lo, h| {
            hi[fill[lo]] = h;
            fill[lo] += 1;
        });
        let mut len = 0;
        for v in 0..n {
            let bucket = &mut hi[start[v]..start[v + 1]];
            bucket.sort_unstable();
            len += bucket.chunk_by(|a, b| a == b).count();
        }
        let mut edges = Vec::with_capacity(len);
        for v in 0..n {
            let runs = hi[start[v]..start[v + 1]].chunk_by(|a, b| a == b);
            edges.extend(runs.map(|run| (v as u32, run[0])));
        }
        edges
    }

    /// Per-node degree (number of incident edges).
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes()];
        for &(a, b) in &self.edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg
    }

    /// Validity check: edge and cell node ids in range, edges sorted &
    /// deduplicated, no self-loops.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes() as u32;
        for (i, &(a, b)) in self.edges.iter().enumerate() {
            if a >= n || b >= n {
                return Err(format!("edge {i} references node out of range"));
            }
            if a >= b {
                return Err(format!(
                    "edge {i} not in (lo, hi) form or self-loop: ({a}, {b})"
                ));
            }
            if i > 0 && self.edges[i - 1] >= (a, b) {
                return Err(format!("edges not strictly sorted at {i}"));
            }
        }
        if !self.cells.len().is_multiple_of(self.cell_kind.arity()) {
            return Err("cell array length not a multiple of arity".into());
        }
        if let Some(&bad) = self.cells.iter().find(|&&c| c >= n) {
            return Err(format!("cell references node {bad} out of range"));
        }
        Ok(())
    }
}

/// Call `f(lo, hi)` for each edge of each cell, `lo <= hi`.
fn for_each_pair(kind: CellKind, cells: &[u32], mut f: impl FnMut(usize, u32)) {
    for c in cells.chunks_exact(kind.arity()) {
        for &(i, j) in kind.edge_pattern() {
            f(c[i].min(c[j]) as usize, c[i].max(c[j]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles sharing an edge: nodes 0-3, cells (0,1,2), (1,2,3).
    fn two_triangles() -> UnstructuredMesh {
        let cells = vec![0, 1, 2, 1, 2, 3];
        let edges = UnstructuredMesh::edges_from_cells(CellKind::Triangle, &cells);
        UnstructuredMesh {
            coords: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
            ],
            edges,
            cell_kind: CellKind::Triangle,
            cells,
        }
    }

    #[test]
    fn shared_edge_deduplicated() {
        let m = two_triangles();
        // 3 + 3 edges with (1,2) shared = 5 unique.
        assert_eq!(m.num_edges(), 5);
        assert!(m.edges.contains(&(1, 2)));
        m.validate().unwrap();
    }

    #[test]
    fn indirection_arrays_split() {
        let m = two_triangles();
        let (e1, e2) = m.indirection_arrays();
        assert_eq!(e1.len(), 5);
        for i in 0..5 {
            assert!(e1[i] < e2[i]);
        }
    }

    #[test]
    fn degrees_sum_to_twice_edges() {
        let m = two_triangles();
        let deg = m.degrees();
        assert_eq!(deg.iter().sum::<u32>() as usize, 2 * m.num_edges());
        assert_eq!(deg[1], 3); // node 1 touches 0,2,3
    }

    #[test]
    fn tet_edge_pattern_has_six() {
        assert_eq!(CellKind::Tetrahedron.edge_pattern().len(), 6);
        let edges = UnstructuredMesh::edges_from_cells(CellKind::Tetrahedron, &[0, 1, 2, 3]);
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn validate_catches_out_of_range() {
        let mut m = two_triangles();
        m.edges.push((2, 99));
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_unsorted() {
        let mut m = two_triangles();
        m.edges.swap(0, 1);
        assert!(m.validate().is_err());
    }
}
