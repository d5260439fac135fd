//! Qubit connectivity graphs.
//!
//! A [`CouplingMap`] is the undirected interaction graph of a device:
//! two-qubit gates may only act on connected pairs. Generators are provided
//! for the topology families used by the five devices of the paper:
//! IBM heavy-hex, Rigetti octagonal lattices, all-to-all (trapped ions),
//! rings, lines, and grids.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// An undirected qubit connectivity graph.
///
/// # Examples
///
/// ```
/// use qrc_device::CouplingMap;
///
/// let line = CouplingMap::line(4);
/// assert!(line.are_connected(1, 2));
/// assert!(!line.are_connected(0, 3));
/// assert_eq!(line.distance(0, 3), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CouplingMap {
    num_qubits: u32,
    /// Normalized edge set: `(a, b)` with `a < b`.
    edges: BTreeSet<(u32, u32)>,
    /// Adjacency lists, derived from `edges`.
    adjacency: Vec<Vec<u32>>,
    /// All-pairs shortest-path distances (BFS); `u32::MAX` if disconnected.
    distances: Vec<Vec<u32>>,
}

impl CouplingMap {
    /// Builds a coupling map from an edge list (self-loops rejected,
    /// duplicates merged, direction ignored).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `≥ num_qubits` or a self-loop.
    pub fn new(num_qubits: u32, edge_list: &[(u32, u32)]) -> Self {
        let mut edges = BTreeSet::new();
        for &(a, b) in edge_list {
            assert!(a != b, "self-loop on qubit {a}");
            assert!(
                a < num_qubits && b < num_qubits,
                "edge ({a},{b}) out of range for {num_qubits} qubits"
            );
            edges.insert((a.min(b), a.max(b)));
        }
        let mut adjacency = vec![Vec::new(); num_qubits as usize];
        for &(a, b) in &edges {
            adjacency[a as usize].push(b);
            adjacency[b as usize].push(a);
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        let distances = all_pairs_bfs(num_qubits, &adjacency);
        CouplingMap {
            num_qubits,
            edges,
            adjacency,
            distances,
        }
    }

    /// Number of qubits (nodes).
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The normalized undirected edge set.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if `a` and `b` share an edge (`false` for qubits
    /// outside the map).
    pub fn are_connected(&self, a: u32, b: u32) -> bool {
        a < self.num_qubits && b < self.num_qubits && self.distance(a, b) == 1
    }

    /// Neighbors of qubit `q`, sorted ascending.
    pub fn neighbors(&self, q: u32) -> &[u32] {
        &self.adjacency[q as usize]
    }

    /// Degree of qubit `q`.
    pub fn degree(&self, q: u32) -> usize {
        self.adjacency[q as usize].len()
    }

    /// Shortest-path distance in edges (`u32::MAX` if disconnected).
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        self.distances[a as usize][b as usize]
    }

    /// Returns `true` if every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        self.num_qubits <= 1 || self.distances[0].iter().all(|&d| d != u32::MAX)
    }

    /// One shortest path from `a` to `b` (inclusive), or `None` if
    /// disconnected.
    pub fn shortest_path(&self, a: u32, b: u32) -> Option<Vec<u32>> {
        if self.distance(a, b) == u32::MAX {
            return None;
        }
        // Greedy descent along the distance field.
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            let next = *self.adjacency[cur as usize]
                .iter()
                .find(|&&n| self.distance(n, b) < self.distance(cur, b))
                .expect("distance field is consistent");
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    // ----- generators -----

    /// A 1-D line: `0 — 1 — … — n-1`.
    pub fn line(n: u32) -> Self {
        let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingMap::new(n, &edges)
    }

    /// A ring: line plus the closing edge.
    pub fn ring(n: u32) -> Self {
        let mut edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        if n > 2 {
            edges.push((n - 1, 0));
        }
        CouplingMap::new(n, &edges)
    }

    /// A complete graph (trapped-ion all-to-all connectivity).
    pub fn all_to_all(n: u32) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        CouplingMap::new(n, &edges)
    }

    /// A `rows × cols` rectangular grid.
    pub fn grid(rows: u32, cols: u32) -> Self {
        let at = |r: u32, c: u32| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((at(r, c), at(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((at(r, c), at(r + 1, c)));
                }
            }
        }
        CouplingMap::new(rows * cols, &edges)
    }

    /// IBM heavy-hex lattice in the Eagle/Falcon style: horizontal rows of
    /// `row_len` qubits joined by single connector qubits every fourth
    /// column, alternating offsets of 0 and 2 per gap.
    ///
    /// `rows` is the number of horizontal rows (≥ 1). The first and last
    /// rows are shortened by one qubit, matching IBM's 127-qubit Eagle
    /// layout when called as `heavy_hex(7, 15)`.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `row_len < 5`.
    pub fn heavy_hex(rows: u32, row_len: u32) -> Self {
        assert!(rows >= 1, "need at least one row");
        assert!(row_len >= 5, "rows shorter than 5 cannot host connectors");
        // Row r occupies columns [start_r, start_r + len_r).
        // First row: columns 0..row_len-1 (len row_len-1).
        // Last row: columns 1..row_len (len row_len-1).
        // Middle rows: columns 0..row_len (full).
        let row_cols = |r: u32| -> (u32, u32) {
            if rows == 1 {
                (0, row_len)
            } else if r == 0 {
                (0, row_len - 1)
            } else if r == rows - 1 {
                (1, row_len - 1)
            } else {
                (0, row_len)
            }
        };
        let mut edges = Vec::new();
        let mut id = 0u32;
        let mut row_ids: Vec<Vec<(u32, u32)>> = Vec::new(); // (column, id)
        let mut connector_info: Vec<(u32, u32, u32)> = Vec::new(); // (gap, column, id)
        for r in 0..rows {
            let (start, len) = row_cols(r);
            let mut ids = Vec::new();
            for c in start..start + len {
                ids.push((c, id));
                id += 1;
            }
            // Horizontal edges along the row.
            for w in ids.windows(2) {
                edges.push((w[0].1, w[1].1));
            }
            row_ids.push(ids);
            // Connector qubits in the gap below this row.
            if r + 1 < rows {
                let offset = if r % 2 == 0 { 0 } else { 2 };
                let mut c = offset;
                while c < row_len {
                    connector_info.push((r, c, id));
                    id += 1;
                    c += 4;
                }
            }
        }
        // Attach connectors to the rows above and below.
        for &(gap, col, cid) in &connector_info {
            for row in [gap, gap + 1] {
                if let Some(&(_, qid)) = row_ids[row as usize].iter().find(|&&(c, _)| c == col) {
                    edges.push((cid, qid));
                }
            }
        }
        CouplingMap::new(id, &edges)
    }

    /// Rigetti Aspen-style octagonal lattice: a `rows × cols` arrangement
    /// of 8-qubit rings, with two bridging edges between horizontally and
    /// vertically adjacent octagons.
    ///
    /// `octagonal(2, 5)` gives the 80-qubit Aspen-M-2 footprint.
    pub fn octagonal(rows: u32, cols: u32) -> Self {
        // Octagon-local numbering 0..8 arranged clockwise; by Rigetti
        // convention qubits 1,2 face west, 5,6 face east, 0,7 face north,
        // 3,4 face south.
        let base = |r: u32, c: u32| (r * cols + c) * 8;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let b = base(r, c);
                for k in 0..8 {
                    edges.push((b + k, b + (k + 1) % 8));
                }
                // East-west bridges to the next octagon in the row.
                if c + 1 < cols {
                    let e = base(r, c + 1);
                    edges.push((b + 5, e + 2));
                    edges.push((b + 6, e + 1));
                }
                // North-south bridges to the next octagon in the column.
                if r + 1 < rows {
                    let s = base(r + 1, c);
                    edges.push((b + 3, s));
                    edges.push((b + 4, s + 7));
                }
            }
        }
        CouplingMap::new(rows * cols * 8, &edges)
    }

    /// The hard-coded 27-qubit IBM Falcon coupling map
    /// (`ibmq_montreal` and siblings).
    pub fn ibm_falcon_27() -> Self {
        CouplingMap::new(
            27,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
                (14, 16),
                (15, 18),
                (16, 19),
                (17, 18),
                (18, 21),
                (19, 20),
                (19, 22),
                (21, 23),
                (22, 25),
                (23, 24),
                (24, 25),
                (25, 26),
            ],
        )
    }
}

fn all_pairs_bfs(num_qubits: u32, adjacency: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = num_qubits as usize;
    let mut out = vec![vec![u32::MAX; n]; n];
    for start in 0..n {
        let dist = &mut out[start];
        dist[start] = 0;
        let mut queue = VecDeque::from([start as u32]);
        while let Some(cur) = queue.pop_front() {
            let d = dist[cur as usize];
            for &nb in &adjacency[cur as usize] {
                if dist[nb as usize] == u32::MAX {
                    dist[nb as usize] = d + 1;
                    queue.push_back(nb);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_structure() {
        let m = CouplingMap::line(5);
        assert_eq!(m.num_edges(), 4);
        assert!(m.is_connected());
        assert_eq!(m.distance(0, 4), 4);
        assert_eq!(m.degree(0), 1);
        assert_eq!(m.degree(2), 2);
    }

    #[test]
    fn ring_closes() {
        let m = CouplingMap::ring(6);
        assert_eq!(m.num_edges(), 6);
        assert_eq!(m.distance(0, 5), 1);
        assert_eq!(m.distance(0, 3), 3);
    }

    #[test]
    fn ring_of_two_has_single_edge() {
        let m = CouplingMap::ring(2);
        assert_eq!(m.num_edges(), 1);
    }

    #[test]
    fn all_to_all_distances_are_one() {
        let m = CouplingMap::all_to_all(5);
        assert_eq!(m.num_edges(), 10);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(m.distance(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn grid_structure() {
        let m = CouplingMap::grid(3, 4);
        assert_eq!(m.num_qubits(), 12);
        // Edges: 3 rows × 3 + 4 cols × 2 = 9 + 8 = 17.
        assert_eq!(m.num_edges(), 17);
        assert_eq!(m.distance(0, 11), 5); // manhattan distance
    }

    #[test]
    fn falcon_27_matches_published_structure() {
        let m = CouplingMap::ibm_falcon_27();
        assert_eq!(m.num_qubits(), 27);
        assert_eq!(m.num_edges(), 28);
        assert!(m.is_connected());
        // Heavy-hex: degrees are 1, 2 or 3.
        for q in 0..27 {
            assert!((1..=3).contains(&m.degree(q)), "degree of {q}");
        }
    }

    #[test]
    fn heavy_hex_eagle_footprint() {
        let m = CouplingMap::heavy_hex(7, 15);
        assert_eq!(m.num_qubits(), 127, "should match IBM Eagle");
        assert!(m.is_connected());
        for q in 0..127 {
            assert!(
                (1..=3).contains(&m.degree(q)),
                "degree of {q} is {}",
                m.degree(q)
            );
        }
    }

    #[test]
    fn octagonal_aspen_footprint() {
        let m = CouplingMap::octagonal(2, 5);
        assert_eq!(m.num_qubits(), 80, "should match Aspen-M-2");
        assert!(m.is_connected());
        // Within one octagon the ring is present.
        assert!(m.are_connected(0, 1));
        assert!(m.are_connected(7, 0));
        // Bridges exist between octagons.
        assert!(m.are_connected(5, 10)); // 0:5 east to 1:2
        for q in 0..80 {
            assert!((2..=4).contains(&m.degree(q)));
        }
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let m = CouplingMap::grid(3, 3);
        let p = m.shortest_path(0, 8).unwrap();
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 8);
        assert_eq!(p.len() as u32, m.distance(0, 8) + 1);
        for w in p.windows(2) {
            assert!(m.are_connected(w[0], w[1]));
        }
    }

    #[test]
    fn disconnected_graph_reports_max_distance() {
        let m = CouplingMap::new(4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert_eq!(m.distance(0, 3), u32::MAX);
        assert!(m.shortest_path(0, 3).is_none());
    }

    #[test]
    fn are_connected_matches_the_edge_set() {
        for m in [
            CouplingMap::ibm_falcon_27(),
            CouplingMap::octagonal(1, 2),
            CouplingMap::new(4, &[(0, 1), (2, 3)]),
        ] {
            let n = m.num_qubits();
            for a in 0..n + 2 {
                for b in 0..n + 2 {
                    let edge = m.edges().any(|e| e == (a.min(b), a.max(b)));
                    assert_eq!(m.are_connected(a, b), edge, "({a}, {b})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        CouplingMap::new(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        CouplingMap::new(3, &[(0, 5)]);
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let m = CouplingMap::new(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(m.num_edges(), 1);
    }
}
