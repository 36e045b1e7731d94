//! Synthetic graphs in CSR form.
//!
//! The paper uses SNAP real-world graphs; offline we generate seeded
//! R-MAT graphs, whose power-law degree distribution reproduces the
//! skew that drives both cross-unit communication and load imbalance,
//! plus uniform (Erdős–Rényi-style) graphs as a low-skew control.

use ndpb_sim::SimRng;

/// A directed graph in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list over `n` vertices.
    pub(crate) fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u64; n];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut targets = vec![0u32; edges.len()];
        let mut cursor = offsets.clone();
        for &(s, t) in edges {
            targets[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
        Graph { offsets, targets }
    }

    /// R-MAT generator with `edges` directed edges over `2^scale`
    /// vertices. The parameters (a=0.45, b=0.22, c=0.22) give a heavy
    /// power-law degree tail whose *top* vertex holds ~0.3-0.5% of all
    /// edges — the regime of the paper's SNAP graphs (e.g. soc-Slashdot
    /// 0.56%, web-Google 0.12%). Graph500's a=0.57 would concentrate
    /// 1-2% of all edges on one vertex, which no 512-unit system (the
    /// paper's included) can balance.
    pub fn rmat(scale: u32, edges: usize, seed: u64) -> Self {
        Self::rmat_with_locality(scale, edges, 0.0, seed)
    }

    /// R-MAT with *community locality*: each edge's target is rewritten
    /// with probability `locality` to land near the source (within a
    /// 1/64th-of-the-graph window). Real SNAP graphs exhibit strong id
    /// locality from their crawl/community structure, which is what
    /// gives RowClone-style intra-chip transfers (and the bridges'
    /// intra-rank short path) something to exploit.
    pub(crate) fn rmat_with_locality(scale: u32, edges: usize, locality: f64, seed: u64) -> Self {
        let n = 1usize << scale;
        let mut rng = SimRng::new(seed);
        let (a, b, c) = (0.45, 0.22, 0.22);
        let window = (n / 64).max(2) as u64;
        let mut list = Vec::with_capacity(edges);
        for _ in 0..edges {
            let (mut x0, mut x1) = (0usize, n);
            let (mut y0, mut y1) = (0usize, n);
            while x1 - x0 > 1 {
                let r = rng.next_f64();
                let (right, down) = if r < a {
                    (false, false)
                } else if r < a + b {
                    (true, false)
                } else if r < a + b + c {
                    (false, true)
                } else {
                    (true, true)
                };
                let xm = (x0 + x1) / 2;
                let ym = (y0 + y1) / 2;
                if right {
                    x0 = xm;
                } else {
                    x1 = xm;
                }
                if down {
                    y0 = ym;
                } else {
                    y1 = ym;
                }
            }
            let mut target = y0 as u64;
            if locality > 0.0 && rng.chance(locality) {
                let base = (x0 as u64).saturating_sub(window / 2);
                target = (base + rng.next_below(window)).min(n as u64 - 1);
            }
            list.push((x0 as u32, target as u32));
        }
        Self::from_edges(n, &list)
    }

    /// Uniform random graph: `edges` directed edges over `n` vertices.
    pub fn uniform(n: usize, edges: usize, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let list: Vec<(u32, u32)> = (0..edges)
            .map(|_| {
                (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                )
            })
            .collect();
        Self::from_edges(n, &list)
    }

    /// Number of vertices.
    pub(crate) fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub(crate) fn edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    pub(crate) fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Out-neighbors of `v`.
    pub(crate) fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.targets[s..e]
    }

    /// Maximum out-degree (skew diagnostic).
    pub fn max_degree(&self) -> usize {
        (0..self.vertices())
            .map(|v| self.degree(v as u32))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_csr() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(g.vertices(), 4);
        assert_eq!(g.edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.neighbors(3), &[0]);
    }

    #[test]
    fn rmat_has_requested_size() {
        let g = Graph::rmat(10, 8192, 1);
        assert_eq!(g.vertices(), 1024);
        assert_eq!(g.edges(), 8192);
    }

    #[test]
    fn rmat_is_skewed_vs_uniform() {
        let r = Graph::rmat(12, 40_000, 2);
        let u = Graph::uniform(4096, 40_000, 2);
        assert!(
            r.max_degree() > 4 * u.max_degree(),
            "rmat max {} vs uniform max {}",
            r.max_degree(),
            u.max_degree()
        );
    }

    #[test]
    fn uniform_targets_in_range() {
        let g = Graph::uniform(100, 1000, 3);
        for v in 0..100u32 {
            for &t in g.neighbors(v) {
                assert!((t as usize) < 100);
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = Graph::rmat(8, 1000, 7);
        let b = Graph::rmat(8, 1000, 7);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.offsets, b.offsets);
    }

    #[test]
    fn degrees_sum_to_edges() {
        let g = Graph::rmat(9, 5000, 11);
        let sum: usize = (0..g.vertices()).map(|v| g.degree(v as u32)).sum();
        assert_eq!(sum, g.edges());
    }
}
