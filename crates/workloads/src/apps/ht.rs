//! Hash-table probing (`ht`).
//!
//! Buckets are distributed across units by hash; each bucket's chain is
//! fully local ([30]), so like `ll` there is no baseline communication.
//! Key skew (Zipf) makes some buckets far hotter than others.

use ndpb_dram::Geometry;
use ndpb_sim::SimRng;
use ndpb_tasks::{Application, ExecCtx, Task, TaskArgs, TaskFnId, Timestamp};

use crate::apps::Sizes;
use crate::{Layout, Scale, Zipfian};

/// Cycles to hash + compare one chain entry.
const CYCLES_PER_ENTRY: u64 = 16;
/// Bytes per chain entry (key, value pointer).
const BYTES_PER_ENTRY: u32 = 16;

fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `ht` workload.
#[derive(Debug)]
pub struct HashTable {
    layout: Layout,
    chain_len: Vec<u8>,
    queries: Vec<u64>,
    buckets: u64,
    probes: u64,
}

impl HashTable {
    /// Builds a table of `elems_per_unit` buckets per unit, preloaded
    /// with chains, and a Zipfian key query stream.
    pub fn new(geometry: &Geometry, scale: Scale, seed: u64) -> Self {
        let s = Sizes::of(scale);
        let buckets = geometry.total_units() as u64 * s.elems_per_unit as u64;
        let mut rng = SimRng::new(seed);
        // Insert 8 keys per bucket on average, Zipf-skewed, so chain
        // lengths vary.
        let key_space = buckets * 8;
        let zipf = Zipfian::new(key_space, 0.55);
        let mut chain_len = vec![0u8; buckets as usize];
        for _ in 0..key_space {
            let key = zipf.sample(&mut rng);
            let b = (hash64(key) % buckets) as usize;
            chain_len[b] = chain_len[b].saturating_add(1).min(16);
        }
        let queries: Vec<u64> = (0..s.queries).map(|_| zipf.sample(&mut rng)).collect();
        HashTable {
            layout: Layout::new(geometry, buckets, 256),
            chain_len,
            queries,
            buckets,
            probes: 0,
        }
    }

    /// Bucket of a key.
    pub fn bucket_of(&self, key: u64) -> u64 {
        hash64(key) % self.buckets
    }
}

impl Application for HashTable {
    fn name(&self) -> &str {
        "ht"
    }

    fn initial_tasks(&mut self) -> Vec<Task> {
        self.queries
            .iter()
            .map(|&key| {
                let b = self.bucket_of(key);
                let len = self.chain_len[b as usize].max(1) as u32;
                Task::new(
                    TaskFnId(0),
                    Timestamp(0),
                    self.layout.addr_of(b),
                    len * CYCLES_PER_ENTRY as u32,
                    TaskArgs::one(key),
                )
            })
            .collect()
    }

    fn execute(&mut self, task: &Task, ctx: &mut ExecCtx) {
        let b = self.layout.element_of(task.data);
        let len = self.chain_len[b as usize].max(1) as u64;
        // Walk half the chain on average (hit mid-chain).
        let walked = len.div_ceil(2);
        ctx.compute(walked * CYCLES_PER_ENTRY);
        ctx.read(task.data, walked as u32 * BYTES_PER_ENTRY);
        self.probes += walked;
    }

    fn checksum(&self) -> u64 {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::UnitId;

    #[test]
    fn chains_are_skewed() {
        let g = Geometry::table1();
        let app = HashTable::new(&g, Scale::Tiny, 3);
        let max = *app.chain_len.iter().max().unwrap();
        let nonzero = app.chain_len.iter().filter(|&&c| c > 0).count();
        assert!(max >= 8, "max chain {max}");
        assert!(nonzero > app.chain_len.len() / 4);
    }

    #[test]
    fn tasks_route_to_bucket_home() {
        let g = Geometry::table1();
        let mut app = HashTable::new(&g, Scale::Tiny, 3);
        let tasks = app.initial_tasks();
        for t in tasks.iter().take(50) {
            let key = t.args.get(0);
            let b = app.bucket_of(key);
            assert_eq!(t.data, app.layout.addr_of(b));
        }
    }

    #[test]
    fn execute_counts_probes() {
        let g = Geometry::table1();
        let mut app = HashTable::new(&g, Scale::Tiny, 3);
        let tasks = app.initial_tasks();
        let mut ctx = ExecCtx::new(UnitId(0));
        app.execute(&tasks[0], &mut ctx);
        assert!(app.checksum() > 0);
        assert!(ctx.reads()[0].1 >= BYTES_PER_ENTRY);
    }

    #[test]
    fn deterministic() {
        let g = Geometry::table1();
        let mut a = HashTable::new(&g, Scale::Tiny, 3);
        let mut b = HashTable::new(&g, Scale::Tiny, 3);
        assert_eq!(a.initial_tasks().len(), b.initial_tasks().len());
        assert_eq!(a.queries, b.queries);
    }
}
