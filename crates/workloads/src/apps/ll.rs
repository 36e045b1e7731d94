//! Linked-list traversal (`ll`).
//!
//! Each linked list is fully stored in one NDP unit ([30], [57]), so a
//! query touches exactly one unit and the baseline needs no cross-unit
//! communication — but Zipfian query skew concentrates work on the
//! units holding hot lists, making `ll` a pure load-imbalance workload
//! (Figure 10: no wait time under C/B, large max/avg gap).

use ndpb_dram::Geometry;
use ndpb_sim::SimRng;
use ndpb_tasks::{Application, ExecCtx, Task, TaskArgs, TaskFnId};

use crate::apps::Sizes;
use crate::{Layout, Scale, Zipfian};

/// Cycles to process one list node.
const CYCLES_PER_NODE: u64 = 24;
/// Bytes read per node (key + next pointer + padding).
const BYTES_PER_NODE: u32 = 16;

/// The `ll` workload.
#[derive(Debug)]
pub struct LinkedList {
    layout: Layout,
    lengths: Vec<u8>,
    queries: Vec<u32>,
    nodes_walked: u64,
}

impl LinkedList {
    /// Builds the dataset: `elems_per_unit` lists per unit with skewed
    /// lengths, and a Zipfian query stream over all lists.
    pub fn new(geometry: &Geometry, scale: Scale, seed: u64) -> Self {
        let s = Sizes::of(scale);
        let lists = geometry.total_units() as usize * s.elems_per_unit;
        let mut rng = SimRng::new(seed);
        // List lengths 1..=16 nodes (a 256 B element holds 16 nodes).
        let lengths: Vec<u8> = (0..lists).map(|_| 1 + (rng.next_below(16)) as u8).collect();
        // Zipf over *random permutation* of lists so hot lists land on
        // arbitrary units (query skew → unit skew).
        // θ=0.75: hot lists overload their units without one single list
        // serializing the whole run (real query logs concentrate far less
        // than θ≈1 at these population sizes).
        let zipf = Zipfian::new(lists as u64, 0.55);
        let mut perm: Vec<u32> = (0..lists as u32).collect();
        rng.shuffle(&mut perm);
        let queries: Vec<u32> = (0..s.queries)
            .map(|_| perm[zipf.sample(&mut rng) as usize])
            .collect();
        LinkedList {
            layout: Layout::new(geometry, lists as u64, 256),
            lengths,
            queries,
            nodes_walked: 0,
        }
    }

    /// Number of lists in the dataset.
    pub fn lists(&self) -> usize {
        self.lengths.len()
    }
}

impl Application for LinkedList {
    fn name(&self) -> &str {
        "ll"
    }

    fn initial_tasks(&mut self) -> Vec<Task> {
        self.queries
            .iter()
            .map(|&list| {
                let len = self.lengths[list as usize] as u32;
                Task::new(
                    TaskFnId(0),
                    ndpb_tasks::Timestamp(0),
                    self.layout.addr_of(list as u64),
                    len * CYCLES_PER_NODE as u32,
                    TaskArgs::EMPTY,
                )
            })
            .collect()
    }

    fn execute(&mut self, task: &Task, ctx: &mut ExecCtx) {
        let list = self.layout.element_of(task.data);
        let len = self.lengths[list as usize] as u64;
        ctx.compute(len * CYCLES_PER_NODE);
        ctx.read(task.data, len as u32 * BYTES_PER_NODE);
        self.nodes_walked += len;
    }

    fn checksum(&self) -> u64 {
        self.nodes_walked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::UnitId;

    #[test]
    fn dataset_is_deterministic() {
        let g = Geometry::table1();
        let a = LinkedList::new(&g, Scale::Tiny, 5);
        let b = LinkedList::new(&g, Scale::Tiny, 5);
        assert_eq!(a.lengths, b.lengths);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn queries_are_skewed_across_units() {
        let g = Geometry::table1();
        let mut app = LinkedList::new(&g, Scale::Tiny, 5);
        let tasks = app.initial_tasks();
        let mut per_unit = vec![0u32; g.total_units() as usize];
        let layout = Layout::new(&g, app.lists() as u64, 256);
        for t in &tasks {
            per_unit[layout.unit_of(layout.element_of(t.data)).index()] += 1;
        }
        let max = *per_unit.iter().max().unwrap();
        let avg = tasks.len() as u32 / g.total_units();
        assert!(max > 4 * avg.max(1), "max {max} vs avg {avg}");
    }

    #[test]
    fn execute_walks_whole_list() {
        let g = Geometry::table1();
        let mut app = LinkedList::new(&g, Scale::Tiny, 5);
        let tasks = app.initial_tasks();
        let mut ctx = ExecCtx::new(UnitId(0));
        app.execute(&tasks[0], &mut ctx);
        assert!(ctx.compute_cycles() >= CYCLES_PER_NODE);
        assert_eq!(ctx.spawned().len(), 0, "ll never spawns children");
        assert!(app.checksum() > 0);
    }
}
