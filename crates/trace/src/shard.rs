//! Per-process sharding of a multiprogrammed trace across NIC boards.
//!
//! The paper's evaluation stops at one NIC shared by a handful of
//! processes (§6); the cluster extension (`utlb-sim::cluster`) spreads a
//! merged multiprogrammed stream over many simulated boards. A [`ShardMap`]
//! is the placement function for that topology: every process id is homed
//! on exactly one board, and a board serves exactly the lookups of its
//! resident processes. The map is a plain table (not a hash of the pid) so
//! that mid-trace migration can rehome a process without touching the
//! others.

use std::collections::BTreeMap;
use utlb_mem::ProcessId;

/// A placement of process ids onto `nodes` boards (0-based board indices).
///
/// Deterministic by construction: the table iterates in pid order, so two
/// maps built from the same assignments compare and enumerate identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    nodes: usize,
    home: BTreeMap<u32, usize>,
}

impl ShardMap {
    /// An empty map over `nodes` boards.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one board");
        ShardMap {
            nodes,
            home: BTreeMap::new(),
        }
    }

    /// The canonical placement: pids in ascending order dealt round-robin
    /// across boards (pid rank `i` lands on board `i % nodes`), so load
    /// spreads evenly regardless of how dense or sparse the pid space is.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn round_robin(pids: &[ProcessId], nodes: usize) -> Self {
        let mut sorted: Vec<ProcessId> = pids.to_vec();
        sorted.sort();
        sorted.dedup();
        let mut map = ShardMap::new(nodes);
        for (rank, pid) in sorted.iter().enumerate() {
            map.assign(*pid, rank % nodes);
        }
        map
    }

    /// Homes `pid` on `board`, replacing any previous assignment.
    ///
    /// # Panics
    ///
    /// Panics if `board` is out of range.
    pub fn assign(&mut self, pid: ProcessId, board: usize) {
        assert!(
            board < self.nodes,
            "board {board} out of range for {} nodes",
            self.nodes
        );
        self.home.insert(pid.raw(), board);
    }

    /// The board `pid` is homed on, if assigned.
    pub fn board_of(&self, pid: ProcessId) -> Option<usize> {
        self.home.get(&pid.raw()).copied()
    }

    /// Number of boards in the topology.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of assigned processes.
    pub fn len(&self) -> usize {
        self.home.len()
    }

    /// Whether no process has been assigned yet.
    pub fn is_empty(&self) -> bool {
        self.home.is_empty()
    }

    /// All assigned processes in ascending pid order.
    pub fn pids(&self) -> Vec<ProcessId> {
        self.home.keys().map(|p| ProcessId::new(*p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn round_robin_deals_pids_in_order() {
        let pids: Vec<ProcessId> = [3, 1, 2, 5, 1].iter().map(|n| pid(*n)).collect();
        let map = ShardMap::round_robin(&pids, 2);
        // Sorted + deduped: 1, 2, 3, 5 → boards 0, 1, 0, 1.
        assert_eq!(map.nodes(), 2);
        assert_eq!(map.len(), 4);
        assert_eq!(map.board_of(pid(1)), Some(0));
        assert_eq!(map.board_of(pid(2)), Some(1));
        assert_eq!(map.board_of(pid(3)), Some(0));
        assert_eq!(map.board_of(pid(5)), Some(1));
        assert_eq!(map.board_of(pid(4)), None);
    }

    #[test]
    fn assign_rehomes_a_pid() {
        let mut map = ShardMap::round_robin(&[pid(1), pid(2)], 2);
        map.assign(pid(1), 1);
        assert_eq!(map.board_of(pid(1)), Some(1));
        assert_eq!(map.len(), 2, "rehoming is not a second assignment");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_board_panics() {
        ShardMap::new(2).assign(pid(1), 2);
    }

    #[test]
    #[should_panic(expected = "at least one board")]
    fn zero_node_map_panics() {
        ShardMap::new(0);
    }
}
