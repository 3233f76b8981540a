//! Thread-to-core placement: affinity modes and the context allocator.
//!
//! The paper enforces thread affinity explicitly: threads with continuous IDs
//! are put on the same tile when the operation benefits from L2 sharing
//! (*compact*), or spread one per tile when it does not (*scatter*). The
//! hill-climbing profiler measures both modes for every thread count.
//!
//! A [`Placement`] records which cores a job occupies and how many SMT
//! contexts it uses on each; the [`CoreMap`] allocator hands placements out
//! and tracks per-core occupancy.

use crate::error::MachineError;
use crate::topology::{CoreId, Topology};
use serde::{Deserialize, Serialize};

/// How a job's threads are distributed across tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SharingMode {
    /// Threads with adjacent IDs share a tile (two per tile): they share the
    /// L2, which helps ops whose neighbouring iterations touch the same data.
    Compact,
    /// One thread per tile (up to the tile count): no L2 sharing, more
    /// aggregate cache per thread.
    Scatter,
}

impl SharingMode {
    /// Both modes, in the order the profiler explores them.
    pub const ALL: [SharingMode; 2] = [SharingMode::Compact, SharingMode::Scatter];
}

/// Which SMT context a job's threads should prefer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotPreference {
    /// Use the first free context on an otherwise-free core (the normal case).
    Primary,
    /// Deliberately ride the *second* hardware thread of already-busy cores —
    /// the paper's Strategy 4 (hyper-threading co-run of small operations).
    HyperThread,
    /// TensorFlow-style placement: no partitioning, threads land round-robin
    /// on the least-loaded cores regardless of who else is there (the OS
    /// scheduler's behaviour when an inter-op pool oversubscribes the
    /// machine). Used by the baseline executor.
    Shared,
}

/// A request for hardware contexts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// Number of software threads to place (one per context).
    pub threads: u32,
    /// Tile-sharing mode.
    pub mode: SharingMode,
    /// Primary contexts or hyper-thread contexts of busy cores.
    pub slot: SlotPreference,
}

impl PlacementRequest {
    /// A primary-slot request, the common case.
    pub fn primary(threads: u32, mode: SharingMode) -> Self {
        PlacementRequest {
            threads,
            mode,
            slot: SlotPreference::Primary,
        }
    }

    /// A hyper-thread request used by Strategy 4.
    pub fn hyper_thread(threads: u32) -> Self {
        PlacementRequest {
            threads,
            mode: SharingMode::Compact,
            slot: SlotPreference::HyperThread,
        }
    }

    /// A TensorFlow-style shared request used by the baseline executor.
    pub fn shared(threads: u32) -> Self {
        PlacementRequest {
            threads,
            mode: SharingMode::Compact,
            slot: SlotPreference::Shared,
        }
    }
}

/// The contexts actually granted to a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Software threads placed.
    pub threads: u32,
    /// Sharing mode the placement was allocated under.
    pub mode: SharingMode,
    /// Cores used, each with the number of this job's contexts on that core.
    pub cores: Vec<(CoreId, u32)>,
    /// Whether this placement rides hyper-thread slots of busy cores.
    pub hyper_thread: bool,
}

impl Placement {
    /// Number of distinct physical cores the job touches.
    pub fn num_cores(&self) -> u32 {
        self.cores.len() as u32
    }

    /// Maximum contexts-per-core of the placement (1 unless oversubscribed).
    pub fn smt_depth(&self) -> u32 {
        self.cores.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    /// Total hardware contexts held.
    pub fn num_contexts(&self) -> u32 {
        self.cores.iter().map(|&(_, n)| n).sum()
    }
}

/// Every core of `topo`, in the order `mode` fills them.
fn fill_order(topo: &Topology, mode: SharingMode) -> impl Iterator<Item = CoreId> {
    let (tiles, cpt) = (topo.tiles, topo.cores_per_tile);
    // Core `tile * cpt + slot`, walked in (outer, inner) order.
    let (outer, inner, outer_stride, inner_stride) = match mode {
        // Pairwise in id order: cores 0,1 share tile 0, etc.
        SharingMode::Compact => (tiles, cpt, cpt, 1),
        // One per tile first: by (index within tile, tile id).
        SharingMode::Scatter => (cpt, tiles, 1, cpt),
    };
    (0..outer)
        .flat_map(move |o| (0..inner).map(move |i| CoreId(o * outer_stride + i * inner_stride)))
}

/// Machine-wide counts over [`CoreMap`]'s per-core context counts.
#[derive(Debug, Clone, Copy)]
struct Tallies {
    /// Cores with no context in use.
    free_cores: u32,
    /// Cores with exactly one context in use.
    single_cores: u32,
    /// Contexts in use across the machine.
    busy_contexts: u32,
}

impl Tallies {
    /// Accounts for one core going from `old` to `new` contexts in use.
    fn change(&mut self, old: u32, new: u32) {
        self.free_cores = self.free_cores - u32::from(old == 0) + u32::from(new == 0);
        self.single_cores = self.single_cores - u32::from(old == 1) + u32::from(new == 1);
        self.busy_contexts = self.busy_contexts - old + new;
    }
}

/// Tracks per-core context occupancy and allocates placements.
///
/// Besides the per-core counts the map keeps the machine-wide tallies the
/// co-run scheduler polls on every decision (free cores, cores with one
/// busy context, busy contexts), updated as each core's count changes, and
/// the order each sharing mode fills cores in, derived once from the
/// topology. Every query is then O(1) and an allocation walks only as far
/// as the cores it takes.
#[derive(Debug, Clone)]
pub struct CoreMap {
    topo: Topology,
    /// Contexts in use on each core, `0..=smt_per_core`.
    used: Vec<u32>,
    tallies: Tallies,
    /// Every core in the order [`SharingMode::Compact`] fills them, then
    /// every core in the order [`SharingMode::Scatter`] does.
    fill_order: [Vec<CoreId>; 2],
}

impl CoreMap {
    /// An empty machine with the given topology.
    pub fn new(topo: Topology) -> Self {
        let cores = topo.num_cores();
        let fill_order = SharingMode::ALL.map(|mode| fill_order(&topo, mode).collect());
        CoreMap {
            topo,
            used: vec![0; cores as usize],
            tallies: Tallies {
                free_cores: cores,
                single_cores: 0,
                busy_contexts: 0,
            },
            fill_order,
        }
    }

    /// Sets the contexts in use on each core of `cores` to `to(used, n)`,
    /// `n` being the core's count in `cores`, keeping the tallies current.
    fn update(&mut self, cores: &[(CoreId, u32)], to: impl Fn(u32, u32) -> u32) {
        // A local copy stays in registers across the loop.
        let mut tallies = self.tallies;
        for &(core, n) in cores {
            let u = &mut self.used[core.0 as usize];
            let new = to(*u, n);
            tallies.change(*u, new);
            *u = new;
        }
        self.tallies = tallies;
    }

    /// The topology this map allocates over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of cores with no contexts in use.
    pub fn free_cores(&self) -> u32 {
        self.tallies.free_cores
    }

    /// Number of completely free contexts across the machine.
    pub fn free_contexts(&self) -> u32 {
        self.topo.num_contexts() - self.tallies.busy_contexts
    }

    /// Number of cores with exactly one busy context (candidates for a
    /// hyper-thread placement). Restricting scavengers to the *second*
    /// context keeps Strategy 4 from piling jobs three and four deep onto a
    /// core, which would throttle the wide op it is trying to ride along.
    pub fn ht_capacity(&self) -> u32 {
        self.tallies.single_cores
    }

    /// Contexts in use on `core`.
    pub fn used_on(&self, core: CoreId) -> u32 {
        self.used[core.0 as usize]
    }

    /// Allocates a placement for `req`, marking the contexts busy.
    ///
    /// * `Primary` requests take whole free cores: compact mode fills tiles
    ///   pairwise in id order (so adjacent threads share a tile); scatter mode
    ///   takes one core per tile first, wrapping to second cores only after
    ///   every tile has one. If the request exceeds the number of free cores,
    ///   extra threads stack as additional SMT contexts on the allocated cores
    ///   (round-robin), which is how a 136-thread op lands on 68 cores.
    /// * `HyperThread` requests take one free context on each of the busiest
    ///   partially-used cores, never touching a fully free core.
    pub fn allocate(&mut self, req: &PlacementRequest) -> Result<Placement, MachineError> {
        if req.threads == 0 {
            return Err(MachineError::InvalidRequest("threads must be >= 1".into()));
        }
        match req.slot {
            SlotPreference::Primary => self.allocate_primary(req),
            SlotPreference::HyperThread => self.allocate_ht(req),
            SlotPreference::Shared => self.allocate_shared(req),
        }
    }

    /// Free cores in the order `mode` fills them.
    fn free_core_order(&self, mode: SharingMode) -> impl Iterator<Item = CoreId> + '_ {
        self.fill_order[mode as usize]
            .iter()
            .copied()
            .filter(|c| self.used[c.0 as usize] == 0)
    }

    fn allocate_primary(&mut self, req: &PlacementRequest) -> Result<Placement, MachineError> {
        let free = self.free_cores();
        if free == 0 {
            return Err(MachineError::PlacementUnsatisfiable {
                requested: req.threads,
                available: 0,
            });
        }
        let ncores = req.threads.min(free);
        // Threads go round-robin over the chosen cores, at most the SMT
        // width deep. More threads than contexts on the free cores are
        // clamped onto the first core (software oversubscription beyond SMT
        // contexts is modelled by the cost model's overhead term, not by the
        // allocator).
        let placed = req.threads.min(ncores * self.topo.smt_per_core);
        let (depth, extra) = (placed / ncores, placed % ncores);
        let mut cores = Vec::with_capacity(ncores as usize);
        cores.extend(
            self.free_core_order(req.mode)
                .take(ncores as usize)
                .zip(0..)
                .map(|(core, i)| (core, depth + u32::from(i < extra))),
        );
        cores[0].1 += req.threads - placed;
        let smt = self.topo.smt_per_core;
        self.update(&cores, |u, n| (u + n).min(smt));
        Ok(Placement {
            threads: req.threads,
            mode: req.mode,
            cores,
            hyper_thread: false,
        })
    }

    fn allocate_ht(&mut self, req: &PlacementRequest) -> Result<Placement, MachineError> {
        let available = self.ht_capacity();
        if available < req.threads {
            return Err(MachineError::PlacementUnsatisfiable {
                requested: req.threads,
                available,
            });
        }
        // The first `threads` cores, in id order, holding one context.
        let mut cores = Vec::with_capacity(req.threads as usize);
        cores.extend(
            (0..self.topo.num_cores())
                .map(CoreId)
                .filter(|c| self.used[c.0 as usize] == 1)
                .take(req.threads as usize)
                .map(|c| (c, 1)),
        );
        self.update(&cores, |u, n| u + n);
        Ok(Placement {
            threads: req.threads,
            mode: req.mode,
            cores,
            hyper_thread: true,
        })
    }

    fn allocate_shared(&mut self, req: &PlacementRequest) -> Result<Placement, MachineError> {
        // Least-loaded cores first, core id as tiebreak (deterministic).
        let mut order: Vec<CoreId> = (0..self.topo.num_cores()).map(CoreId).collect();
        order.sort_by_key(|c| (self.used[c.0 as usize], c.0));
        let mut counts: Vec<u32> = vec![0; order.len()];
        let mut remaining = req.threads;
        'outer: loop {
            let mut placed_any = false;
            for (i, core) in order.iter().enumerate() {
                if remaining == 0 {
                    break 'outer;
                }
                let occupied = self.used[core.0 as usize] + counts[i];
                if occupied < self.topo.smt_per_core {
                    counts[i] += 1;
                    remaining -= 1;
                    placed_any = true;
                }
            }
            if !placed_any {
                // Machine contexts exhausted: the surplus threads timeshare;
                // the cost model's overhead term accounts for them, the
                // allocator only records the contexts actually held.
                break;
            }
        }
        let cores: Vec<(CoreId, u32)> = order
            .iter()
            .zip(&counts)
            .filter(|&(_, &n)| n > 0)
            .map(|(&c, &n)| (c, n))
            .collect();
        if cores.is_empty() {
            return Err(MachineError::PlacementUnsatisfiable {
                requested: req.threads,
                available: 0,
            });
        }
        self.update(&cores, |u, n| u + n);
        Ok(Placement {
            threads: req.threads,
            mode: req.mode,
            cores,
            hyper_thread: false,
        })
    }

    /// Returns a placement's contexts to the free pool.
    pub fn release(&mut self, placement: &Placement) {
        self.update(&placement.cores, |u, n| u.saturating_sub(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn knl_map() -> CoreMap {
        CoreMap::new(Topology::knl())
    }

    #[test]
    fn compact_fills_tiles_pairwise() {
        let mut m = knl_map();
        let p = m
            .allocate(&PlacementRequest::primary(4, SharingMode::Compact))
            .unwrap();
        let cores: Vec<u32> = p.cores.iter().map(|&(c, _)| c.0).collect();
        assert_eq!(cores, vec![0, 1, 2, 3]);
        assert_eq!(p.smt_depth(), 1);
    }

    #[test]
    fn scatter_spreads_one_per_tile() {
        let mut m = knl_map();
        let p = m
            .allocate(&PlacementRequest::primary(4, SharingMode::Scatter))
            .unwrap();
        let cores: Vec<u32> = p.cores.iter().map(|&(c, _)| c.0).collect();
        // One core per tile: even core ids first.
        assert_eq!(cores, vec![0, 2, 4, 6]);
    }

    #[test]
    fn scatter_wraps_to_second_cores_after_34() {
        let mut m = knl_map();
        let p = m
            .allocate(&PlacementRequest::primary(40, SharingMode::Scatter))
            .unwrap();
        let cores: Vec<u32> = p.cores.iter().map(|&(c, _)| c.0).collect();
        assert_eq!(cores.len(), 40);
        // First 34 are the even (first-in-tile) cores.
        assert!(cores[..34].iter().all(|c| c % 2 == 0));
        // The remainder are second-in-tile cores.
        assert!(cores[34..].iter().all(|c| c % 2 == 1));
    }

    #[test]
    fn oversubscribed_request_stacks_smt() {
        let mut m = knl_map();
        let p = m
            .allocate(&PlacementRequest::primary(136, SharingMode::Compact))
            .unwrap();
        assert_eq!(p.num_cores(), 68);
        assert_eq!(p.smt_depth(), 2);
        assert_eq!(p.num_contexts(), 136);
        assert_eq!(m.free_cores(), 0);
    }

    #[test]
    fn ht_allocation_uses_busy_cores_only() {
        let mut m = knl_map();
        let big = m
            .allocate(&PlacementRequest::primary(68, SharingMode::Compact))
            .unwrap();
        assert_eq!(m.free_cores(), 0);
        let small = m.allocate(&PlacementRequest::hyper_thread(8)).unwrap();
        assert!(small.hyper_thread);
        assert_eq!(small.num_cores(), 8);
        for &(c, _) in &small.cores {
            assert_eq!(m.used_on(c), 2);
        }
        m.release(&small);
        m.release(&big);
        assert_eq!(m.free_cores(), 68);
    }

    #[test]
    fn ht_allocation_fails_on_empty_machine() {
        let mut m = knl_map();
        assert!(m.allocate(&PlacementRequest::hyper_thread(1)).is_err());
    }

    #[test]
    fn release_restores_capacity() {
        let mut m = knl_map();
        let p1 = m
            .allocate(&PlacementRequest::primary(34, SharingMode::Scatter))
            .unwrap();
        let p2 = m
            .allocate(&PlacementRequest::primary(34, SharingMode::Scatter))
            .unwrap();
        assert_eq!(m.free_cores(), 0);
        m.release(&p1);
        m.release(&p2);
        assert_eq!(m.free_cores(), 68);
        assert_eq!(m.free_contexts(), 272);
    }

    #[test]
    fn zero_threads_rejected() {
        let mut m = knl_map();
        assert!(m
            .allocate(&PlacementRequest::primary(0, SharingMode::Compact))
            .is_err());
    }

    #[test]
    fn two_jobs_partition_the_machine() {
        let mut m = knl_map();
        let a = m
            .allocate(&PlacementRequest::primary(34, SharingMode::Compact))
            .unwrap();
        let b = m
            .allocate(&PlacementRequest::primary(34, SharingMode::Compact))
            .unwrap();
        let mut all: Vec<u32> = a
            .cores
            .iter()
            .chain(b.cores.iter())
            .map(|&(c, _)| c.0)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 68, "no core is shared between the two jobs");
    }

    /// Reference primary allocation: the original sort-and-loop
    /// formulation, kept as the oracle `CoreMap::allocate_primary` must
    /// match. Returns the cores it would grant, or `None` when no core is
    /// free.
    fn reference_primary(map: &CoreMap, req: &PlacementRequest) -> Option<Vec<(CoreId, u32)>> {
        let mut order: Vec<CoreId> = (0..map.topo.num_cores())
            .map(CoreId)
            .filter(|c| map.used[c.0 as usize] == 0)
            .collect();
        if req.mode == SharingMode::Scatter {
            let cpt = map.topo.cores_per_tile;
            order.sort_by_key(|c| (c.0 % cpt, c.0 / cpt));
        }
        if order.is_empty() {
            return None;
        }
        let ncores = (req.threads as usize).min(order.len());
        let mut counts = vec![0u32; ncores];
        let mut remaining = req.threads;
        'outer: for _ in 0..map.topo.smt_per_core {
            for c in counts.iter_mut() {
                if remaining == 0 {
                    break 'outer;
                }
                *c += 1;
                remaining -= 1;
            }
        }
        counts[0] += remaining;
        Some(order[..ncores].iter().copied().zip(counts).collect())
    }

    fn arb_request() -> impl Strategy<Value = PlacementRequest> {
        prop_oneof![
            (1u32..=80).prop_map(|t| PlacementRequest::primary(t, SharingMode::Compact)),
            (1u32..=80).prop_map(|t| PlacementRequest::primary(t, SharingMode::Scatter)),
            (1u32..=40).prop_map(PlacementRequest::hyper_thread),
            (1u32..=160).prop_map(PlacementRequest::shared),
        ]
    }

    /// Free cores in `mode`'s fill order, rebuilt by walking the tiles on
    /// every call: the formulation the precomputed orders replace.
    fn scanned_fill_order(map: &CoreMap, mode: SharingMode) -> Vec<CoreId> {
        let (tiles, cpt) = (map.topo.tiles, map.topo.cores_per_tile);
        let walk: Vec<u32> = match mode {
            SharingMode::Compact => (0..tiles)
                .flat_map(|t| (0..cpt).map(move |i| t * cpt + i))
                .collect(),
            SharingMode::Scatter => (0..cpt)
                .flat_map(|i| (0..tiles).map(move |t| t * cpt + i))
                .collect(),
        };
        walk.into_iter()
            .filter(|&c| map.used[c as usize] == 0)
            .map(CoreId)
            .collect()
    }

    /// Checks every incremental tally and order of `map` against a scan of
    /// its per-core counts.
    fn assert_tallies_match_the_scan(map: &CoreMap) -> Result<(), TestCaseError> {
        let count = |want: u32| map.used.iter().filter(|&&u| u == want).count() as u32;
        prop_assert_eq!(map.free_cores(), count(0));
        prop_assert_eq!(map.ht_capacity(), count(1));
        let free_contexts: u32 = map.used.iter().map(|&u| map.topo.smt_per_core - u).sum();
        prop_assert_eq!(map.free_contexts(), free_contexts);
        for mode in SharingMode::ALL {
            let order: Vec<CoreId> = map.free_core_order(mode).collect();
            prop_assert_eq!(order, scanned_fill_order(map, mode), "{:?} order", mode);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn incremental_tallies_match_the_scan(
            knl in proptest::sample::select(vec![true, false]),
            steps in proptest::collection::vec((arb_request(), 0usize..3), 1..60),
        ) {
            let topo = if knl { Topology::knl() } else { Topology::tiny(5) };
            let mut map = CoreMap::new(topo);
            let mut held: Vec<Placement> = Vec::new();
            assert_tallies_match_the_scan(&map)?;
            for (req, release) in steps {
                if release == 0 && !held.is_empty() {
                    let p = held.remove(held.len() / 3);
                    map.release(&p);
                    assert_tallies_match_the_scan(&map)?;
                }
                // A hyper-thread request takes the lowest-numbered cores
                // holding one context, and fails naming how many there are.
                let riders: Vec<CoreId> = (0..map.topo.num_cores())
                    .map(CoreId)
                    .filter(|c| map.used[c.0 as usize] == 1)
                    .collect();
                match map.allocate(&req) {
                    Ok(p) => {
                        if req.slot == SlotPreference::HyperThread {
                            let want: Vec<(CoreId, u32)> = riders
                                .iter()
                                .take(req.threads as usize)
                                .map(|&c| (c, 1))
                                .collect();
                            prop_assert_eq!(&p.cores, &want);
                        }
                        held.push(p);
                    }
                    Err(MachineError::PlacementUnsatisfiable { available, .. })
                        if req.slot == SlotPreference::HyperThread =>
                    {
                        prop_assert_eq!(available as usize, riders.len());
                    }
                    Err(_) => {}
                }
                assert_tallies_match_the_scan(&map)?;
            }
            for p in held.drain(..) {
                map.release(&p);
                assert_tallies_match_the_scan(&map)?;
            }
            prop_assert_eq!(map.free_cores(), map.topo.num_cores());
        }

        #[test]
        fn primary_allocation_matches_the_reference(
            knl in proptest::sample::select(vec![true, false]),
            steps in proptest::collection::vec((arb_request(), 0usize..4), 1..40),
        ) {
            // KNL, and an odd shape: 5 tiles of 3 cores, 4 contexts each.
            let topo = if knl {
                Topology::knl()
            } else {
                Topology { tiles: 5, cores_per_tile: 3, smt_per_core: 4 }
            };
            let mut map = CoreMap::new(topo);
            let mut held: Vec<Placement> = Vec::new();
            for (req, release) in steps {
                // Free a held placement now and then, so allocations land on
                // fragmented machines.
                if release == 0 && !held.is_empty() {
                    let p = held.remove(held.len() / 2);
                    map.release(&p);
                }
                let want = (req.slot == SlotPreference::Primary)
                    .then(|| reference_primary(&map, &req));
                let mut used = map.used.clone();
                match map.allocate(&req) {
                    Ok(p) => {
                        if let Some(want) = want {
                            prop_assert_eq!(Some(&p.cores), want.as_ref());
                            for &(core, n) in &p.cores {
                                let u = &mut used[core.0 as usize];
                                *u = (*u + n).min(map.topo.smt_per_core);
                            }
                            prop_assert_eq!(&map.used, &used);
                        }
                        held.push(p);
                    }
                    Err(_) => {
                        if let Some(want) = want {
                            prop_assert_eq!(want, None);
                        }
                    }
                }
            }
        }
    }
}
