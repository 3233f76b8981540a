//! # nnrt-obs — deterministic observability for the fleet
//!
//! A unified metrics registry and structured event trace, threaded through
//! every subsystem of the serving stack (fleet, profiler, RPC server,
//! journal, GPU runtime). The design constraint that shapes everything here
//! is the repository's determinism contract: same-seed fleet runs are
//! byte-compared in CI, across profiling worker counts and with durability
//! on or off. Observability must never perturb that — and its *own* output
//! must obey the same contract wherever it can.
//!
//! The resolution is **dual clocking**. Every series and every event is
//! tagged with the [`Clock`] that drives it:
//!
//! * [`Clock::Sim`] — advanced by the fleet's simulated clock. Sim-domain
//!   metrics and events are pure functions of `(config, seed)`: they are
//!   byte-identical across runs, across `profile_threads` worker counts,
//!   and between durable and in-memory fault-free runs. These are the
//!   series embedded in the final `FleetReport`.
//! * [`Clock::Wall`] — advanced by real time or driven by real I/O:
//!   journal appends, flush cuts, RPC request latencies, and the RPC
//!   server's live-load gauges (`nnrt_rpc_connections`,
//!   `nnrt_rpc_outbox_bytes`). These are useful
//!   live but inherently nondeterministic, so they are segregated — every
//!   exposition and export can filter by clock domain, and the
//!   byte-compared surfaces only ever include the sim domain.
//!
//! The registry ([`Registry`]) holds counters, gauges, and fixed-bucket
//! histograms (bucket counts, sum and count), keyed by `(name, labels)`.
//! Events ([`Event`]) live in a bounded per-domain ring ([`EventBuf`]),
//! exportable as JSONL or a merged chrome-trace. [`Obs`] wraps both behind
//! mutexes so a fleet, its RPC server, and its CLI introspection can share
//! one handle (`Arc<Obs>`); when constructed with [`ObsConfig::off`] every
//! recording call is a no-op and the fleet is observationally identical to
//! one built before this crate existed.

#![warn(missing_docs)]

mod encode;
mod events;
mod registry;

pub use encode::{parse_exposition, Exposition, Sample};
pub use events::{Event, EventBuf, EventKind};
pub use registry::{Registry, DEFAULT_BUCKETS};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Which clock drives a series or event. See the crate docs for the
/// determinism contract attached to each domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Clock {
    /// The fleet's simulated clock: deterministic, byte-compared in CI.
    Sim,
    /// Real time / real I/O: live-only, never byte-compared.
    Wall,
}

impl Clock {
    /// Stable lowercase label value used in expositions and exports.
    pub fn label(&self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        }
    }
}

/// Per-domain event ring capacity; the oldest events are dropped (and
/// counted) once a domain exceeds it.
pub const DEFAULT_EVENT_CAPACITY: usize = 8192;

/// How much observability to record. Attached to the fleet's config; the
/// default records everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record metrics and events at all. When `false`, every recording
    /// call on [`Obs`] is a no-op and expositions are empty.
    pub enabled: bool,
}

impl ObsConfig {
    /// Full instrumentation (the default).
    pub fn on() -> Self {
        ObsConfig { enabled: true }
    }

    /// No instrumentation: every recording call is a no-op.
    pub fn off() -> Self {
        ObsConfig { enabled: false }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::on()
    }
}

/// Shared observability handle: a metrics registry plus an event ring
/// behind mutexes, so the single-threaded fleet, the multi-threaded RPC
/// server, and introspection requests can all record and read through one
/// `Arc<Obs>`.
#[derive(Debug)]
pub struct Obs {
    config: ObsConfig,
    registry: Mutex<Registry>,
    events: Mutex<EventBuf>,
}

impl Obs {
    /// A handle recording per `config`.
    pub fn new(config: ObsConfig) -> Self {
        Obs {
            config,
            registry: Mutex::new(Registry::new()),
            events: Mutex::new(EventBuf::new(DEFAULT_EVENT_CAPACITY)),
        }
    }

    /// A disabled handle (every call is a no-op).
    pub fn disabled() -> Self {
        Obs::new(ObsConfig::off())
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The config this handle was built with.
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// Adds `v` to the counter `(clock, name, labels)`, creating it at zero.
    pub fn counter_add(&self, clock: Clock, name: &str, labels: &[(&str, &str)], v: u64) {
        if self.config.enabled {
            self.registry.lock().counter_add(clock, name, labels, v);
        }
    }

    /// Sets the gauge `(clock, name, labels)` to `v`.
    pub fn gauge_set(&self, clock: Clock, name: &str, labels: &[(&str, &str)], v: f64) {
        if self.config.enabled {
            self.registry.lock().gauge_set(clock, name, labels, v);
        }
    }

    /// Records `v` into the histogram `(clock, name, labels)`.
    pub fn observe(&self, clock: Clock, name: &str, labels: &[(&str, &str)], v: f64) {
        if self.config.enabled {
            self.registry.lock().observe(clock, name, labels, v);
        }
    }

    /// Current value of a counter (0 if absent or disabled).
    pub fn counter(&self, clock: Clock, name: &str, labels: &[(&str, &str)]) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        self.registry.lock().counter(clock, name, labels)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, clock: Clock, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        if !self.config.enabled {
            return None;
        }
        self.registry.lock().gauge(clock, name, labels)
    }

    /// Appends an event to its clock domain's ring and returns its
    /// per-domain sequence number (`None` when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn event(
        &self,
        clock: Clock,
        kind: EventKind,
        at: f64,
        job: Option<u64>,
        node: Option<u32>,
        detail: impl Into<String>,
    ) -> Option<u64> {
        if !self.config.enabled {
            return None;
        }
        Some(
            self.events
                .lock()
                .push(clock, kind, at, job, node, detail.into()),
        )
    }

    /// Prometheus-style text exposition of every series in `filter`'s
    /// domain (or both domains when `None`). Empty string when disabled.
    pub fn expose(&self, filter: Option<Clock>) -> String {
        if !self.config.enabled {
            return String::new();
        }
        self.registry.lock().expose(filter)
    }

    /// The retained events of `filter`'s domain (or both, sim first), in
    /// per-domain sequence order.
    pub fn events_snapshot(&self, filter: Option<Clock>) -> Vec<Event> {
        if !self.config.enabled {
            return Vec::new();
        }
        self.events.lock().snapshot(filter)
    }

    /// The retained events as JSONL (one compact JSON object per line).
    pub fn events_jsonl(&self, filter: Option<Clock>) -> String {
        events::to_jsonl(&self.events_snapshot(filter))
    }

    /// The retained events as a merged chrome-trace (`traceEvents` JSON),
    /// loadable in `chrome://tracing` / Perfetto alongside the per-backend
    /// step traces.
    pub fn chrome_trace(&self, filter: Option<Clock>) -> String {
        events::to_chrome_trace(&self.events_snapshot(filter))
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.counter_add(Clock::Sim, "c", &[], 3);
        obs.gauge_set(Clock::Sim, "g", &[], 1.0);
        obs.observe(Clock::Wall, "h", &[], 0.5);
        assert_eq!(
            obs.event(Clock::Sim, EventKind::Admit, 0.0, None, None, ""),
            None
        );
        assert_eq!(obs.counter(Clock::Sim, "c", &[]), 0);
        assert_eq!(obs.expose(None), "");
        assert!(obs.events_snapshot(None).is_empty());
    }

    #[test]
    fn enabled_handle_round_trips() {
        let obs = Obs::default();
        obs.counter_add(Clock::Sim, "nnrt_jobs_completed_total", &[], 2);
        obs.gauge_set(Clock::Sim, "nnrt_queue_depth", &[], 4.0);
        assert_eq!(obs.counter(Clock::Sim, "nnrt_jobs_completed_total", &[]), 2);
        assert_eq!(obs.gauge(Clock::Sim, "nnrt_queue_depth", &[]), Some(4.0));
        let seq0 = obs.event(Clock::Sim, EventKind::Admit, 0.0, Some(1), None, "j");
        let seq1 = obs.event(Clock::Sim, EventKind::Place, 1.0, Some(1), Some(0), "");
        assert_eq!((seq0, seq1), (Some(0), Some(1)));
        assert_eq!(obs.events_snapshot(Some(Clock::Sim)).len(), 2);
        assert!(obs.expose(Some(Clock::Sim)).contains("nnrt_queue_depth"));
    }
}
