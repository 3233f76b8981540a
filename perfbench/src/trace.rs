//! Spans the benchmark records around its own calls into each crate.
//!
//! Every span wraps one call into a crate's public function and nothing the
//! benchmark does itself, and no span encloses another, so a span's self
//! time is its whole duration. Spans are aggregated in memory per layer
//! (busy time and call count) and read out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Default, Clone, Copy)]
pub struct Busy {
    pub secs: f64,
    pub calls: u64,
}

/// Per-layer busy time. A disabled tracer calls straight through, so the
/// untraced and traced paths run the same code.
pub struct Tracer {
    enabled: bool,
    layers: BTreeMap<&'static str, Busy>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            layers: BTreeMap::new(),
        }
    }

    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed().as_secs_f64());
        out
    }

    /// Records a span timed by the caller (for calls whose latency the
    /// benchmark measures anyway).
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        if self.enabled {
            let b = self.layers.entry(layer).or_default();
            b.secs += secs;
            b.calls += 1;
        }
    }

    pub fn get(&self, layer: &str) -> Busy {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Sum of every layer's self time.
    pub fn total_secs(&self) -> f64 {
        self.layers.values().map(|b| b.secs).sum()
    }
}
