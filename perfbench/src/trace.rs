//! The benchmark's own tracing: per-layer busy time and counts, recorded
//! around calls into each layer's public functions. Nothing here reaches
//! inside the program.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer totals, shared by every thread of a traced run.
#[derive(Default)]
pub struct Layers(Mutex<BTreeMap<&'static str, f64>>);

impl Layers {
    fn with<T>(&self, f: impl FnOnce(&mut BTreeMap<&'static str, f64>) -> T) -> T {
        f(&mut self.0.lock().expect("layer totals lock poisoned"))
    }

    pub fn add(&self, key: &'static str, v: f64) {
        self.with(|m| *m.entry(key).or_default() += v);
    }

    pub fn max(&self, key: &'static str, v: f64) {
        self.with(|m| {
            let e = m.entry(key).or_default();
            *e = e.max(v);
        });
    }

    pub fn get(&self, key: &str) -> f64 {
        self.with(|m| m.get(key).copied().unwrap_or(0.0))
    }

    /// `num / den`, or 0 when the layer never ran.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            self.get(num) / d
        } else {
            0.0
        }
    }

    /// Times `f`, adding the seconds to `key`.
    pub fn time<T>(&self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(key, t.elapsed().as_secs_f64());
        out
    }
}

/// The top-level spans of one traced operation: each span's seconds go
/// to its layer keys and to the operation's attributed total, so the
/// operation's unattributed share is its wall time minus that total.
pub struct Spans<'a> {
    pub layers: &'a Layers,
    pub attributed: f64,
}

impl<'a> Spans<'a> {
    pub fn new(layers: &'a Layers) -> Self {
        Spans {
            layers,
            attributed: 0.0,
        }
    }

    pub fn run<T>(&mut self, keys: &[&'static str], f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        for k in keys {
            self.layers.add(k, s);
        }
        self.attributed += s;
        out
    }
}
