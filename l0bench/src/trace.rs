//! In-memory span tracing around the calls the benchmark makes into
//! each layer, plus a forwarding [`MemoryModel`] that aggregates the
//! memory-model calls of one simulation.
//!
//! A span per memory access would not fit in memory (`long_stream`
//! makes tens of millions of them), so memory-model calls are counted
//! and their durations summed per trait method, and the totals are
//! attached to the enclosing `sim.simulate` span as child time.

use std::cell::Cell;
use std::time::{Duration, Instant};
use vliw_machine::{ClusterId, NetLoad};
use vliw_mem::{MemReply, MemRequest, MemStats, MemoryModel};

/// Calls into one memory model, aggregated per trait method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCalls {
    /// `access` calls and their summed duration.
    pub access_calls: u64,
    pub access_ns: u64,
    /// `retire` calls and their summed duration.
    pub retire_calls: u64,
    pub retire_ns: u64,
    /// `state_digest` calls and their summed duration (the
    /// fast-forward detector's cost inside the model).
    pub digest_calls: u64,
    pub digest_ns: u64,
    /// `advance_clock` calls (one per fast-forward batch).
    pub advance_calls: u64,
    /// `invalidate_buffers` calls.
    pub invalidate_calls: u64,
}

impl MemCalls {
    /// Time spent inside the model: the child coverage of the
    /// enclosing `sim.simulate` span.
    pub fn child_ns(&self) -> u64 {
        self.access_ns + self.retire_ns + self.digest_ns
    }

    /// Adds another aggregate.
    pub fn merge(&mut self, o: &MemCalls) {
        self.access_calls += o.access_calls;
        self.access_ns += o.access_ns;
        self.retire_calls += o.retire_calls;
        self.retire_ns += o.retire_ns;
        self.digest_calls += o.digest_calls;
        self.digest_ns += o.digest_ns;
        self.advance_calls += o.advance_calls;
        self.invalidate_calls += o.invalidate_calls;
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A [`MemoryModel`] that forwards every trait method to `inner` and
/// aggregates the calls. It must be timing-transparent: a simulation
/// through it returns the identical `SimResult`, fast-forward counts
/// included, which the tests pin.
pub struct TracedModel {
    inner: Box<dyn MemoryModel>,
    // `state_digest` takes `&self`, so the counters are cells.
    calls: Cell<MemCalls>,
}

impl TracedModel {
    /// Wraps a freshly built model.
    pub fn new(inner: Box<dyn MemoryModel>) -> Self {
        TracedModel {
            inner,
            calls: Cell::new(MemCalls::default()),
        }
    }

    /// The calls aggregated so far.
    pub fn calls(&self) -> MemCalls {
        self.calls.get()
    }

    fn record(&self, f: impl FnOnce(&mut MemCalls)) {
        let mut c = self.calls.get();
        f(&mut c);
        self.calls.set(c);
    }
}

impl MemoryModel for TracedModel {
    fn access(&mut self, req: &MemRequest) -> MemReply {
        let t = Instant::now();
        let reply = self.inner.access(req);
        let ns = nanos(t.elapsed());
        self.record(|c| {
            c.access_calls += 1;
            c.access_ns += ns;
        });
        reply
    }

    fn invalidate_buffers(&mut self, cluster: ClusterId, cycle: u64) {
        self.record(|c| c.invalidate_calls += 1);
        self.inner.invalidate_buffers(cluster, cycle);
    }

    fn retire(&mut self, cycle: u64) {
        let t = Instant::now();
        self.inner.retire(cycle);
        let ns = nanos(t.elapsed());
        self.record(|c| {
            c.retire_calls += 1;
            c.retire_ns += ns;
        });
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn network_load(&self) -> Option<NetLoad> {
        self.inner.network_load()
    }

    fn supports_fast_forward(&self) -> bool {
        self.inner.supports_fast_forward()
    }

    fn state_digest(&self, base_cycle: u64) -> u64 {
        let t = Instant::now();
        let digest = self.inner.state_digest(base_cycle);
        let ns = nanos(t.elapsed());
        self.record(|c| {
            c.digest_calls += 1;
            c.digest_ns += ns;
        });
        digest
    }

    fn advance_clock(&mut self, delta: u64) {
        self.record(|c| c.advance_calls += 1);
        self.inner.advance_clock(delta);
    }
}

/// One traced interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name (`workload`, `item`, `sched.compile`,
    /// `sim.simulate`, `verify.check`, `svc.replay`).
    pub name: &'static str,
    /// Identifier shared by every span of one item.
    pub item: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Memory-model calls aggregated into this span (simulations only).
    pub mem: Option<MemCalls>,
}

/// Keeps spans in memory until the benchmark writes them out.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, item: u64, parent: Option<usize>) -> usize {
        let now = nanos(self.epoch.elapsed());
        self.spans.push(Span {
            name,
            item,
            parent,
            start_ns: now,
            end_ns: now,
            mem: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = nanos(self.epoch.elapsed());
    }

    /// Attaches aggregated memory-model calls to span `id`.
    pub fn attach_mem(&mut self, id: usize, calls: MemCalls) {
        self.spans[id].mem = Some(calls);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of self time over every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_ns(&self.spans, i))
            .sum();
        ns as f64 * 1e-9
    }

    /// Sum of durations over every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }
}

/// A span's self time: its duration minus the part of it that child
/// spans cover (overlapping children counted once) minus the time of
/// memory-model calls aggregated into it.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = s.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    let aggregated = s.mem.map_or(0, |m| m.child_ns());
    (s.end_ns - s.start_ns).saturating_sub(covered + aggregated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            item: 0,
            parent,
            start_ns,
            end_ns,
            mem: None,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("item", None, 0, 100),
            // Two overlapping children cover [10, 50) once: 40 ns.
            span("sched.compile", Some(0), 10, 40),
            span("sim.simulate", Some(0), 30, 50),
            // A child reaching past its parent is clipped to it.
            span("verify.check", Some(0), 90, 120),
            // A grandchild is not the parent's child.
            span("x", Some(1), 10, 20),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 30 - 10);
        assert_eq!(self_ns(&spans, 2), 20);
    }

    #[test]
    fn self_time_subtracts_aggregated_memory_calls() {
        let mut s = span("sim.simulate", None, 0, 1000);
        s.mem = Some(MemCalls {
            access_calls: 10,
            access_ns: 300,
            retire_calls: 1,
            retire_ns: 50,
            digest_calls: 2,
            digest_ns: 100,
            ..Default::default()
        });
        assert_eq!(self_ns(&[s], 0), 550);
    }

    #[test]
    fn tracer_sums_self_time_by_name() {
        let mut t = Tracer::default();
        let root = t.open("item", 1, None);
        let c = t.open("sched.compile", 1, Some(root));
        t.close(c);
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].item, 1);
        assert!(t.total_s("item") >= t.total_s("sched.compile"));
        assert!(t.self_s("item") <= t.total_s("item"));
    }
}
