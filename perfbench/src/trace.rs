//! In-memory spans around the calls into each layer, and the self-time
//! breakdown they add up to.
//!
//! A span records its name (`<layer>.<what>`), start, end, parent and,
//! for diagnosis requests, the request id its spans share.  A disabled
//! tracer runs the wrapped call and records nothing.  The work only a
//! traced pass does (the stage-by-stage synthesis and the in-process
//! replays) sits behind an explicit `Tracer::enabled` test.
//!
//! Self time is a span's duration minus the part its children cover.
//! Spans recorded on a concurrent lane (one client connection of several)
//! carry the lane's share of the wall clock as their weight, so the
//! weighted self times of every span still add up to the root's duration:
//! what no span covers is the root's own self time, the named remainder
//! `bench.unattributed`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
    /// Share of the wall clock this span's lane stands for (1 on the main
    /// thread, 1/n on each of n concurrent lanes).
    pub weight: f64,
}

impl Span {
    fn weighted_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * self.weight
    }
}

/// The span recorder of one lane.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    weight: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            weight: 1.0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_with(name, None, f)
    }

    /// Runs `f` inside a span that belongs to diagnosis request `request`.
    pub fn request_span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.span_with(name, Some(request), f)
    }

    fn span_with<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            weight: self.weight,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Records a phase that a layer timed itself (campaign telemetry) as a
    /// child of the innermost open span.  Consecutive calls lay the phases
    /// end to end from the parent's start.
    pub fn derived(&mut self, name: &'static str, duration_ns: u64) {
        if !self.enabled || duration_ns == 0 {
            return;
        }
        let Some(&parent) = self.open.last() else {
            return;
        };
        let start_ns = self
            .spans
            .iter()
            .skip(parent + 1)
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            request: None,
            weight: self.weight,
        });
    }

    /// A recorder for one of `lanes` concurrent lanes started under the
    /// innermost open span; hand it back with [`Tracer::adopt`].
    pub fn fork(&self, lanes: usize) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            weight: self.weight / lanes.max(1) as f64,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Takes over a forked lane's spans, hanging its top-level spans under
    /// the innermost open span.
    pub fn adopt(&mut self, lane: Tracer) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        for mut span in lane.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// The self-time breakdown of everything recorded.
    pub fn breakdown(&self) -> Breakdown {
        let mut self_ns: Vec<f64> = self.spans.iter().map(Span::weighted_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= span.weighted_ns();
            }
        }
        let mut breakdown = Breakdown::default();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let name = if span.parent.is_none() {
                breakdown.wall_ns += span.weighted_ns();
                "bench.unattributed"
            } else {
                span.name
            };
            *breakdown.self_ns.entry(name).or_default() += own;
            *breakdown.inclusive_ns.entry(span.name).or_default() += span.weighted_ns();
        }
        breakdown
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let request = span.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request},\"weight\":{}}}",
                span.name, span.start_ns, span.end_ns, span.weight
            )?;
        }
        out.flush()
    }
}

/// Weighted self and inclusive times per span name.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Duration of the top-level spans (the traced wall time).
    pub wall_ns: f64,
    self_ns: BTreeMap<&'static str, f64>,
    inclusive_ns: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0.0) / 1e6
    }

    pub fn inclusive_ms(&self, name: &str) -> f64 {
        self.inclusive_ns.get(name).copied().unwrap_or(0.0) / 1e6
    }

    /// Self time summed over every span of `layer` (the name prefix).
    pub fn layer_self_ms(&self, layer: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, ns)| ns)
            .sum::<f64>()
            / 1e6
    }

    pub fn wall_ms(&self) -> f64 {
        self.wall_ns / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut tr = Tracer::new(true);
        tr.span("bench.run", |tr| {
            tr.span("encode.assign", |tr| {
                busy(2);
                tr.span("logic.minimize", |_| busy(3));
            });
            tr.span("testsim.campaign", |tr| {
                busy(4);
                tr.derived("testsim.fault_eval", 1_000_000);
            });
        });
        let b = tr.breakdown();
        let total: f64 = ["bench", "encode", "logic", "testsim"]
            .iter()
            .map(|layer| b.layer_self_ms(layer))
            .sum();
        assert!((total - b.wall_ms()).abs() < 1e-6);
        assert!(b.self_ms("logic.minimize") >= 3.0);
        assert!((b.self_ms("testsim.fault_eval") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_lanes_share_the_wall_clock() {
        let mut tr = Tracer::new(true);
        tr.span("bench.run", |tr| {
            tr.span("serve.queries", |tr| {
                let lanes: Vec<Tracer> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..2)
                        .map(|_| {
                            let mut lane = tr.fork(2);
                            scope.spawn(move || {
                                lane.span("serve.round_trip", |_| busy(5));
                                lane
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for lane in lanes {
                    tr.adopt(lane);
                }
            });
        });
        let b = tr.breakdown();
        let total = b.layer_self_ms("serve") + b.layer_self_ms("bench");
        assert!((total - b.wall_ms()).abs() < 1e-6);
        assert!(b.self_ms("serve.round_trip") >= 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("bench.run", |_| 7), 7);
        assert_eq!(tr.breakdown().wall_ms(), 0.0);
    }
}
