//! Span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes: the
//! controller tick, the tick's phase times (read from the controller's
//! result fields and laid end to end inside the tick, since only their
//! totals are visible from outside), and each replayed layer call. Spans
//! of one tick share its id. The buffer is sized before the run and never
//! grows; spans beyond its capacity are counted, not stored.

use crate::json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tick: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the recorder's epoch.
    pub t0: u64,
    pub t1: u64,
    /// Phase spans carry aggregated totals rather than one interval.
    pub aggregated: bool,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.t1 - self.t0) as f64 * 1e-3
    }
}

/// Fixed-capacity span buffer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: usize,
}

impl Tracer {
    /// A recorder holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[t0, t1)`; returns its index, or `None` when full.
    pub fn record(
        &mut self,
        name: &'static str,
        tick: u32,
        parent: Option<u32>,
        t0: Instant,
        t1: Instant,
    ) -> Option<u32> {
        let (a, b) = (self.ns(t0), self.ns(t1));
        self.push(Span {
            name,
            tick,
            parent,
            t0: a,
            t1: b,
            aggregated: false,
        })
    }

    /// Opens a span at the current time; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, tick: u32, parent: Option<u32>) -> Option<u32> {
        let now = Instant::now();
        self.record(name, tick, parent, now, now)
    }

    /// Ends a span opened by [`Tracer::open`] at the current time.
    pub fn close(&mut self, span: Option<u32>) {
        let now = self.ns(Instant::now());
        if let Some(i) = span {
            self.spans[i as usize].t1 = now;
        }
    }

    /// Records the phase totals `(name, seconds)` of a tick as child spans
    /// laid end to end from the tick's start.
    pub fn record_phases(&mut self, tick_span: Option<u32>, phases: &[(&'static str, f64)]) {
        let Some(parent) = tick_span else { return };
        let tick = self.spans[parent as usize];
        let mut t = tick.t0;
        for &(name, secs) in phases {
            let end = (t + (secs * 1e9) as u64).min(tick.t1);
            self.push(Span {
                name,
                tick: tick.tick,
                parent: Some(parent),
                t0: t,
                t1: end,
                aggregated: true,
            });
            t = end;
        }
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        tick: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.record(name, tick, parent, t0, t1);
        r
    }

    fn push(&mut self, s: Span) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(s);
        Some((self.spans.len() - 1) as u32)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time (µs) of span `i`: its duration minus the part of its
    /// interval covered by its direct children.
    pub fn self_us(&self, i: u32) -> f64 {
        let s = self.spans[i as usize];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| c.t1.min(s.t1).saturating_sub(c.t0.max(s.t0)))
            .sum();
        (s.t1 - s.t0).saturating_sub(covered) as f64 * 1e-3
    }

    /// Chrome trace-event document (opens in Perfetto / chrome://tracing).
    pub fn chrome_trace(&self, metadata: Json) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("tick", Json::Num(f64::from(s.tick)))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::str(self.spans[p as usize].name)));
                }
                if s.aggregated {
                    args.push(("aggregated", Json::Bool(true)));
                }
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.t0 as f64 * 1e-3)),
                    ("dur", Json::Num(s.us())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("otherData", metadata),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn buffer_never_grows_and_self_time_subtracts_children() {
        let mut tr = Tracer::with_capacity(3);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(100);
        let tick = tr.record("tick", 7, None, t0, t1);
        tr.record_phases(tick, &[("ilqr.lq", 30e-6), ("ilqr.rollout", 50e-6)]);
        assert_eq!(tr.record("extra", 7, None, t0, t1), None);
        assert_eq!(tr.dropped(), 1);
        assert_eq!(tr.spans().len(), 3);
        assert!((tr.self_us(0) - 20.0).abs() < 1e-6);
        assert_eq!(tr.durations_us("ilqr.lq"), vec![30.0]);

        let doc = tr.chrome_trace(Json::obj([("workload", Json::str("w"))]));
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(e)) => e,
            _ => panic!("no events"),
        };
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph"), Some(&Json::str("X")));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&Json::str("tick"))
        );
        assert!(Json::parse(&doc.write()).is_ok());
    }
}
