//! Stage timing and the traced run's per-layer spans.
//!
//! Every stage is timed whether or not tracing is on — the end-to-end
//! metrics need the stage durations. With tracing on, each timed stage is
//! also kept as a span (name, start, end, parent) so the run can report
//! per-layer self time: a span's duration minus the part its children
//! cover. A span's layer is its name up to the first `.`.
//!
//! Given a [`Yardstick`], the recorder samples it at stage boundaries (at
//! the root's start and end, and otherwise at most every
//! [`PACE_EVERY_S`]) on a clock that stops while the yardstick runs, so
//! the samples take no part in any stage's time. Durations are then read
//! in reference seconds over the sampled [`SpeedCurve`]; see
//! [`crate::pace`].

use std::collections::BTreeMap;
use std::time::Instant;

use crate::pace::{SpeedCurve, Yardstick, PACE_EVERY_S};

/// A closed stage: start and end on the recorder's clock, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// When the stage opened.
    pub start: f64,
    /// When it closed.
    pub end: f64,
}

struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: Option<f64>,
}

/// An open stage, closed by [`Recorder::end`].
pub struct Timer {
    start: f64,
    span: Option<usize>,
}

/// Stage timer plus, when enabled, the in-memory span list.
pub struct Recorder<'y> {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    depth: usize,
    origin: Instant,
    /// Seconds the clock stood still for yardstick samples.
    paused: f64,
    yardstick: Option<&'y mut Yardstick>,
    curve: SpeedCurve,
}

impl<'y> Recorder<'y> {
    /// A recorder that keeps spans only when `enabled` and reports raw
    /// seconds.
    pub fn new(enabled: bool) -> Recorder<'static> {
        Recorder::paced(enabled, None)
    }

    /// A recorder that keeps spans only when `enabled` and, given a
    /// yardstick, reports reference seconds.
    pub fn paced(enabled: bool, yardstick: Option<&'y mut Yardstick>) -> Recorder<'y> {
        Recorder {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            origin: Instant::now(),
            paused: 0.0,
            yardstick,
            curve: SpeedCurve::default(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() - self.paused
    }

    /// Sample the yardstick if `force`d or if the last sample is stale.
    fn pace(&mut self, force: bool) {
        let t = self.now();
        let stale = self
            .curve
            .last_t()
            .is_none_or(|last| t - last >= PACE_EVERY_S);
        if let Some(yardstick) = self.yardstick.as_deref_mut() {
            if force || stale {
                let stopped = Instant::now();
                let speed = yardstick.speed();
                self.paused += stopped.elapsed().as_secs_f64();
                self.curve.push(t, speed);
            }
        }
    }

    /// Open the stage `name`, nested in the innermost open stage.
    pub fn begin(&mut self, name: &str) -> Timer {
        self.pace(self.depth == 0);
        self.depth += 1;
        let start = self.now();
        let span = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start,
                end: None,
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            index
        });
        Timer { start, span }
    }

    /// Close `timer`'s stage. Stages close in the reverse order they
    /// opened.
    pub fn end(&mut self, timer: Timer) -> Interval {
        let end = self.now();
        if let Some(index) = timer.span {
            assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
            self.spans[index].end = Some(end);
        }
        self.depth -= 1;
        self.pace(self.depth == 0);
        Interval {
            start: timer.start,
            end,
        }
    }

    /// `interval`'s duration in reference seconds (raw seconds when
    /// unpaced). Final once the root stage has closed.
    pub fn seconds(&self, interval: Interval) -> f64 {
        self.curve.reference_seconds(interval.start, interval.end)
    }

    /// Seconds of self time per layer over every closed span.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let duration = |s: &Span| {
            s.end.map_or(0.0, |end| {
                self.seconds(Interval {
                    start: s.start,
                    end,
                })
            })
        };
        let mut self_s: Vec<f64> = self.spans.iter().map(duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_s[parent] -= duration(span);
            }
        }
        let mut layers = BTreeMap::new();
        for (span, s) in self.spans.iter().zip(self_s) {
            let layer = span.name.split('.').next().unwrap_or(&span.name);
            *layers.entry(layer.to_string()).or_insert(0.0) += s;
        }
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_by_layer() {
        let mut rec = Recorder::new(true);
        let root = rec.begin("bench.iteration");
        let child = rec.begin("report.exhibits");
        let grandchild = rec.begin("report.exhibit.table1");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner = rec.end(grandchild);
        let mid = rec.end(child);
        let total = rec.end(root);
        let (inner, mid, total) = (rec.seconds(inner), rec.seconds(mid), rec.seconds(total));
        let layers = rec.self_times();
        assert_eq!(layers.len(), 2);
        let report = layers["report"];
        let bench = layers["bench"];
        assert!(
            (report - mid).abs() < 1e-9,
            "report self time is its outer span"
        );
        assert!((bench - (total - mid)).abs() < 1e-9);
        assert!(inner >= 0.005 && mid >= inner && total >= mid);
    }

    #[test]
    fn disabled_recorder_times_without_spans() {
        let mut rec = Recorder::new(false);
        let t = rec.begin("world.generate");
        let interval = rec.end(t);
        assert!(rec.seconds(interval) >= 0.0);
        assert!(rec.self_times().is_empty());
    }

    #[test]
    fn yardstick_samples_stay_out_of_stage_times() {
        let mut yardstick = Yardstick::new();
        let mut rec = Recorder::paced(false, Some(&mut yardstick));
        let root = rec.begin("bench.iteration");
        let stage = rec.begin("world.generate");
        let interval = rec.end(stage);
        let whole = rec.end(root);
        // Samples at the root's start and end, of milliseconds each; the
        // stages themselves are empty.
        assert!(rec.curve.last_t().is_some());
        assert!(interval.end - interval.start < 1e-3);
        assert!(whole.end - whole.start < 1e-3);
        assert!(rec.paused > 0.0);
    }
}
