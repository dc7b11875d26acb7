//! # distda-trace
//!
//! Cycle-attributed tracing and metrics for the Dist-DA machine: typed,
//! tick-stamped event spans in bounded per-component rings, a metrics
//! registry (counters, log-bucketed histograms, change-sampled time
//! series), and exporters — Chrome/Perfetto JSON ([`chrome`]), CSV time
//! series ([`csvout`]) and a plain-text top-N summary with cycle-exact
//! phase attribution ([`summary`]).
//!
//! ## Zero overhead when disabled
//!
//! A [`Tracer`] is either live (backed by shared state) or disabled
//! (`None` inside). Components hold a [`TraceSink`] per track; with
//! tracing off every emission method is an inlined `Option` check on a
//! local field — no allocation, no locking, no formatting — so the
//! simulator's hot path is unaffected (< 2% on aggregate throughput is
//! the enforced budget, measured at well under that).
//!
//! ## Determinism
//!
//! Events are stamped with simulated ticks only and emitted only on
//! observable-work edges, so exported traces are byte-identical across
//! `DISTDA_THREADS` settings and with idle skip-ahead on or off.
//!
//! ## Enabling
//!
//! Programmatically ([`Tracer::enabled`], [`Tracer::with_filter`],
//! [`Tracer::with_filter_cap`]) or via the `DISTDA_TRACE` /
//! `DISTDA_TRACE_CAP` environment knobs, parsed by `distda_sim::env`
//! (which constructs the tracer through [`Tracer::with_filter_cap`]):
//!
//! - `DISTDA_TRACE=1` (or `all`) — trace every component;
//! - `DISTDA_TRACE=mem,noc` — per-component filtering by name prefix
//!   (`mem` matches `mem.cache`, `mem.dram`, ...);
//! - unset or `0` — disabled.
//!
//! `DISTDA_TRACE_CAP` bounds the per-component event ring (default
//! `65536` events).
//!
//! ```
//! use distda_trace::{EventKind, Tracer};
//! let tracer = Tracer::enabled();
//! let sink = tracer.sink("machine");
//! sink.span(0, 100, EventKind::KernelPhase { phase: "offload" });
//! let json = distda_trace::chrome::export(&tracer);
//! assert!(json.contains("offload"));
//! ```

pub mod chrome;
pub mod csvout;
pub mod event;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod stats;
pub mod summary;

pub use event::{Event, EventKind, StallCause};
pub use metrics::{LogHist, Metrics, Series};
pub use ring::Ring;
pub use stats::{geomean, Report};

/// Base-clock tick count (6 GHz base tick in the Dist-DA machine).
///
/// Kept as a local alias so this crate sits below `distda-sim` in the
/// dependency order; `distda_sim::Tick` is the same `u64`.
pub type Tick = u64;

use std::sync::{Arc, Mutex};

/// A name as it appears in artifact file names: every character that is not
/// ASCII alphanumeric becomes `-`.
///
/// ```
/// assert_eq!(distda_trace::slug("Dist-DA-IO:8x4/b8"), "Dist-DA-IO-8x4-b8");
/// ```
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Default per-component event-ring capacity.
pub const DEFAULT_EVENT_CAP: usize = 65_536;
/// Default per-series point capacity.
pub const DEFAULT_SERIES_CAP: usize = 16_384;

/// Which components are traced.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Filter {
    All,
    /// Component-name prefixes (`mem` matches `mem.dram`).
    Prefixes(Vec<String>),
}

impl Filter {
    fn matches(&self, component: &str) -> bool {
        match self {
            Filter::All => true,
            Filter::Prefixes(ps) => ps.iter().any(|p| {
                component == p
                    || (component.len() > p.len()
                        && component.starts_with(p.as_str())
                        && component.as_bytes()[p.len()] == b'.')
            }),
        }
    }
}

#[derive(Debug)]
struct SinkShared {
    name: String,
    track: u32,
    state: Mutex<SinkState>,
}

#[derive(Debug)]
struct SinkState {
    events: Ring<Event>,
    metrics: Metrics,
}

#[derive(Debug)]
struct TracerShared {
    filter: Filter,
    event_cap: usize,
    series_cap: usize,
    components: Mutex<Vec<Arc<SinkShared>>>,
}

/// Snapshot of one component's track, for exporters.
#[derive(Debug, Clone)]
pub struct ComponentDump {
    /// Component name (track label).
    pub name: String,
    /// Stable track id (registration order).
    pub track: u32,
    /// Events oldest-first.
    pub events: Vec<Event>,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// The component's metrics.
    pub metrics: Metrics,
}

/// The tracing handle threaded through the machine. Cheap to clone;
/// disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
}

impl Tracer {
    /// A tracer that records nothing and costs nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer recording every component with default capacities.
    pub fn enabled() -> Self {
        Self::with_filter_cap("all", DEFAULT_EVENT_CAP)
    }

    /// A tracer from a filter spec: `"all"`/`"1"` traces everything, a
    /// comma-separated list traces components whose name matches a listed
    /// prefix, `""`/`"0"` disables.
    pub fn with_filter(spec: &str) -> Self {
        Self::with_filter_cap(spec, DEFAULT_EVENT_CAP)
    }

    /// Like [`Tracer::with_filter`], with an explicit per-component
    /// event-ring capacity (clamped to at least 16).
    pub fn with_filter_cap(spec: &str, event_cap: usize) -> Self {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" {
            return Self::disabled();
        }
        let filter = if spec == "1" || spec.eq_ignore_ascii_case("all") {
            Filter::All
        } else {
            Filter::Prefixes(
                spec.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            )
        };
        Self {
            shared: Some(Arc::new(TracerShared {
                filter,
                event_cap: event_cap.max(16),
                series_cap: DEFAULT_SERIES_CAP,
                components: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this tracer records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Registers (or reuses) the component `name` and returns its sink.
    /// Returns a disabled sink when the tracer is off or the component is
    /// filtered out, so emission sites need no gating of their own.
    pub fn sink(&self, name: &str) -> TraceSink {
        let Some(shared) = &self.shared else {
            return TraceSink::default();
        };
        if !shared.filter.matches(name) {
            return TraceSink::default();
        }
        let mut comps = shared.components.lock().unwrap();
        if let Some(c) = comps.iter().find(|c| c.name == name) {
            return TraceSink {
                inner: Some(c.clone()),
            };
        }
        let c = Arc::new(SinkShared {
            name: name.to_string(),
            track: comps.len() as u32,
            state: Mutex::new(SinkState {
                events: Ring::new(shared.event_cap),
                metrics: Metrics::new(shared.series_cap),
            }),
        });
        comps.push(c.clone());
        TraceSink { inner: Some(c) }
    }

    /// Snapshots every registered component in track order.
    pub fn components(&self) -> Vec<ComponentDump> {
        let Some(shared) = &self.shared else {
            return Vec::new();
        };
        let comps = shared.components.lock().unwrap();
        comps
            .iter()
            .map(|c| {
                let st = c.state.lock().unwrap();
                ComponentDump {
                    name: c.name.clone(),
                    track: c.track,
                    events: st.events.to_vec(),
                    dropped: st.events.dropped(),
                    metrics: st.metrics.clone(),
                }
            })
            .collect()
    }

    /// Folds every component's counters and histogram summaries into one
    /// [`Report`], keys prefixed by component name.
    pub fn metrics_report(&self) -> Report {
        let mut out = Report::new();
        for c in self.components() {
            out.merge_prefixed(&c.name, &c.metrics.report());
        }
        out
    }
}

/// One component's emission handle. Default-constructed sinks are
/// disabled; every method early-outs on a disabled sink.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkShared>>,
}

impl TraceSink {
    /// Whether emissions on this sink are recorded. Call sites that must
    /// format names or compute values before emitting should gate on this.
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a completed span covering `[start, end]`.
    #[inline]
    pub fn span(&self, start: Tick, end: Tick, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .unwrap()
                .events
                .push(Event { start, end, kind });
        }
    }

    /// Records an instantaneous event at `at`.
    #[inline]
    pub fn instant(&self, at: Tick, kind: EventKind) {
        self.span(at, at, kind);
    }

    /// Adds `n` to the counter `name`.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().metrics.count(name, n);
        }
    }

    /// Records `v` into the log-bucketed histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().metrics.observe(name, v);
        }
    }

    /// Samples the time series `name` at `at` (change-sampled).
    #[inline]
    pub fn sample(&self, at: Tick, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().metrics.sample(name, at, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_hands_out_dead_sinks() {
        let t = Tracer::disabled();
        let s = t.sink("anything");
        assert!(!t.is_enabled());
        assert!(!s.on());
        s.instant(1, EventKind::MmioTransfer { words: 1 });
        assert!(t.components().is_empty());
    }

    #[test]
    fn filter_matches_exact_and_dotted_prefix() {
        let t = Tracer::with_filter("mem,noc");
        assert!(t.sink("mem").on());
        assert!(t.sink("mem.dram").on());
        assert!(t.sink("noc").on());
        assert!(!t.sink("machine").on());
        assert!(!t.sink("memx").on());
    }

    #[test]
    fn zero_and_empty_specs_disable() {
        assert!(!Tracer::with_filter("0").is_enabled());
        assert!(!Tracer::with_filter("").is_enabled());
        assert!(Tracer::with_filter("all").is_enabled());
        assert!(Tracer::with_filter("1").is_enabled());
    }

    #[test]
    fn sinks_share_a_component_by_name() {
        let t = Tracer::enabled();
        let a = t.sink("noc");
        let b = t.sink("noc");
        a.count("flits", 1);
        b.count("flits", 2);
        let comps = t.components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].metrics.counters["flits"], 3);
    }

    #[test]
    fn tracks_are_registration_ordered() {
        let t = Tracer::enabled();
        t.sink("b");
        t.sink("a");
        let comps = t.components();
        assert_eq!(comps[0].name, "b");
        assert_eq!(comps[0].track, 0);
        assert_eq!(comps[1].name, "a");
        assert_eq!(comps[1].track, 1);
    }

    #[test]
    fn metrics_report_prefixes_components() {
        let t = Tracer::enabled();
        t.sink("noc").count("flits", 4);
        t.sink("mem").observe("lat", 16);
        let r = t.metrics_report();
        assert_eq!(r.get("noc.flits"), Some(4.0));
        assert_eq!(r.get("mem.lat.count"), Some(1.0));
    }

    #[test]
    fn events_record_in_order() {
        let t = Tracer::enabled();
        let s = t.sink("machine");
        s.span(0, 10, EventKind::KernelPhase { phase: "offload" });
        s.instant(4, EventKind::MmioTransfer { words: 2 });
        let comps = t.components();
        assert_eq!(comps[0].events.len(), 2);
        assert_eq!(comps[0].events[0].duration(), 10);
        assert!(comps[0].events[1].is_instant());
    }
}
