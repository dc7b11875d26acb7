//! Scheduler self-profiling: where does *host* wall-clock go inside a run?
//!
//! The tracer ([`distda_trace`]) answers "where does simulated time go";
//! this module answers the complementary fleet-telemetry question — which
//! component of the machine the *simulator itself* spends host nanoseconds
//! in, how many executed (non-skipped) ticks each component was scheduled
//! for, which component's `next_event` kept waking the machine, and how
//! much simulated time skip-ahead jumped over.
//!
//! A [`Profiler`] is the third member of the scheduler's
//! [`Instruments`](crate::component::Instruments) bundle, next to the
//! tracer and the sanitizer, with the same cost model: a disabled profiler
//! is a `None` inside a cheap cloneable handle, so the tick loop pays one
//! branch per tick and nothing else. Enabled (via `DISTDA_OBS` or
//! programmatically), the scheduler times every component's `tick()` with
//! the host monotonic clock and folds the numbers here.
//!
//! Profiling is measurement-only by construction: it reads the host clock
//! and counts scheduler decisions, but never influences them — simulated
//! results are bit-identical with the profiler on or off (enforced by the
//! observability determinism tests).
//!
//! The snapshot renders as a "perf top"-style table
//! ([`render_table`]):
//!
//! ```text
//! component         host_ms  host%   active_ticks   wakes  ns/tick
//! mesh               812.41  41.2%       1203441   88123     675
//! engine.2           401.77  20.4%        903441   41021     444
//! ...
//! ```

use crate::time::Tick;
use distda_trace::metrics::Series;
use std::sync::{Arc, Mutex};

/// Executed ticks per utilization-series window: every window the profiler
/// samples each component's share of the window's host nanoseconds.
pub const UTIL_WINDOW_TICKS: u64 = 1 << 16;

/// Maximum points retained per component utilization series.
pub const UTIL_SERIES_CAP: usize = 4096;

#[derive(Debug)]
struct SlotState {
    name: String,
    host_ns: u64,
    active_ticks: u64,
    wakes: u64,
    /// Host ns accumulated inside the current utilization window.
    window_ns: u64,
    util: Series,
}

#[derive(Debug)]
struct ProfState {
    slots: Vec<SlotState>,
    ticks_executed: u64,
    ticks_skipped: u64,
    skip_spans: u64,
    probes: u64,
    probe_ns: u64,
    window_ticks: u64,
}

impl ProfState {
    fn close_window(&mut self, now: Tick) {
        let total: u64 = self.slots.iter().map(|s| s.window_ns).sum();
        for s in &mut self.slots {
            let share = if total > 0 {
                s.window_ns as f64 / total as f64
            } else {
                0.0
            };
            s.util.sample(now, share);
            s.window_ns = 0;
        }
        self.window_ticks = 0;
    }
}

/// One component's profile, as captured in a [`ProfileSnapshot`].
#[derive(Debug, Clone)]
pub struct ComponentProfile {
    /// Component name (merged across registrations with the same name).
    pub name: String,
    /// Host nanoseconds spent inside this component's `tick()`.
    pub host_ns: u64,
    /// Executed (non-skipped) base ticks this component was scheduled for.
    pub active_ticks: u64,
    /// Times this component's `next_event` was the scheduler's chosen wake
    /// target (it was the unit keeping the machine busy or waking it next).
    pub wakes: u64,
    /// Change-sampled utilization series: at each window boundary, this
    /// component's share of the window's host nanoseconds.
    pub util: Vec<(Tick, f64)>,
}

/// Everything the self-profiler measured, in component registration order.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Per-component breakdown.
    pub comps: Vec<ComponentProfile>,
    /// Base ticks the scheduler actually executed component-by-component.
    pub ticks_executed: u64,
    /// Base ticks jumped over by idle skip-ahead.
    pub ticks_skipped: u64,
    /// Number of skip-ahead jumps (spans).
    pub skip_spans: u64,
    /// `next_wake` probes folded.
    pub probes: u64,
    /// Host nanoseconds spent inside `next_wake` probes.
    pub probe_ns: u64,
}

impl ProfileSnapshot {
    /// Total host nanoseconds across every component's `tick()`.
    pub fn total_host_ns(&self) -> u64 {
        self.comps.iter().map(|c| c.host_ns).sum()
    }
}

/// The self-profiling handle threaded through the scheduler's
/// [`Instruments`](crate::component::Instruments). Cheap to clone;
/// disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    shared: Option<Arc<Mutex<ProfState>>>,
}

impl Profiler {
    /// A profiler that records nothing and costs one branch per tick.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live profiler with empty state.
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::new(Mutex::new(ProfState {
                slots: Vec::new(),
                ticks_executed: 0,
                ticks_skipped: 0,
                skip_spans: 0,
                probes: 0,
                probe_ns: 0,
                window_ticks: 0,
            }))),
        }
    }

    /// Whether this profiler records anything at all.
    #[inline]
    pub fn on(&self) -> bool {
        self.shared.is_some()
    }

    /// Registers (or reuses, by name) a component slot and returns its
    /// index. Returns 0 on a disabled profiler — callers only use the
    /// index back through a profiler that is on.
    pub fn register(&self, name: &str) -> usize {
        let Some(shared) = &self.shared else { return 0 };
        let mut st = shared.lock().unwrap();
        if let Some(i) = st.slots.iter().position(|s| s.name == name) {
            return i;
        }
        st.slots.push(SlotState {
            name: name.to_string(),
            host_ns: 0,
            active_ticks: 0,
            wakes: 0,
            window_ns: 0,
            util: Series::new(UTIL_SERIES_CAP),
        });
        st.slots.len() - 1
    }

    /// Records one executed base tick at `now`: `(slot, host_ns)` per
    /// component ticked. One lock per tick.
    pub fn record_tick(&self, slot_ns: &[(usize, u64)], now: Tick) {
        let Some(shared) = &self.shared else { return };
        let mut st = shared.lock().unwrap();
        for &(slot, ns) in slot_ns {
            let s = &mut st.slots[slot];
            s.host_ns += ns;
            s.active_ticks += 1;
            s.window_ns += ns;
        }
        st.ticks_executed += 1;
        st.window_ticks += 1;
        if st.window_ticks >= UTIL_WINDOW_TICKS {
            st.close_window(now);
        }
    }

    /// Records one skip-ahead jump over `span` base ticks.
    pub fn record_skip(&self, span: u64) {
        let Some(shared) = &self.shared else { return };
        let mut st = shared.lock().unwrap();
        st.ticks_skipped += span;
        st.skip_spans += 1;
    }

    /// Records one `next_wake` probe: its host cost and, if any, the slot
    /// of the component whose event was the chosen wake target.
    pub fn record_probe(&self, ns: u64, woke: Option<usize>) {
        let Some(shared) = &self.shared else { return };
        let mut st = shared.lock().unwrap();
        st.probes += 1;
        st.probe_ns += ns;
        if let Some(slot) = woke {
            st.slots[slot].wakes += 1;
        }
    }

    /// Snapshot of everything measured so far (`None` when disabled). The
    /// current (partial) utilization window is closed into the series at
    /// tick `now_hint` so short runs still produce at least one sample.
    pub fn snapshot_at(&self, now_hint: Tick) -> Option<ProfileSnapshot> {
        let shared = self.shared.as_ref()?;
        let mut st = shared.lock().unwrap();
        if st.window_ticks > 0 {
            st.close_window(now_hint);
        }
        Some(ProfileSnapshot {
            comps: st
                .slots
                .iter()
                .map(|s| ComponentProfile {
                    name: s.name.clone(),
                    host_ns: s.host_ns,
                    active_ticks: s.active_ticks,
                    wakes: s.wakes,
                    util: s.util.points.clone(),
                })
                .collect(),
            ticks_executed: st.ticks_executed,
            ticks_skipped: st.ticks_skipped,
            skip_spans: st.skip_spans,
            probes: st.probes,
            probe_ns: st.probe_ns,
        })
    }

    /// [`Profiler::snapshot_at`] with the window closed at the last
    /// executed-tick count (good enough when no better clock is at hand).
    pub fn snapshot(&self) -> Option<ProfileSnapshot> {
        let hint = self
            .shared
            .as_ref()
            .map(|s| s.lock().unwrap().ticks_executed)
            .unwrap_or(0);
        self.snapshot_at(hint)
    }
}

/// Renders a "perf top"-style table of a snapshot: components sorted by
/// host nanoseconds, with scheduler-level totals as a footer.
pub fn render_table(snap: &ProfileSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total_ns = snap.total_host_ns().max(1);
    writeln!(
        out,
        "{:<18} {:>10} {:>6} {:>14} {:>10} {:>8}",
        "component", "host_ms", "host%", "active_ticks", "wakes", "ns/tick"
    )
    .unwrap();
    let mut rows: Vec<&ComponentProfile> = snap.comps.iter().collect();
    rows.sort_by(|a, b| b.host_ns.cmp(&a.host_ns).then(a.name.cmp(&b.name)));
    for c in rows {
        writeln!(
            out,
            "{:<18} {:>10.3} {:>5.1}% {:>14} {:>10} {:>8}",
            c.name,
            c.host_ns as f64 / 1e6,
            100.0 * c.host_ns as f64 / total_ns as f64,
            c.active_ticks,
            c.wakes,
            c.host_ns / c.active_ticks.max(1),
        )
        .unwrap();
    }
    let total_ticks = snap.ticks_executed + snap.ticks_skipped;
    writeln!(
        out,
        "ticks: {} executed + {} skipped in {} spans = {} total ({:.1}% skipped)",
        snap.ticks_executed,
        snap.ticks_skipped,
        snap.skip_spans,
        total_ticks,
        100.0 * snap.ticks_skipped as f64 / total_ticks.max(1) as f64,
    )
    .unwrap();
    writeln!(
        out,
        "wake probes: {} taking {:.3} ms host",
        snap.probes,
        snap.probe_ns as f64 / 1e6
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.on());
        assert_eq!(p.register("x"), 0);
        p.record_tick(&[(0, 5)], 0);
        p.record_skip(10);
        p.record_probe(3, Some(0));
        assert!(p.snapshot().is_none());
    }

    #[test]
    fn register_merges_by_name() {
        let p = Profiler::enabled();
        let a = p.register("mem");
        let b = p.register("noc");
        let a2 = p.register("mem");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn ticks_and_wakes_accumulate() {
        let p = Profiler::enabled();
        let a = p.register("a");
        let b = p.register("b");
        p.record_tick(&[(a, 100), (b, 50)], 0);
        p.record_tick(&[(a, 100), (b, 50)], 1);
        p.record_skip(40);
        p.record_probe(7, Some(b));
        let s = p.snapshot().unwrap();
        assert_eq!(s.comps[a].host_ns, 200);
        assert_eq!(s.comps[a].active_ticks, 2);
        assert_eq!(s.comps[b].wakes, 1);
        assert_eq!(s.ticks_executed, 2);
        assert_eq!(s.ticks_skipped, 40);
        assert_eq!(s.skip_spans, 1);
        assert_eq!(s.probes, 1);
        assert_eq!(s.probe_ns, 7);
        assert_eq!(s.total_host_ns(), 300);
    }

    #[test]
    fn snapshot_closes_partial_window_into_util_series() {
        let p = Profiler::enabled();
        let a = p.register("a");
        let b = p.register("b");
        p.record_tick(&[(a, 300), (b, 100)], 5);
        let s = p.snapshot_at(5).unwrap();
        assert_eq!(s.comps[a].util, vec![(5, 0.75)]);
        assert_eq!(s.comps[b].util, vec![(5, 0.25)]);
    }

    #[test]
    fn table_renders_sorted_with_footer() {
        let p = Profiler::enabled();
        let a = p.register("small");
        let b = p.register("big");
        p.record_tick(&[(a, 10), (b, 990)], 0);
        let s = p.snapshot().unwrap();
        let t = render_table(&s);
        let big_at = t.find("big").unwrap();
        let small_at = t.find("small").unwrap();
        assert!(big_at < small_at, "rows must sort by host_ns:\n{t}");
        assert!(t.contains("executed"));
        assert!(t.contains("wake probes"));
    }

    #[test]
    fn invariant_active_ticks_bounded_by_executed() {
        let p = Profiler::enabled();
        let a = p.register("a");
        p.record_tick(&[(a, 1)], 0);
        p.record_tick(&[], 1); // a registered but not ticked this round
        let s = p.snapshot().unwrap();
        assert!(s.comps.iter().all(|c| c.active_ticks <= s.ticks_executed));
        let sum: u64 = s.comps.iter().map(|c| c.active_ticks).sum();
        assert!(sum <= s.ticks_executed * s.comps.len() as u64);
    }
}
