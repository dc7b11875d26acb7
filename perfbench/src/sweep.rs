//! The two sweep workloads: a fixed set of kernels at eval scale under a
//! fixed set of configurations, simulated directly through
//! `Workload::try_simulate` on one thread — the host time a user pays to
//! regenerate part of the paper's matrix.

use crate::host;
use crate::pace::{self, Pacer, Sample};
use crate::pinned::Pinned;
use crate::probes;
use crate::report::Outcome;
use crate::stats::median;
use distda_serve::encode_result;
use distda_system::{ConfigKind, RunConfig, RunResult};
use distda_workloads::{suite, Scale, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Which cells a sweep workload simulates.
pub struct SweepSpec {
    /// Kernel names (the workloads' paper abbreviations).
    pub kernels: &'static [&'static str],
    /// Configurations, each run on every kernel.
    pub configs: &'static [ConfigKind],
}

/// `host-ooo`: the whole suite on the out-of-order host alone.
pub const HOST_OOO: SweepSpec = SweepSpec {
    kernels: &[
        "dis", "tra", "fdt", "cho", "adi", "sei", "pf", "nw", "bfs", "pr", "pch", "pca",
    ],
    configs: &[ConfigKind::OoO],
};

/// `offload`: six kernels under the five accelerator configurations.
pub const OFFLOAD: SweepSpec = SweepSpec {
    kernels: &["dis", "fdt", "adi", "pf", "bfs", "pr"],
    configs: &[
        ConfigKind::MonoCA,
        ConfigKind::MonoDAIO,
        ConfigKind::MonoDAF,
        ConfigKind::DistDAIO,
        ConfigKind::DistDAF,
    ],
};

/// Generates the suite at eval scale with `seed` and keeps the spec's
/// kernels, in spec order.
fn generate(spec: &SweepSpec, seed: u64) -> Result<Vec<Workload>, String> {
    let mut all = suite(&Scale {
        seed,
        ..Scale::eval()
    });
    spec.kernels
        .iter()
        .map(|k| {
            all.iter()
                .position(|w| w.name == *k)
                .map(|i| all.swap_remove(i))
                .ok_or_else(|| format!("suite has no kernel `{k}`"))
        })
        .collect()
}

/// The set-up a user pays before the first simulation: suite generation
/// plus the reference interpretation of every kernel.
fn set_up(spec: &SweepSpec, seed: u64) -> Result<Vec<Workload>, String> {
    let ws = generate(spec, seed)?;
    for w in &ws {
        black_box(w.reference_exec());
    }
    Ok(ws)
}

/// Cells as (workload index, config), kernel-major.
fn cells(spec: &SweepSpec, n: usize) -> Vec<(usize, RunConfig)> {
    (0..n)
        .flat_map(|w| spec.configs.iter().map(move |&k| (w, RunConfig::named(k))))
        .collect()
}

/// Checks one result against the cell's first result (determinism) and,
/// at the pinned seed, against `results/reproduce.log`.
fn verify(r: &RunResult, first: Option<&str>, pinned: Option<&Pinned>) -> Result<(), String> {
    let cell = format!("{}/{}", r.kernel, r.config);
    if !r.validated {
        return Err(format!(
            "{cell}: simulated memory differs from the interpreter"
        ));
    }
    if let Some(p) = pinned {
        p.check(&r.kernel, &r.config, r.ticks)?;
    }
    match first {
        Some(f) if f != encode_result(r) => Err(format!(
            "{cell}: repeated simulation returned a different result"
        )),
        _ => Ok(()),
    }
}

/// The untraced run: `setup_s`, `sim_ticks_per_s`, `results_per_s` and
/// the per-kernel host seconds, with every cell's output checked.
pub fn measure(
    spec: &SweepSpec,
    seed: u64,
    seconds: u64,
    pinned: Option<&Pinned>,
    out: &mut Outcome,
) {
    let mut pacer = Pacer::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ws = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut ws));
        let (res, s) = pacer.time(|| set_up(spec, seed));
        match res {
            Ok(v) => ws = v,
            Err(e) => {
                out.check(Err(e));
                return;
            }
        }
        setups.push(s);
    }
    pace::report_setup(&setups, "suite generation + reference interpretation", out);

    let cells = cells(spec, ws.len());
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); cells.len()];
    let mut first: Vec<Option<(u64, String)>> = vec![None; cells.len()];
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes = 0usize;
    'run: loop {
        for c in 0..cells.len() {
            // The first pass always completes, so every cell is timed.
            if passes > 0 && start.elapsed() >= budget {
                break 'run;
            }
            let (wi, cfg) = &cells[c];
            let (res, dt) = pacer.time(|| ws[*wi].try_simulate(cfg));
            match res {
                Err(e) => out.check(Err(format!("{}/{}: {e}", ws[*wi].name, cfg.label()))),
                Ok(r) => {
                    let verdict = verify(&r, first[c].as_ref().map(|f| f.1.as_str()), pinned);
                    if verdict.is_ok() {
                        samples[c].push(dt);
                        if first[c].is_none() {
                            first[c] = Some((r.ticks, encode_result(&r)));
                        }
                    }
                    out.check(verdict);
                }
            }
        }
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }

    let n: usize = samples.iter().map(Vec::len).sum();
    let (mut paced_s, mut wall_s) = (0.0, 0.0);
    let mut ticks = 0u64;
    let mut timed = Vec::new();
    for (c, s) in samples.iter().enumerate() {
        let Some((first_ticks, _)) = first[c].as_ref() else {
            continue;
        };
        let p = median(&s.iter().map(|x| x.paced_s).collect::<Vec<_>>());
        paced_s += p;
        wall_s += median(&s.iter().map(|x| x.wall_s).collect::<Vec<_>>());
        ticks += first_ticks;
        timed.push((c, p));
    }
    out.metric(
        "sim_ticks_per_s",
        ticks as f64 / paced_s.max(1e-9),
        "ticks/s",
        format!(
            "{ticks} simulated ticks over the sum of per-cell median paced host seconds ({} cells, {n} simulations, {passes} passes)",
            timed.len()
        ),
    );
    out.metric(
        "results_per_s",
        timed.len() as f64 / paced_s.max(1e-9),
        "1/s",
        "cells over the sum of per-cell median paced host seconds",
    );
    out.metric(
        "sim_ticks_per_wall_s",
        ticks as f64 / wall_s.max(1e-9),
        "ticks/s",
        "the same ticks over the sum of per-cell median wall-clock seconds (not paced)",
    );
    pace::report_speed(&pacer, out);
    for (wi, w) in ws.iter().enumerate() {
        let s: f64 = timed
            .iter()
            .filter(|&&(c, _)| cells[c].0 == wi)
            .map(|t| t.1)
            .sum();
        out.metric(
            &format!("system.kernel_s.{}", w.name),
            s,
            "s",
            "median paced host seconds summed over the workload's configs",
        );
    }
    out.metric(
        "peak_rss_mb",
        host::peak_rss_mib(),
        "MiB",
        "VmHWM of this process",
    );
}

/// The traced run: one pass over the cells with spans around every call
/// into a layer, the self-profiler and explain sampler on separate
/// re-runs of each cell, and the per-layer probes. Returns the run's
/// exact counts for the cross-run determinism check.
pub fn trace(
    spec: &SweepSpec,
    seed: u64,
    pinned: Option<&Pinned>,
    out: &mut Outcome,
) -> Vec<(&'static str, u64)> {
    let (ws, _) = out
        .spans
        .time("setup", "suite", None, || generate(spec, seed));
    match ws {
        Ok(ws) => probes::trace_cells(&ws, &cells(spec, ws.len()), pinned, out),
        Err(e) => {
            out.check(Err(e));
            Vec::new()
        }
    }
}
