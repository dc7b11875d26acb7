//! Traces any (kernel, config) pair: runs the simulation with a live
//! tracer attached, writes a Chrome/Perfetto JSON trace and a CSV of the
//! sampled time series, and prints a top-N summary plus a cycle-exact
//! stall/phase attribution.
//!
//! ```text
//! cargo run --release --bin trace -- \
//!     --kernel bfs --kernel pagerank --config Dist-DA-IO --scale tiny
//! ```
//!
//! Options:
//!
//! - `--kernel NAME` (repeatable): workloads to trace by suite name
//!   (`dis`, `tra`, `fdt`, `cho`, `adi`, `sei`, `pf`, `nw`, `bfs`, `pr`,
//!   `pch`, `pca`); default `fdt`, `bfs`, `pr`.
//! - `--config LABEL`: `OoO`, `Mono-CA`, `Mono-DA-IO`, `Mono-DA-F`,
//!   `Dist-DA-IO` (default) or `Dist-DA-F`.
//! - `--scale tiny|eval`: workload input scale (default `tiny`).
//! - `--filter SPEC`: component filter, as in `DISTDA_TRACE` (default
//!   `all`).
//! - `--out DIR`: output directory (default `results`).
//! - `--top N`: summary depth (default 5).
//! - `--check`: re-parse the exported JSON and verify the attribution
//!   partitions the run's ticks exactly; exit nonzero on failure.
//! - `--openmetrics`: additionally bridge the trace's counters and
//!   histograms (plus the run's headline metrics) into the fleet metrics
//!   registry and write `<stem>.om` in the OpenMetrics text format.

use distda_obs::Registry;
use distda_system::{ConfigKind, RunConfig};
use distda_trace::{chrome, csvout, json, slug, summary, Tracer};
use distda_workloads::{suite, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    kernels: Vec<String>,
    config: String,
    scale: String,
    filter: String,
    out: PathBuf,
    top: usize,
    check: bool,
    openmetrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kernels: Vec::new(),
        config: "Dist-DA-IO".to_string(),
        scale: "tiny".to_string(),
        filter: "all".to_string(),
        out: PathBuf::from("results"),
        top: 5,
        check: false,
        openmetrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--kernel" => args.kernels.push(value("--kernel")?),
            "--config" => args.config = value("--config")?,
            "--scale" => args.scale = value("--scale")?,
            "--filter" => args.filter = value("--filter")?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--top" => args.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--check" => args.check = true,
            "--openmetrics" => args.openmetrics = true,
            "--help" | "-h" => {
                return Err("usage: trace [--kernel NAME]... [--config LABEL] \
                            [--scale tiny|eval] [--filter SPEC] [--out DIR] \
                            [--top N] [--check] [--openmetrics]"
                    .to_string())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.kernels.is_empty() {
        args.kernels = ["fdt", "bfs", "pr"].iter().map(|s| s.to_string()).collect();
    }
    Ok(args)
}

fn config_by_label(label: &str) -> Option<RunConfig> {
    ConfigKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(label))
        .map(RunConfig::named)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = match args.scale.as_str() {
        "tiny" => Scale::tiny(),
        "eval" => Scale::eval(),
        other => {
            eprintln!("unknown scale: {other} (expected tiny or eval)");
            return ExitCode::FAILURE;
        }
    };
    let Some(cfg) = config_by_label(&args.config) else {
        eprintln!(
            "unknown config: {} (expected one of {})",
            args.config,
            ConfigKind::ALL.map(|k| k.label()).join(", ")
        );
        return ExitCode::FAILURE;
    };
    let workloads = suite(&scale);
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let mut failures = 0u32;
    for name in &args.kernels {
        let Some(w) = workloads.iter().find(|w| &w.name == name) else {
            eprintln!(
                "unknown kernel: {name} (available: {})",
                workloads
                    .iter()
                    .map(|w| w.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            failures += 1;
            continue;
        };
        let tracer = Tracer::with_filter(&args.filter);
        let r = distda_system::simulate_traced(&w.program, &*w.init, &cfg, &tracer);

        let stem = format!("trace_{}_{}", slug(&r.kernel), slug(&r.config));
        let json_path = args.out.join(format!("{stem}.json"));
        let csv_path = args.out.join(format!("{stem}.csv"));
        let comps = tracer.components();
        let doc = chrome::export_components(&comps);
        let csv = csvout::export_components(&comps);
        if let Err(e) =
            std::fs::write(&json_path, &doc).and_then(|()| std::fs::write(&csv_path, &csv))
        {
            eprintln!("cannot write trace artifacts: {e}");
            failures += 1;
            continue;
        }

        println!(
            "=== {} / {} — {} ticks, validated={} ===",
            r.kernel, r.config, r.ticks, r.validated
        );
        println!("trace: {}", json_path.display());
        println!("series: {}", csv_path.display());
        print!("{}", summary::render_components(&comps, args.top));
        let attr = summary::attribution_from(&comps, r.ticks);
        print!("{}", summary::render_attribution(&attr));

        if args.openmetrics {
            let mut reg = Registry::new();
            reg.ingest_run(&r);
            reg.ingest_trace_components(&[("kernel", &r.kernel), ("config", &r.config)], &comps);
            let om_path = args.out.join(format!("{stem}.om"));
            if let Err(e) = std::fs::write(&om_path, reg.openmetrics()) {
                eprintln!("cannot write {}: {e}", om_path.display());
                failures += 1;
            } else {
                println!("openmetrics: {}", om_path.display());
            }
        }

        if args.check {
            match json::parse(&doc) {
                Ok(v) => {
                    let n = v
                        .get("traceEvents")
                        .and_then(|e| e.as_arr())
                        .map_or(0, |a| a.len());
                    println!("check: JSON ok ({n} events)");
                }
                Err(e) => {
                    eprintln!("check FAILED: exported JSON does not parse: {e}");
                    failures += 1;
                }
            }
            let total: u64 = attr.parts.iter().map(|(_, t)| t).sum();
            if total != r.ticks {
                eprintln!(
                    "check FAILED: attribution covers {total} of {} ticks",
                    r.ticks
                );
                failures += 1;
            } else {
                println!("check: attribution partitions all {} ticks", r.ticks);
            }
            if !r.validated {
                eprintln!("check FAILED: run did not validate");
                failures += 1;
            }
        }
        println!();
    }
    if failures > 0 {
        eprintln!("{failures} failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
