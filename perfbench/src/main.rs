//! The repository benchmark: one command per workload that measures the
//! simulator end to end (instruments off) or per layer (a separate traced
//! run), checks every output it produces, and prints every metric by name
//! with its unit; the last stdout line is a one-line JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload host-ooo|offload|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` (which
//! metrics the JSON line carries) and `results/reproduce.log` (pinned
//! ticks at the default seed), and writes its run records and spans under
//! `perfbench/out/`. See `perfbench/README.md` for the workloads and for
//! which layer metric should move which end-to-end metric.

mod host;
mod pace;
mod pinned;
mod probes;
mod report;
mod serve_mix;
mod spans;
mod stats;
mod sweep;

use pinned::Pinned;
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The input seed of the paper's results: the only seed with pinned ticks.
const DEFAULT_SEED: u64 = 0xD15C0;
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = parse_u64(&val).ok_or_else(|| format!("bad seed `{val}`"))?,
            "--seconds" => {
                a.seconds = parse_u64(&val)
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds `{val}` (1..=600)"))?;
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{val}` (0|1)")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !["host-ooo", "offload", "serve-mix"].contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (host-ooo|offload|serve-mix)",
            a.workload
        ));
    }
    Ok(a)
}

/// The metric names `BENCHMARK.json` gates for this kind of run.
fn gated_metrics(trace: bool) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v = distda_trace::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = if trace { "per_layer" } else { "end_to_end" };
    match v.get(list) {
        Some(distda_trace::json::Value::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(distda_trace::json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: unnamed {list} metric"))
            })
            .collect(),
        _ => Err(format!("BENCHMARK.json: no `{list}` list")),
    }
}

/// Compares this run's exact counts with the ones an earlier run of the
/// same executable recorded for the same workload and seed, or records
/// them when there is none. A difference is a failed check.
fn check_exact_counts(a: &Args, counts: &[(&str, u64)], out: &mut Outcome) {
    let exe = std::env::current_exe().and_then(std::fs::read).map_or_else(
        |_| "unknown".to_string(),
        |b| distda_serve::cache::fnv1a_hex(&b),
    );
    let dir = Path::new(OUT_DIR).join("counts");
    let path = dir.join(format!("{}-{:x}-{exe}.txt", a.workload, a.seed));
    let now: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(prev) => out.check(if prev == now {
            Ok(())
        } else {
            Err(format!(
                "exact counts differ from an earlier run of this executable ({})",
                path.display()
            ))
        }),
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, now))
            {
                out.note(format!("warning: could not record exact counts: {e}"));
            }
        }
    }
}

fn write_record(a: &Args, env: &str, out: &Outcome) -> PathBuf {
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{:x}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"detail\":\"{}\"}}",
                distda_trace::json::escape(&m.name),
                if m.value.is_finite() { m.value } else { -1.0 },
                m.unit,
                distda_trace::json::escape(&m.detail)
            )
        })
        .collect();
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", distda_trace::json::escape(f)))
        .collect();
    let body = format!(
        "{{\"env\":{env},\"attempted\":{},\"failed\":{},\"failures\":[{}],\n\"metrics\":[\n{}\n],\n\"spans\":{}}}\n",
        out.attempted,
        out.failed,
        failures.join(","),
        metrics.join(",\n"),
        out.spans.to_json()
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let gated = match gated_metrics(args.trace) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu0 = host::CpuTimes::now();
    let mut out = Outcome::new();
    let pinned = if args.seed == DEFAULT_SEED {
        match Pinned::load() {
            Ok(p) => Some(p),
            Err(e) => {
                out.check(Err(e));
                None
            }
        }
    } else {
        None
    };
    let pinned = pinned.as_ref();
    let counts = match (args.workload.as_str(), args.trace) {
        ("host-ooo", false) => {
            sweep::measure(&sweep::HOST_OOO, args.seed, args.seconds, pinned, &mut out);
            Vec::new()
        }
        ("offload", false) => {
            sweep::measure(&sweep::OFFLOAD, args.seed, args.seconds, pinned, &mut out);
            Vec::new()
        }
        ("host-ooo", true) => sweep::trace(&sweep::HOST_OOO, args.seed, pinned, &mut out),
        ("offload", true) => sweep::trace(&sweep::OFFLOAD, args.seed, pinned, &mut out),
        (_, false) => {
            serve_mix::measure(args.seed, args.seconds, &mut out);
            Vec::new()
        }
        (_, true) => serve_mix::trace(args.seed, args.seconds, &mut out),
    };
    if !counts.is_empty() {
        check_exact_counts(&args, &counts, &mut out);
    }
    if out.attempted == 0 {
        out.check(Err("the run checked no output".into()));
    }
    if args.trace {
        out.metric(
            "peak_rss_mb",
            host::peak_rss_mib(),
            "MiB",
            "VmHWM of this process (traced run)",
        );
    }

    let cpu = host::CpuTimes::now().since(cpu0);
    let steal_share = cpu.steal as f64 / cpu.total.max(1) as f64;
    let env = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":\"{}\",\
         \"available_parallelism\":{},\"steal_jiffies\":{},\"user_jiffies\":{},\"total_jiffies\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        distda_trace::json::escape(&host::git_rev()),
        host::parallelism(),
        cpu.steal,
        cpu.user,
        cpu.total,
    );
    println!(
        "perfbench {} seed={:#x} seconds={} trace={} git_rev={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::git_rev(),
        host::parallelism()
    );
    println!(
        "  steal over the run: {} of {} jiffies ({:.2}% of all CPU time, {:.2}% of user time) — a noise diagnostic, not a filter",
        cpu.steal,
        cpu.total,
        100.0 * steal_share,
        100.0 * cpu.steal as f64 / cpu.user.max(1) as f64
    );
    if args.seed != DEFAULT_SEED {
        println!(
            "  seed is not {DEFAULT_SEED:#x}: pinned ticks are not checked; validation and determinism are"
        );
    }
    let line = out.render_json(&gated);
    let record = write_record(&args, &env, &out);
    print!("{}", out.render_text());
    if args.trace {
        println!("  spans: name, count, total ms, self ms (total minus child spans)");
        for (name, t) in out.spans.totals() {
            println!(
                "    {name:<14} {:>6} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        println!(
            "  end to end: {:.3} ms in top-level spans",
            out.spans.root_ns() as f64 / 1e6
        );
    }
    println!("  record: {}", record.display());
    println!("{line}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
