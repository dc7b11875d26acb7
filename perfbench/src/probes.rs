//! Per-layer measurements, each taken from outside by timing calls into
//! one crate's public functions: the reference interpreter, the compiler
//! and CGRA mapper, the scheduler, ports, caches, mesh and the serve
//! encoding/cache/protocol layers; plus the traced re-runs of a cell under
//! the self-profiler and the explain sampler.

use crate::pinned::Pinned;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::median;
use distda_accel::{cgra_map, CgraConfig};
use distda_compiler::{compile, PartitionMode};
use distda_ir::interp::{self, Memory};
use distda_ir::program::Program;
use distda_mem::cache::{Cache, Lookup};
use distda_mem::CacheParams;
use distda_noc::{Mesh, NocConfig, Packet, TrafficClass};
use distda_serve::protocol::{parse_request, render_result, ResultLine};
use distda_serve::{decode_result, encode_result, ResultCache};
use distda_sim::sample::{DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_TICKS};
use distda_sim::time::ClockDomain;
use distda_sim::{Channel, Profiler, Sampler};
use distda_system::{ConfigKind, RunConfig, RunResult};
use distda_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per micro-probe; the probe reports their median.
const BATCHES: usize = 5;

/// Interprets `w` once inside an `interp` span under `parent` and installs
/// the result as the workload's shared reference execution. Returns the
/// host seconds `distda_ir::interp::run` took.
fn interpret(w: &Workload, spans: &mut Spans, parent: usize) -> f64 {
    let mut mem = Memory::for_program(&w.program);
    (w.init)(&mut mem);
    let (scalars, dt) = spans.time("interp", &w.name, Some(parent), || {
        interp::run(&w.program, &mut mem)
    });
    // A reference interpretation installed earlier is identical: the
    // interpreter is deterministic.
    let _ = w.ref_cache.set((mem, scalars));
    dt
}

/// The CGRA grid a configuration maps onto, if it has one.
fn grid_for(kind: ConfigKind) -> Option<CgraConfig> {
    match kind {
        ConfigKind::MonoDAF => Some(CgraConfig::mono_da_8x8()),
        ConfigKind::DistDAF => Some(CgraConfig::dist_da_5x5()),
        _ => None,
    }
}

/// Compiles `prog` in `mode` and maps every partition onto `kind`'s CGRA
/// grid, if it has one.
fn compile_and_map(prog: &Program, mode: PartitionMode, kind: ConfigKind) {
    let compiled = compile(prog, mode);
    if let Some(grid) = grid_for(kind) {
        for plan in &compiled.offloads {
            for part in &plan.partitions {
                black_box(cgra_map(part, &grid));
            }
        }
    }
    black_box(compiled);
}

/// Median over [`BATCHES`] of the mean nanoseconds per call of `f`, each
/// batch making `ops` calls.
fn per_op_ns(ops: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..ops {
            f(i);
            i += 1;
        }
        per.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per)
}

/// Totals over the traced re-runs of every cell of a workload.
#[derive(Debug, Default)]
struct CellTotals {
    cells: u64,
    plain_s: f64,
    profiled_s: f64,
    explained_s: f64,
    /// Profiled host ns by layer group, plus the wake probe.
    host_ns: [u64; GROUPS.len()],
    ticks_executed: u64,
    ticks_skipped: u64,
    skip_spans: u64,
    probes: u64,
    sim_ticks: u64,
    cache_accesses: u64,
    noc_bytes: u64,
    kernel_s: Vec<(String, f64)>,
    sample: Option<RunResult>,
}

/// Profile share groups, in report order: component-name groups, the
/// scheduler's wake probe, and `other` for any component no group names.
const GROUPS: [&str; 8] = [
    "host", "mem", "noc", "engines", "delivery", "net_out", "probe", "other",
];

fn group_of(component: &str) -> usize {
    match component {
        "host" => 0,
        "mem" => 1,
        "noc" => 2,
        c if c.starts_with("engine.") => 3,
        "delivery" => 4,
        "net-out" => 5,
        _ => 7,
    }
}

/// Strips the `explain.*` report keys an explained run adds, so its
/// encoding compares equal to the plain run's when nothing else moved.
fn without_explain(r: &RunResult) -> RunResult {
    let mut plain = r.clone();
    let mut report = distda_sim::Report::new();
    for (k, v) in r.report.iter().filter(|(k, _)| !k.starts_with("explain.")) {
        report.add(k, v);
    }
    plain.report = report;
    plain
}

impl CellTotals {
    /// Simulates one cell three times under spans — plain, self-profiled
    /// and explained — and checks that the instruments perturbed nothing,
    /// that the plain run validated and, at the pinned seed, that its
    /// ticks match the reproduce log.
    fn run_cell(
        &mut self,
        w: &Workload,
        cfg: &RunConfig,
        key: &str,
        root: usize,
        pinned: Option<&Pinned>,
        out: &mut Outcome,
    ) {
        let (plain, plain_s) = out
            .spans
            .time("simulate", key, Some(root), || w.try_simulate(cfg));
        let plain = match plain {
            Ok(r) => r,
            Err(e) => return out.check(Err(format!("{key}: {e}"))),
        };
        let profiler = Profiler::enabled();
        let (profiled, profiled_s) = out.spans.time("profile", key, Some(root), || {
            w.try_simulate_profiled(cfg, &profiler)
        });
        let sampler = Sampler::enabled(DEFAULT_WINDOW_TICKS, DEFAULT_WINDOW_CAP);
        let (explained, explained_s) = out.spans.time("explain", key, Some(root), || {
            w.try_simulate_explained(cfg, None, &sampler)
        });

        let chk = out.spans.open("check", key, Some(root));
        let base = encode_result(&plain);
        let verdict = if !plain.validated {
            Err(format!(
                "{key}: simulated memory differs from the interpreter"
            ))
        } else if let Err(e) = pinned.map_or(Ok(()), |p| {
            p.check(&plain.kernel, &plain.config, plain.ticks)
        }) {
            Err(e)
        } else {
            match (&profiled, &explained) {
                (Err(e), _) => Err(format!("{key}: profiled run failed: {e}")),
                (_, Err(e)) => Err(format!("{key}: explained run failed: {e}")),
                (Ok(p), _) if encode_result(p) != base => {
                    Err(format!("{key}: the self-profiler changed the result"))
                }
                (_, Ok((x, _))) if encode_result(&without_explain(x)) != base => {
                    Err(format!("{key}: the explain sampler changed the result"))
                }
                _ => Ok(()),
            }
        };
        out.spans.close(chk);
        out.check(verdict);

        self.cells += 1;
        self.plain_s += plain_s;
        self.profiled_s += profiled_s;
        self.explained_s += explained_s;
        if let Some(snap) = profiler.snapshot() {
            for c in &snap.comps {
                self.host_ns[group_of(&c.name)] += c.host_ns;
            }
            self.host_ns[6] += snap.probe_ns;
            self.ticks_executed += snap.ticks_executed;
            self.ticks_skipped += snap.ticks_skipped;
            self.skip_spans += snap.skip_spans;
            self.probes += snap.probes;
        }
        self.sim_ticks += plain.ticks;
        self.cache_accesses += plain.cache_accesses;
        self.noc_bytes += plain.noc_bytes.iter().sum::<u64>();
        match self.kernel_s.iter_mut().find(|(k, _)| *k == w.name) {
            Some(e) => e.1 += plain_s,
            None => self.kernel_s.push((w.name.clone(), plain_s)),
        }
        self.sample.get_or_insert(plain);
    }

    /// A real result for the serve-layer probes.
    fn sample_result(&self) -> Option<&RunResult> {
        self.sample.as_ref()
    }

    /// Simulated ticks and summed `sched.*` counts, for the cross-run
    /// determinism record.
    fn exact_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sched.ticks_executed", self.ticks_executed),
            ("sched.ticks_skipped", self.ticks_skipped),
            ("sched.skip_spans", self.skip_spans),
            ("sched.probes", self.probes),
            ("model.sim_ticks", self.sim_ticks),
            ("model.cache_accesses", self.cache_accesses),
            ("model.noc_bytes", self.noc_bytes),
        ]
    }

    /// Emits profile shares, overhead ratios, exact counts and per-kernel
    /// host seconds.
    fn report(&self, out: &mut Outcome) {
        let total: u64 = self.host_ns.iter().sum();
        let n = self.cells;
        for (g, ns) in GROUPS.iter().zip(self.host_ns) {
            out.metric(
                &format!("profile.share.{g}"),
                ns as f64 / total.max(1) as f64,
                "ratio",
                format!("of profiled host time over {n} cells; scan-probe path (the profiler forces it)"),
            );
        }
        out.metric(
            "profile.overhead_ratio",
            self.profiled_s / self.plain_s.max(1e-9),
            "ratio",
            format!("profiled over plain host seconds, {n} cells"),
        );
        out.metric(
            "explain.overhead_ratio",
            self.explained_s / self.plain_s.max(1e-9),
            "ratio",
            format!("explained over plain host seconds, {n} cells"),
        );
        for (name, v) in self.exact_counts() {
            let unit = if name.ends_with("ticks") || name.starts_with("sched.ticks") {
                "ticks"
            } else {
                "count"
            };
            out.metric(
                name,
                v as f64,
                unit,
                format!("exact, summed over {n} cells"),
            );
        }
        for (k, s) in &self.kernel_s {
            out.metric(
                &format!("system.kernel_s.{k}"),
                *s,
                "s",
                "plain host seconds summed over the workload's configs (traced pass)",
            );
        }
    }
}

/// Compile and CGRA-mapping probes over the workload's programs, in both
/// partitioning modes (`compiler.compile_ms`) and onto both CGRA grids
/// (`accel.cgra_map_ms`).
fn compiler_probes(programs: &[&Program], out: &mut Outcome) {
    const MIN_SECS: f64 = 0.01;
    let (mut compile_s, mut compiles) = (0.0, 0u64);
    let (mut map_s, mut maps) = (0.0, 0u64);
    for prog in programs {
        for mode in [PartitionMode::Monolithic, PartitionMode::Distributed] {
            let t = Instant::now();
            let compiled = loop {
                let c = black_box(compile(black_box(prog), mode));
                compiles += 1;
                if t.elapsed().as_secs_f64() >= MIN_SECS {
                    break c;
                }
            };
            compile_s += t.elapsed().as_secs_f64();
            let grid = match mode {
                PartitionMode::Monolithic => CgraConfig::mono_da_8x8(),
                PartitionMode::Distributed => CgraConfig::dist_da_5x5(),
            };
            let parts: Vec<_> = compiled
                .offloads
                .iter()
                .flat_map(|p| &p.partitions)
                .collect();
            if parts.is_empty() {
                continue;
            }
            let t = Instant::now();
            loop {
                for part in &parts {
                    black_box(cgra_map(black_box(part), &grid));
                    maps += 1;
                }
                if t.elapsed().as_secs_f64() >= MIN_SECS {
                    break;
                }
            }
            map_s += t.elapsed().as_secs_f64();
        }
    }
    out.metric(
        "compiler.compile_ms",
        compile_s * 1e3 / compiles.max(1) as f64,
        "ms",
        format!("mean per distda_compiler::compile call, {compiles} calls, both modes"),
    );
    out.metric(
        "accel.cgra_map_ms",
        map_s * 1e3 / maps.max(1) as f64,
        "ms",
        format!("mean per distda_accel::cgra_map call, {maps} calls over compiled partitions"),
    );
}

/// Scheduler, port, cache and mesh micro-probes.
fn substrate_probes(out: &mut Outcome) {
    let kb = distda_bench::kernel_bench::run_kernel_bench();
    out.metric(
        "sim.sched_busy_ticks_per_s",
        kb.busy_ticks_per_sec(),
        "ticks/s",
        "distda_bench::run_kernel_bench, every component busy",
    );
    out.metric(
        "sim.sched_idle_ticks_per_s",
        kb.idle_ticks_per_sec(),
        "ticks/s",
        "distda_bench::run_kernel_bench, ~99% of ticks skipped",
    );

    let mut ch: Channel<u64> = Channel::bounded(16);
    let port_ns = per_op_ns(1_000_000, |i| {
        let _ = ch.tx().offer(black_box(i));
        black_box(ch.rx().accept());
    });
    out.metric(
        "sim.port_ns",
        port_ns,
        "ns",
        "one Channel offer-then-accept pair, median of 5 batches",
    );

    let params = CacheParams {
        size_bytes: 32 * 1024,
        assoc: 8,
        latency: 2,
        mshrs: 8,
    };
    let lines = params.size_bytes / distda_mem::LINE_BYTES;
    for (name, span, what) in [
        (
            "mem.cache_hit_ns",
            lines / 2,
            "working set half the 32 KiB cache",
        ),
        (
            "mem.cache_miss_ns",
            lines * 4,
            "working set 4x the 32 KiB cache",
        ),
    ] {
        let mut cache = Cache::new(params);
        for l in 0..span {
            if cache.access(l, false) == Lookup::Miss {
                cache.fill(l, false);
            }
        }
        let ns = per_op_ns(1_000_000, |i| {
            let line = i % span;
            if cache.access(black_box(line), false) == Lookup::Miss {
                cache.fill(line, false);
            }
        });
        out.metric(
            name,
            ns,
            "ns",
            format!("Cache::access (+fill on miss), {what}"),
        );
    }

    let clock = ClockDomain::from_ghz(2.0);
    let mut mesh: Mesh<u64> = Mesh::new(4, 2, NocConfig::default(), clock);
    let nodes = mesh.node_count() as u64;
    let period = clock.period_ticks();
    let noc_ns = per_op_ns(200_000, |i| {
        let src = (i % nodes) as usize;
        let dst = ((i * 3 + 1) % nodes) as usize;
        let now = i * period;
        let _ = mesh.try_inject(now, Packet::new(src, dst, 64, TrafficClass::AccData, i));
        mesh.tick(now);
        for n in 0..nodes as usize {
            black_box(mesh.drain_inbox(n));
        }
    });
    out.metric(
        "noc.packet_ns",
        noc_ns,
        "ns",
        "Mesh::try_inject + tick + drain_inbox on the 4x2 mesh, per packet",
    );
}

/// Serve-layer probes over one real result, and their sum.
fn serve_probes(r: &RunResult, out: &mut Outcome) {
    let payload = encode_result(r);
    let request = format!(
        "{{\"req\":\"sweep\",\"kernels\":[\"{}\"],\"configs\":[\"{}\"],\
         \"scale\":\"tiny\",\"dedupe\":true,\"payload\":true}}",
        r.kernel, r.config
    );
    let line = render_result(&ResultLine {
        job: 1,
        seq: 1,
        kernel: &r.kernel,
        config: &r.config,
        config_hash: "0123456789abcdef",
        cached: true,
        ok: true,
        ticks: r.ticks,
        error: None,
        payload: Some(&payload),
        bottleneck: None,
    });
    let keys: Vec<String> = (0..64)
        .map(|i| format!("{}/tiny/{i:016x}", r.kernel))
        .collect();
    let mut cache = ResultCache::new(keys.len(), None);

    let parse = per_op_ns(20_000, |_| {
        black_box(parse_request(black_box(&request)).is_ok());
    });
    let encode = per_op_ns(1_000, |_| {
        black_box(encode_result(black_box(r)));
    });
    let decode = per_op_ns(1_000, |_| {
        black_box(decode_result(black_box(&payload)).is_ok());
    });
    let put = per_op_ns(1_000, |i| cache.put(&keys[i as usize % keys.len()], r));
    let get = per_op_ns(1_000, |i| {
        black_box(cache.get(&keys[i as usize % keys.len()]));
    });
    let json = per_op_ns(1_000, |_| {
        black_box(distda_trace::json::parse(black_box(&line)).is_ok());
    });
    let probes = [
        (
            "serve.parse_request_us",
            parse,
            "protocol::parse_request of a 1-cell sweep line",
        ),
        ("serve.encode_us", encode, "encode_result of a real result"),
        ("serve.decode_us", decode, "decode_result of its payload"),
        ("serve.cache_put_us", put, "ResultCache::put, memory only"),
        (
            "serve.cache_get_us",
            get,
            "ResultCache::get hit, memory only",
        ),
        (
            "serve.json_parse_us",
            json,
            "distda_trace::json::parse of a result line with payload",
        ),
    ];
    let mut sum_ns = 0.0;
    for (name, ns, what) in probes {
        out.metric(name, ns / 1e3, "us", format!("{what}, median of 5 batches"));
        sum_ns += ns;
    }
    out.metric(
        "serve.probe_sum_ms",
        sum_ns / 1e6,
        "ms",
        "sum of the six serve probes",
    );
}

/// The traced pass shared by every workload: each cell under a `cell`
/// span keyed `kernel/config`, with children for the reference
/// interpretation (first cell of each kernel), compile and CGRA mapping
/// (accelerator configs), the plain, profiled and explained simulations
/// and the checks; then the layer probes. Returns the exact counts.
pub fn trace_cells(
    ws: &[Workload],
    cells: &[(usize, RunConfig)],
    pinned: Option<&Pinned>,
    out: &mut Outcome,
) -> Vec<(&'static str, u64)> {
    let mut interp_s = 0.0;
    let mut acc = CellTotals::default();
    for (wi, cfg) in cells {
        let w = &ws[*wi];
        let key = format!("{}/{}", w.name, cfg.label());
        let root = out.spans.open("cell", &key, None);
        if w.ref_cache.get().is_none() {
            interp_s += interpret(w, &mut out.spans, root);
        }
        if let Some(mode) = cfg.kind.partition_mode() {
            out.spans.time("compile", &key, Some(root), || {
                compile_and_map(&w.program, mode, cfg.kind)
            });
        }
        acc.run_cell(w, cfg, &key, root, pinned, out);
        out.spans.close(root);
    }
    out.metric(
        "ir.interp_ms",
        interp_s * 1e3,
        "ms",
        format!(
            "distda_ir::interp::run over the workload's {} programs, once each",
            ws.len()
        ),
    );
    acc.report(out);
    layer_probes(ws, acc.sample_result(), out);
    acc.exact_counts()
}

/// Every probe that does not depend on the workload's cells, run on the
/// workload's programs and one of its results.
fn layer_probes(ws: &[Workload], sample: Option<&RunResult>, out: &mut Outcome) {
    let programs: Vec<&Program> = ws.iter().map(|w| &w.program).collect();
    let root = out.spans.open("probes", "layers", None);
    let id = out.spans.open("compile", "probe", Some(root));
    compiler_probes(&programs, out);
    out.spans.close(id);
    let id = out.spans.open("substrate", "probe", Some(root));
    substrate_probes(out);
    out.spans.close(id);
    match sample {
        Some(r) => {
            let id = out.spans.open("serve-layers", "probe", Some(root));
            serve_probes(r, out);
            out.spans.close(id);
        }
        None => out.check(Err(
            "no successful cell to probe the serve layers with".into()
        )),
    }
    out.spans.close(root);
}
