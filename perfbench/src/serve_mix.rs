//! The `serve-mix` workload: an in-process `distda-serve` daemon with two
//! pool workers and a memory-only cache, driven in a closed loop by one
//! client connection. Hit requests (a 1-cell sweep of a cell cached during
//! warm-up) and cold requests (a 2-cell `dedupe:false` sweep that both
//! workers simulate) alternate in an order drawn from the seed.

use crate::host;
use crate::pace::{self, Pacer, Sample};
use crate::probes;
use crate::report::Outcome;
use crate::stats::percentile;
use distda_serve::{encode_result, CellResult, Client, ServeConfig, Server, SweepReply};
use distda_sim::SplitMix64;
use distda_system::{ConfigKind, RunConfig};
use distda_workloads::{suite, Scale, Workload};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Pool workers: two, so a 2-cell cold request keeps both busy. Fixed
/// rather than the host's parallelism so runs compare across hosts.
const WORKERS: usize = 2;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Samples each request class needs: three cycles of the cold deck (36
/// requests each), which also leaves 10 samples beyond every p90.
const MIN_PER_CLASS: usize = 108;
/// Hard stop for the sample floor on a very slow host.
const MAX_LOOP: Duration = Duration::from_secs(150);
const SCALE: &str = "tiny";
/// Configurations per kernel: the six paper configs. Cell `c` is kernel
/// `c / KINDS` under `ConfigKind::ALL[c % KINDS]`.
const KINDS: usize = ConfigKind::ALL.len();

/// One request: kernel index, first config index, and config count; its
/// cells are that kernel under consecutive configs.
type Request = (usize, usize, usize);

/// A seeded deck of requests: each is drawn once per cycle, in an order
/// reshuffled every cycle, so every run asks for the same mix and only
/// the order follows the seed.
struct Deck {
    cards: Vec<Request>,
    next: usize,
}

impl Deck {
    fn new(cards: Vec<Request>) -> Self {
        let next = cards.len();
        Self { cards, next }
    }

    fn draw(&mut self, rng: &mut SplitMix64) -> Request {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// A running daemon with a connected, warmed-up client.
struct Service {
    server: Server,
    client: Client,
}

impl Service {
    /// Starts the daemon, connects, and runs the warm-up sweep that fills
    /// the cache with every cell of `kernels` x `configs`.
    fn start(out: &mut Outcome, kernels: &[&str], configs: &[&str]) -> Result<Self, String> {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            cache_dir: None,
            cache_bytes: 0,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let mut client = Client::connect(&server.local_addr().to_string())
            .map_err(|e| format!("connect: {e}"))?;
        match client.sweep(kernels, configs, SCALE, true, true)? {
            SweepReply::Rejected { .. } => return Err("warm-up sweep rejected".into()),
            SweepReply::Done(t) => {
                out.check(if t.results.len() == kernels.len() * configs.len() {
                    Ok(())
                } else {
                    Err(format!("warm-up returned {} results", t.results.len()))
                });
                for r in &t.results {
                    out.check(if r.ok {
                        Ok(())
                    } else {
                        Err(format!("warm-up {}/{}: {:?}", r.kernel, r.config, r.error))
                    });
                }
            }
        }
        Ok(Self { server, client })
    }

    /// Closes the connection, stops the daemon and waits (up to 5 s) for
    /// its connection and pool threads to exit: `Server::shutdown` joins
    /// only the accept loop, and a lingering daemon must not share the
    /// CPUs with the next timed set-up or outlive the run.
    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        let t = Instant::now();
        while host::thread_count() > 1 && t.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// What the loop saw, kept for checking against direct simulation after
/// the timed part.
#[derive(Default)]
struct Seen {
    hit_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    /// Simulated ticks per cold request, aligned with `cold_ms`.
    cold_ticks: Vec<u64>,
    /// Cold requests per deck cycle.
    cold_cycle: usize,
    results: u64,
    /// (request seq, cell, payload) per hit.
    hits: Vec<(u64, usize, String)>,
    /// (request seq, cell, ticks) per cold result.
    colds: Vec<(u64, usize, u64)>,
}

/// Paced, timed set-ups (start + warm-up) of the service.
struct SetUps<'a> {
    kernels: Vec<&'a str>,
    configs: Vec<&'a str>,
    pacer: Pacer,
    samples: Vec<Sample>,
}

impl<'a> SetUps<'a> {
    fn new(ws: &'a [Workload]) -> Self {
        Self {
            kernels: ws.iter().map(|w| w.name.as_str()).collect(),
            configs: ConfigKind::ALL.iter().map(|k| k.label()).collect(),
            pacer: Pacer::new(),
            samples: Vec::new(),
        }
    }

    /// Times one set-up; `None` after counting its failure.
    fn start(&mut self, out: &mut Outcome) -> Option<Service> {
        let (res, s) = self
            .pacer
            .time(|| Service::start(out, &self.kernels, &self.configs));
        match res {
            Ok(svc) => {
                self.samples.push(s);
                Some(svc)
            }
            Err(e) => {
                out.check(Err(e));
                None
            }
        }
    }

    /// Records `setup_s` and the host's speed.
    fn report(&self, out: &mut Outcome) {
        let what = format!(
            "Server::start + warm-up sweep of all {} cells",
            self.kernels.len() * self.configs.len()
        );
        pace::report_setup(&self.samples, &what, out);
        pace::report_speed(&self.pacer, out);
    }
}

/// The closed request loop: one hit and one cold request per round, in a
/// seeded order, until `seconds` have passed and both classes have
/// [`MIN_PER_CLASS`] samples. With `traced`, each request gets a span
/// keyed by its sequence number and tagged hit or cold.
fn request_loop(
    svc: &mut Service,
    ws: &[Workload],
    seed: u64,
    seconds: u64,
    traced: bool,
    out: &mut Outcome,
) -> Seen {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E_5E4E);
    let mut hits = Deck::new(
        (0..ws.len() * KINDS)
            .map(|c| (c / KINDS, c % KINDS, 1))
            .collect(),
    );
    let colds: Vec<Request> = (0..ws.len())
        .flat_map(|w| (0..KINDS).step_by(2).map(move |k| (w, k, 2)))
        .collect();
    let mut seen = Seen {
        cold_cycle: colds.len(),
        ..Seen::default()
    };
    let mut colds = Deck::new(colds);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut seq = 0u64;
    loop {
        let enough = seen.hit_ms.len() >= MIN_PER_CLASS && seen.cold_ms.len() >= MIN_PER_CLASS;
        let elapsed = start.elapsed();
        if (enough && elapsed >= budget) || elapsed >= MAX_LOOP {
            break;
        }
        let hit_first = rng.below(2) == 0;
        for is_hit in [hit_first, !hit_first] {
            seq += 1;
            let req = if is_hit {
                hits.draw(&mut rng)
            } else {
                colds.draw(&mut rng)
            };
            let (w, k, n) = req;
            let configs: Vec<&str> = ConfigKind::ALL[k..k + n]
                .iter()
                .map(|c| c.label())
                .collect();
            let tag = if is_hit { "hit" } else { "cold" };
            let span = traced.then(|| out.spans.open("request", &format!("{seq} {tag}"), None));
            let t = Instant::now();
            let reply = svc
                .client
                .sweep(&[ws[w].name.as_str()], &configs, SCALE, is_hit, is_hit);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some(id) = span {
                out.spans.close(id);
            }
            let verdict = match reply {
                Err(e) => Err(e),
                Ok(SweepReply::Rejected { retry_after_ms }) => {
                    Err(format!("rejected, retry after {retry_after_ms} ms"))
                }
                Ok(SweepReply::Done(tr)) => {
                    file_results(&mut seen, ws, seq, req, &tr.results, is_hit)
                }
            };
            if let Ok(ticks) = verdict {
                if is_hit {
                    seen.hit_ms.push(ms);
                } else {
                    seen.cold_ms.push(ms);
                    seen.cold_ticks.push(ticks);
                }
            }
            out.check(
                verdict
                    .map(drop)
                    .map_err(|e| format!("request {seq} ({tag}): {e}")),
            );
        }
    }
    seen
}

/// Checks that a reply carries the requested cells in submission order,
/// each `ok` and (un)cached as its class demands, and files them for the
/// checks against direct simulation. Returns their summed ticks.
fn file_results(
    seen: &mut Seen,
    ws: &[Workload],
    seq: u64,
    (w, k, n): Request,
    results: &[CellResult],
    is_hit: bool,
) -> Result<u64, String> {
    if results.len() != n {
        return Err(format!("{} results for a {n}-cell request", results.len()));
    }
    for (i, r) in results.iter().enumerate() {
        let cell = format!("{}/{}", r.kernel, r.config);
        let want = RunConfig::named(ConfigKind::ALL[k + i]).label();
        if r.kernel != ws[w].program.name || r.config != want {
            return Err(format!(
                "{cell} where {}/{want} was asked for",
                ws[w].program.name
            ));
        }
        if !r.ok {
            return Err(format!("{cell}: {:?}", r.error));
        }
        if r.cached != is_hit {
            return Err(format!("{cell}: cached={}", r.cached));
        }
        let c = w * KINDS + k + i;
        if is_hit {
            let payload = r.payload.clone().ok_or("hit reply without payload")?;
            seen.hits.push((seq, c, payload));
        } else {
            seen.colds.push((seq, c, r.ticks));
        }
    }
    seen.results += results.len() as u64;
    Ok(results.iter().map(|r| r.ticks).sum())
}

/// Every hit payload must be byte-identical to `encode_result` of the
/// direct simulation, and every cold result's ticks must equal it. A
/// mismatch fails the request it came from.
fn check_against_direct(ws: &[Workload], seen: &Seen, out: &mut Outcome) {
    let mut direct: HashMap<usize, Result<(u64, String), String>> = HashMap::new();
    let mut get = |c: usize| {
        direct
            .entry(c)
            .or_insert_with(|| {
                ws[c / KINDS]
                    .try_simulate(&RunConfig::named(ConfigKind::ALL[c % KINDS]))
                    .map(|r| (r.ticks, encode_result(&r)))
                    .map_err(|e| format!("direct simulation failed: {e}"))
            })
            .clone()
    };
    let mut bad: BTreeMap<u64, String> = BTreeMap::new();
    for (seq, c, payload) in &seen.hits {
        match get(*c) {
            Ok((_, p)) if p == *payload => {}
            Ok(_) => {
                bad.entry(*seq)
                    .or_insert_with(|| "hit payload differs from direct simulation".into());
            }
            Err(e) => {
                bad.entry(*seq).or_insert(e);
            }
        }
    }
    for (seq, c, ticks) in &seen.colds {
        match get(*c) {
            Ok((t, _)) if t == *ticks => {}
            Ok((t, _)) => {
                bad.entry(*seq)
                    .or_insert_with(|| format!("cold ticks {ticks}, direct simulation {t}"));
            }
            Err(e) => {
                bad.entry(*seq).or_insert(e);
            }
        }
    }
    for (seq, msg) in bad {
        out.fail(format!("request {seq}: {msg}"));
    }
}

/// Latency percentiles (printed, not gated: they exist on this workload
/// only) and the two throughput metrics every workload reports.
fn report(seen: &Seen, out: &mut Outcome) {
    for (class, xs) in [("hit", &seen.hit_ms), ("cold", &seen.cold_ms)] {
        for p in [50.0, 90.0] {
            if let Some((v, beyond)) = percentile(xs, p) {
                out.metric(
                    &format!("{class}_p{p}_ms"),
                    v,
                    "ms",
                    format!(
                        "client round trip, n={} ({beyond} samples beyond)",
                        xs.len()
                    ),
                );
            }
        }
    }
    // Whole deck cycles only, so every run weighs the same cells.
    let cycle = seen.cold_cycle.max(1);
    let n = match seen.cold_ms.len() / cycle * cycle {
        0 => seen.cold_ms.len(),
        n => n,
    };
    let ticks: u64 = seen.cold_ticks[..n].iter().sum();
    let cold_s: f64 = seen.cold_ms[..n].iter().sum::<f64>() / 1e3;
    out.metric(
        "sim_ticks_per_s",
        ticks as f64 / cold_s.max(1e-9),
        "ticks/s",
        format!(
            "{ticks} simulated ticks of the first {n} cold requests (whole deck cycles) over their summed round trips"
        ),
    );
    let all_s = (seen.cold_ms.iter().sum::<f64>() + seen.hit_ms.iter().sum::<f64>()) / 1e3;
    out.metric(
        "results_per_s",
        seen.results as f64 / all_s.max(1e-9),
        "1/s",
        format!(
            "{} cell results over the summed round trips of {} requests",
            seen.results,
            seen.hit_ms.len() + seen.cold_ms.len()
        ),
    );
}

/// The untraced run.
pub fn measure(seed: u64, seconds: u64, out: &mut Outcome) {
    let ws = suite(&Scale::tiny());
    let mut setups = SetUps::new(&ws);
    // The loop runs on the first service and the peak RSS is read right
    // after it, so it is that of one service's lifetime: each restart
    // leaves freed memory in the allocator's per-thread arenas, about
    // 0.5 MiB more per set-up, which no user of one service pays.
    let Some(mut svc) = setups.start(out) else {
        return;
    };
    let seen = request_loop(&mut svc, &ws, seed, seconds, false, out);
    svc.stop();
    let rss = host::peak_rss_mib();
    setups.pacer.resync();
    for _ in 1..SETUP_REPS {
        match setups.start(out) {
            Some(svc) => svc.stop(),
            None => break,
        }
    }
    setups.report(out);
    report(&seen, out);
    out.metric(
        "peak_rss_mb",
        rss,
        "MiB",
        "VmHWM of this process after the request loop on its first service",
    );
    check_against_direct(&ws, &seen, out);
}

/// The traced run: the same loop with a span per request, then the
/// traced pass over every tiny cell and the layer probes; reports
/// `serve.hit_residual_ms`, the part of a hit's round trip no probed
/// layer accounts for. Returns the exact counts.
pub fn trace(seed: u64, seconds: u64, out: &mut Outcome) -> Vec<(&'static str, u64)> {
    let ws = suite(&Scale::tiny());
    let root = out.spans.open("setup", "serve", None);
    let mut setups = SetUps::new(&ws);
    let svc = setups.start(out);
    out.spans.close(root);
    setups.report(out);
    let Some(mut svc) = svc else {
        return Vec::new();
    };
    let seen = request_loop(&mut svc, &ws, seed, seconds, true, out);
    svc.stop();
    report(&seen, out);
    let cells: Vec<(usize, RunConfig)> = (0..ws.len() * KINDS)
        .map(|c| (c / KINDS, RunConfig::named(ConfigKind::ALL[c % KINDS])))
        .collect();
    let counts = probes::trace_cells(&ws, &cells, None, out);
    check_against_direct(&ws, &seen, out);
    let hit_p50 = percentile(&seen.hit_ms, 50.0).map_or(0.0, |p| p.0);
    if let Some(sum) = out.get("serve.probe_sum_ms").map(|m| m.value) {
        out.metric(
            "serve.hit_residual_ms",
            hit_p50 - sum,
            "ms",
            format!(
                "hit_p50_ms {hit_p50:.3} minus serve.probe_sum_ms {sum:.4}: time no probed layer accounts for"
            ),
        );
    }
    counts
}
