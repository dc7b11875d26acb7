//! The sim-as-a-service smoke test (also run as CI's `serve-smoke` job):
//! an in-process daemon, one small sweep submitted twice, with the second
//! submission served entirely from the content-addressed cache — zero new
//! simulated ticks, byte-identical to both the first submission and a
//! direct `try_run_matrix` of the same cells. The config list mixes the
//! paper machine with an extended-topology label (a 4x4 mesh over a
//! 200-cycle far-memory pool), so the daemon's label-to-config path
//! covers the scenario families, not just the six paper points.

use distda_bench::try_run_matrix;
use distda_serve::{
    encode_result, fetch_metrics, Client, ServeConfig, Server, SweepReply, MAX_LINE_BYTES,
};
use distda_system::{ConfigKind, RunConfig};
use distda_workloads::{nw, pointer_chase, Scale};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

#[test]
fn served_sweep_dedupes_and_matches_direct_simulation() {
    let dir = std::env::temp_dir().join(format!("distda-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 32,
        cache_mem: 32,
        cache_dir: Some(dir.clone()),
        cache_bytes: 0,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("daemon answers ping");

    let kernels = ["pch", "nw"];
    let configs = ["OoO", "Dist-DA-F", "Dist-DA-IO:4x4:fm200"];
    let run = |client: &mut Client| match client
        .sweep(&kernels, &configs, "tiny", true, true)
        .expect("sweep")
    {
        SweepReply::Done(t) => t,
        SweepReply::Rejected { .. } => panic!("tiny job must be admitted"),
    };

    let first = run(&mut client);
    assert_eq!(first.cells, 6);
    assert_eq!(first.queued, 6, "cold cache simulates everything");
    assert!(first.results.iter().all(|r| r.ok && !r.cached));
    assert!(first.summary_ticks > 0);

    // Second identical submission: 100% cache hits, zero new ticks.
    let second = run(&mut client);
    assert_eq!(second.cached, 6, "second submission is 100% cache hits");
    assert_eq!(second.queued, 0);
    assert_eq!(second.summary_ticks, 0, "no new simulation");
    assert!(second.results.iter().all(|r| r.ok && r.cached));
    let served: Vec<&String> = second
        .results
        .iter()
        .map(|r| r.payload.as_ref().expect("payload"))
        .collect();
    let first_payloads: Vec<&String> = first
        .results
        .iter()
        .map(|r| r.payload.as_ref().expect("payload"))
        .collect();
    assert_eq!(first_payloads, served, "cache round-trip is byte-identical");

    // Byte-identical to running the same matrix directly, bypassing the
    // daemon entirely (the simulator is deterministic).
    let scale = Scale::tiny();
    let ws = [pointer_chase(&scale), nw(&scale)];
    let (_, mixed_topo) =
        distda_system::parse_label_extension("Dist-DA-IO:4x4:fm200").expect("valid label");
    let cfgs = [
        RunConfig::named(ConfigKind::OoO),
        RunConfig::named(ConfigKind::DistDAF),
        RunConfig::named(ConfigKind::DistDAIO).with_topology(mixed_topo),
    ];
    let (sweep, failures) = try_run_matrix(&ws, &cfgs);
    assert!(failures.is_empty());
    let _ = distda_bench::take_timings();
    for cell in &second.results {
        let direct = sweep
            .results
            .get(&(cell.kernel.clone(), cell.config.clone()))
            .expect("direct run has the cell");
        assert_eq!(
            cell.payload.as_deref(),
            Some(encode_result(direct).as_str()),
            "{} under {} served != direct",
            cell.kernel,
            cell.config
        );
    }

    // The daemon accounting balances and the scrape works end to end.
    let metrics = fetch_metrics(&addr).expect("GET /metrics");
    assert!(metrics.ends_with("# EOF\n"));
    assert!(metrics.contains("distda_serve_cells_submitted_total 12"));
    assert!(metrics.contains("distda_serve_cells_completed_total 6"));
    assert!(metrics.contains("distda_serve_cells_deduped_total 6"));
    assert!(metrics.contains("distda_serve_cache_disk_bytes"));
    assert!(metrics.contains("distda_serve_retry_after_ms"));
    assert!(
        metrics.contains("distda_serve_cache_hit_ratio 0.5"),
        "4 hits / 8 lookups"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn hostile_request_lines_get_errors_and_the_connection_survives() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 4,
        cache_mem: 4,
        cache_dir: None,
        cache_bytes: 0,
    })
    .expect("bind ephemeral port");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        line
    };

    // A line past the cap is refused without buffering it whole.
    let oversized = format!("{{\"req\":\"{}\"}}\n", "x".repeat(2 * MAX_LINE_BYTES));
    writer.write_all(oversized.as_bytes()).expect("send");
    let err = reply();
    assert!(err.contains("\"event\":\"error\""), "{err}");
    assert!(err.contains("longer than"), "{err}");

    // Nesting under the cap but past the JSON depth bound is an error too,
    // not a stack overflow that takes the daemon down.
    writer
        .write_all(format!("{}\n", "[".repeat(MAX_LINE_BYTES / 2)).as_bytes())
        .expect("send");
    let err = reply();
    assert!(err.contains("nesting too deep"), "{err}");

    // The same connection still serves well-formed requests.
    writer.write_all(b"{\"req\":\"ping\"}\n").expect("send");
    assert!(reply().contains("pong"));
    server.shutdown();
}
