//! The scrapeable stats endpoint, end to end: a real TCP fleet run with an
//! injected worker kill, scraped over plain HTTP. The Prometheus text must
//! show the fleet's shape (workers admitted, shards done) *and* the fault
//! (a lost worker, a re-queued shard) — the counters a dashboard would
//! alert on.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use snip_fleetd::{
    ChaosPlan, FaultAction, FaultDirection, FaultKind, FaultPlan, FleetDriver, FleetSpec, JobSpec,
    NodeSpec, PeerFaults, TcpConfig,
};
use snip_mobility::EpochProfile;
use snip_sim::Mechanism;

const SNIP_BIN: &str = env!("CARGO_BIN_EXE_snip");

/// Severs peer 0 on its 4th sent frame (`Init`, `Session`, `Shard`, then
/// the `Shard` after its first `ShardDone`): a crash after one batch.
const SEVER_AFTER_FIRST_SHARD_DONE: &str = r#"{"peers": [{"peer": 0, "plan": {"actions": [
    {"dir": "Tx", "at_frame": 4, "kind": "Sever"}]}}]}"#;

fn kill_drill_spec() -> FleetSpec {
    let nodes = (0..16)
        .map(|i| NodeSpec {
            name: format!("site-{i}"),
            profile: EpochProfile::roadside(),
            zeta_target: 8.0,
        })
        .collect();
    FleetSpec {
        name: "stats-endpoint".into(),
        seed: 2011,
        epochs: 2,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipRh,
            nodes,
        },
    }
}

/// One HTTP GET against the stats server, returning the response body.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("stats endpoint accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\nhost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("full response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus text content type: {head}"
    );
    body.to_string()
}

/// The value of a plain `name value` sample line, if present.
fn sample(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn scrape_shows_the_fleet_and_the_injected_kill() {
    let server = snip_obs::http::serve("127.0.0.1:0").expect("ephemeral stats bind");
    let addr = server.local_addr();

    // The endpoint answers (200, Prometheus content type — asserted inside
    // `scrape`) before any run starts.
    let _idle = scrape(addr);

    // Startup skew can defuse the kill drill (see fleet_determinism.rs):
    // retry until the sever lands mid-run.
    let spec = kill_drill_spec();
    let mut bitten = false;
    for _ in 0..5 {
        let run = FleetDriver::new(spec.clone(), 2)
            .expect("valid spec")
            .with_worker_command(SNIP_BIN, vec!["fleet-worker".into()])
            .with_shard_timeout(Duration::from_secs(120))
            .with_shard_size(1)
            .with_tcp(TcpConfig {
                listen: "127.0.0.1:0".into(),
                token: "stats-endpoint-token".into(),
                spawn_workers: true,
            })
            .expect("ephemeral fleet bind")
            .with_chaos(ChaosPlan::from_json(SEVER_AFTER_FIRST_SHARD_DONE).unwrap())
            .run()
            .expect("surviving worker finishes");
        if run.stats.workers_lost == 1 && run.stats.shards_reassigned >= 1 {
            bitten = true;
            break;
        }
    }
    assert!(
        bitten,
        "in 5 attempts the drill never severed a peer mid-run"
    );

    let body = scrape(addr);
    // The registry is process-global and other tests may run fleets in
    // this binary, so every bound is >=, never ==.
    assert!(
        sample(&body, "snip_fleet_workers").unwrap_or(0.0) >= 1.0,
        "workers gauge: {body}"
    );
    assert!(
        sample(&body, "snip_fleet_shards_done").unwrap_or(0.0) >= 16.0,
        "shards_done gauge: {body}"
    );
    assert!(
        sample(&body, "snip_fleet_workers_lost_total").unwrap_or(0.0) >= 1.0,
        "the sever reached the counters: {body}"
    );
    assert!(
        sample(&body, "snip_fleet_shards_reassigned_total").unwrap_or(0.0) >= 1.0,
        "the re-queue reached the counters: {body}"
    );
    // Transport instrumentation: TCP frames moved real bytes both ways.
    assert!(
        body.contains("snip_frame_tx_bytes_total{transport=\"tcp\"}"),
        "tcp tx bytes: {body}"
    );

    // The crash-safety counters: a checkpointed run whose lone worker is
    // severed mid-delivery (Rx frame 3 = its first ShardDone), redials,
    // resumes, and re-delivers. Reconnects, resumed shards, and
    // checkpoint write latency must all reach the scrape.
    let journal = std::env::temp_dir().join(format!(
        "snip-stats-endpoint-ckpt-{}.snipj",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let run = FleetDriver::new(spec, 1)
        .expect("valid spec")
        .with_worker_command(SNIP_BIN, vec!["fleet-worker".into()])
        .with_shard_timeout(Duration::from_secs(120))
        .with_shard_size(1)
        .with_checkpoint(&journal)
        .with_chaos(ChaosPlan {
            peers: vec![PeerFaults {
                peer: 0,
                plan: FaultPlan {
                    actions: vec![FaultAction {
                        dir: FaultDirection::Rx,
                        at_frame: 3,
                        kind: FaultKind::Sever,
                    }],
                },
            }],
        })
        .with_tcp(TcpConfig {
            listen: "127.0.0.1:0".into(),
            token: "stats-endpoint-token".into(),
            spawn_workers: true,
        })
        .expect("ephemeral fleet bind")
        .run()
        .expect("the worker reconnects and finishes");
    assert!(run.stats.reconnects >= 1, "{:?}", run.stats);
    let _ = std::fs::remove_file(&journal);

    let body = scrape(addr);
    assert!(
        sample(&body, "snip_fleet_reconnects_total").unwrap_or(0.0) >= 1.0,
        "the resumed redial reached the counters: {body}"
    );
    assert!(
        sample(&body, "snip_fleet_resumed_shards_total").unwrap_or(0.0) >= 1.0,
        "the recovered in-flight shard reached the counters: {body}"
    );
    assert!(
        body.contains("snip_checkpoint_write_us"),
        "checkpoint write latency histogram renders: {body}"
    );

    server.shutdown();
}
