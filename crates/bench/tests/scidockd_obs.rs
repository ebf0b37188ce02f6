//! The `scidockd` binary's observability endpoint: a daemon started with
//! `--wal DIR --metrics-addr ADDR` serves, after one small campaign, the
//! activation histograms and the durable store's `provstore.*` samples on
//! `/metrics` (one telemetry handle shared by the daemon and its store) and
//! the campaign's `campaign_finished` on `/events` (the endpoint's own
//! ring; no `--events` file is given).

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cumulus::obs::http_get;
use cumulus::serve::{CampaignState, ServeClient, SubmitOutcome};

/// Kills and reaps the daemon if the test panics before it shuts down.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// An ephemeral address that was free a moment ago: the daemon does not
/// print its endpoint's bound address.
fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()).expect("a free port")
}

/// The body of `GET path`, asserting a 200.
fn get(addr: SocketAddr, path: &str) -> String {
    let (status, body) =
        http_get(addr, path, Duration::from_secs(5)).expect("the endpoint answers");
    assert_eq!(status, 200, "GET {path}: {body}");
    body
}

#[test]
fn an_endpoint_serves_the_daemons_and_the_stores_metrics_and_the_campaigns_events() {
    let wal = std::env::temp_dir().join(format!("scidockd-obs-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let metrics = free_addr();
    let mut daemon = Reaped(
        Command::new(env!("CARGO_BIN_EXE_scidockd"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--max-workers", "2", "--wal"])
            .arg(&wal)
            .args(["--metrics-addr", &metrics.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("scidockd starts"),
    );
    let mut lines = BufReader::new(daemon.0.stdout.take().expect("piped")).lines();
    let addr = lines
        .find_map(|l| l.ok()?.strip_prefix("scidockd: serving SDC1 on ")?.parse().ok())
        .expect("scidockd prints its address");

    let mut client = ServeClient::connect(addr).expect("connect");
    let SubmitOutcome::Accepted { id } = client.submit("alice", 0, "unit:sleep:8:5").unwrap()
    else {
        panic!("the campaign must be admitted")
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.status(id).expect("status").state != CampaignState::Finished {
        assert!(Instant::now() < deadline, "campaign {id} did not finish");
        std::thread::sleep(Duration::from_millis(10));
    }

    let prom = get(metrics, "/metrics");
    for family in ["scidock_activation_", "scidock_provstore_"] {
        assert!(
            prom.lines().any(|l| l.starts_with(family)),
            "no {family}* sample on /metrics:\n{prom}"
        );
    }
    let events = get(metrics, "/events");
    assert!(
        events.contains("\"kind\":\"campaign_finished\""),
        "no campaign_finished in:\n{events}"
    );

    // EOF on stdin shuts the daemon down
    drop(daemon.0.stdin.take());
    assert!(daemon.0.wait().expect("scidockd exits").success());
    let _ = std::fs::remove_dir_all(&wal);
}
