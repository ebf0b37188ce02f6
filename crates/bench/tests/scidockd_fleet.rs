//! The `scidockd` binary's fleet bounds: with `--max-workers` above
//! `--min-workers` a backlog grows the fleet, which the event log records as
//! a `fleet_scale` grow; with equal bounds the same backlog leaves the fleet
//! at `--workers` and logs no `fleet_scale` event.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cumulus::serve::{CampaignState, ServeClient, SubmitOutcome};

/// Kills and reaps the daemon if the test panics before it shuts down.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs a one-worker `scidockd` with fleet bounds `min..=max` through one
/// backlog campaign (`unit:sleep:24:50`) and returns its event log's
/// `fleet_scale` lines.
fn fleet_scale_events(min: usize, max: usize) -> Vec<String> {
    let events = std::env::temp_dir()
        .join(format!("scidockd-fleet-events-{}-{min}-{max}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&events);
    let (min_arg, max_arg) = (min.to_string(), max.to_string());
    let mut daemon = Reaped(
        Command::new(env!("CARGO_BIN_EXE_scidockd"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--min-workers", &min_arg])
            .args(["--max-workers", &max_arg, "--events"])
            .arg(&events)
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
    let SubmitOutcome::Accepted { id } = client.submit("alice", 0, "unit:sleep:24:50").unwrap()
    else {
        panic!("the campaign must be admitted")
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.status(id).expect("status").state != CampaignState::Finished {
        assert!(Instant::now() < deadline, "campaign {id} did not finish");
        std::thread::sleep(Duration::from_millis(10));
    }

    // EOF on stdin shuts the daemon down
    drop(daemon.0.stdin.take());
    assert!(daemon.0.wait().expect("scidockd exits").success());
    let log = std::fs::read_to_string(&events).expect("event log written");
    let _ = std::fs::remove_file(&events);
    assert!(log.contains("\"kind\":\"campaign_finished\""), "no campaign_finished in:\n{log}");
    log.lines().filter(|l| l.contains("\"kind\":\"fleet_scale\"")).map(str::to_owned).collect()
}

#[test]
fn a_backlog_grows_the_fleet_within_the_bounds() {
    let scales = fleet_scale_events(1, 3);
    let grows: Vec<&String> = scales.iter().filter(|l| l.contains("\"decision\":\"grow")).collect();
    assert!(!grows.is_empty(), "no fleet_scale grow in:\n{}", scales.join("\n"));
    for grow in grows {
        let fleet: usize = grow
            .split("\"fleet\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next()?.parse().ok())
            .expect("a fleet size");
        assert!(fleet <= 3, "grew past --max-workers: {grow}");
    }
}

#[test]
fn equal_bounds_keep_the_fixed_fleet() {
    let scales = fleet_scale_events(1, 1);
    assert_eq!(scales, Vec::<String>::new(), "equal bounds must not scale the fleet");
}
