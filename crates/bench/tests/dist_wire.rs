//! What crosses the `SDW2` wire, by count: each distinct content once per
//! connection (not once per file that names it), into a master store that
//! holds each content once — with canonical provenance unchanged — and a
//! worker that reports the receptor tier's counters to its master.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

use cumulus::distbackend::worker;
use cumulus::workflow::{Blob, FileStore};
use cumulus::{run_dist, Backend, CumulusError, LocalBackend, RunConfig, RunReport, Workflow};
use provenance::{export_provn_canonical, ProvenanceStore};
use scidock_bench::distspec;
use telemetry::{registry, Telemetry};

const SPEC: &str = "scidock:adaptive:4x10";

fn workflow(spec: &str) -> Workflow {
    let files = Arc::new(FileStore::new());
    let def = distspec::resolve_with(spec, &files).expect("known spec");
    let input = distspec::prepare(spec, &files).expect("known spec");
    Workflow::new(def, input).with_files(files)
}

fn run(backend: &dyn Backend, wf: &Workflow) -> (RunReport, Arc<ProvenanceStore>) {
    let store = Arc::new(ProvenanceStore::new());
    let outcome = backend.run(wf, &store).expect("run succeeds");
    (outcome, store)
}

fn run_on(cfg: &RunConfig, wf: &Workflow) -> (RunReport, Arc<ProvenanceStore>) {
    let store = Arc::new(ProvenanceStore::new());
    let outcome =
        run_dist(&wf.def, wf.input.clone(), Arc::clone(&wf.files), Arc::clone(&store), cfg)
            .expect("run succeeds");
    (outcome, store)
}

/// Every file the run's activations produced, as the master's store holds
/// it, by the path provenance records.
fn produced(store: &ProvenanceStore, files: &FileStore) -> Vec<Blob> {
    let rows = store.query_rows("SELECT fdir, fname FROM hfile", &[]).unwrap();
    (0..rows.len())
        .map(|i| {
            let path = format!("{}{}", rows.cell(i, 0), rows.cell(i, 1));
            files.read(&path).unwrap_or_else(|| panic!("{path} is recorded but not stored"))
        })
        .collect()
}

/// Bytes of the distinct contents among `blobs`.
fn distinct_bytes<'a>(blobs: impl IntoIterator<Item = &'a Blob>) -> u64 {
    let mut seen: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut bytes = 0;
    for blob in blobs {
        let same = seen.entry(blob.digest()).or_default();
        if !same.contains(&&**blob) {
            same.push(blob);
            bytes += blob.len() as u64;
        }
    }
    bytes
}

#[test]
fn the_master_receives_and_keeps_each_content_once() {
    let tel = Telemetry::attached();
    let mut dist =
        RunConfig { workers: 2, spec: SPEC.into(), telemetry: tel.clone(), ..RunConfig::default() };
    dist.resolver = Some(distspec::resolver(Telemetry::disabled()));
    let wf = workflow(SPEC);
    let (out, store) = run_on(&dist, &wf);
    assert!(out.finished > 0);

    let files = produced(&store, &wf.files);
    let logical: u64 = files.iter().map(|b| b.len() as u64).sum();
    let distinct = distinct_bytes(&files);
    // the workload is one where content repeats: per-receptor maps and
    // PDBQT under every pair's paths
    assert!(logical > 4 * distinct, "{logical} produced bytes, {distinct} distinct");

    // each content crosses each of the two connections at most once, plus
    // each frame's own fields (tuples, parameters, spans, paths, digests)
    let snap = tel.snapshot().unwrap();
    let received = snap.counter("sdw.bytes_in").expect("master counts its frames");
    let frame_overhead = 1024 * out.finished as u64 + (256 << 10);
    assert!(
        received <= 2 * distinct + frame_overhead,
        "master received {received} B for {distinct} B of distinct content \
         ({logical} B produced)"
    );
    assert!(snap.counter("sdw.bytes_out").unwrap_or(0) > 0);

    // the master's store holds one allocation per content, staged inputs
    // included
    let all: Vec<Blob> = wf.files.list("").iter().map(|p| wf.files.read(p).unwrap()).collect();
    let stored = distinct_bytes(&all);
    let resident = wf.files.resident_bytes();
    assert!(resident * 10 <= stored * 11, "resident {resident} B for {stored} B distinct");

    // … and none of it changes what provenance says
    let local = LocalBackend::new(RunConfig { workers: 2, ..RunConfig::default() });
    let (lout, lstore) = run(&local, &workflow(SPEC));
    assert_eq!(lout.finished, out.finished);
    assert_eq!(export_provn_canonical(&lstore), export_provn_canonical(&store));
}

#[test]
fn worker_process_counters_reach_the_masters_snapshot() {
    let tel = Telemetry::attached();
    let dist = RunConfig {
        workers: 1,
        worker_cmd: Some((env!("CARGO_BIN_EXE_scidock-worker").into(), Vec::new())),
        spec: "scidock:adaptive:2x3".into(),
        telemetry: tel.clone(),
        ..RunConfig::default()
    };
    let (out, _) = run_on(&dist, &workflow("scidock:adaptive:2x3"));
    assert!(out.finished > 0);
    let snap = out.metrics.expect("telemetry attached");
    assert!(snap.counter("receptor.prepared").unwrap_or(0) >= 1, "the worker's tier counted");
    assert!(snap.counter("files.digest_bytes").unwrap_or(0) > 0);
    assert_eq!(registry::unregistered(&snap), Vec::<String>::new());
}

#[test]
fn a_worker_refuses_a_version_1_master_with_a_protocol_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || worker::serve(&addr, distspec::resolver));
    let (mut master, _) = listener.accept().unwrap();
    // the worker opens with its Ready frame …
    let mut len = [0u8; 4];
    master.read_exact(&mut len).unwrap();
    let mut ready = vec![0u8; u32::from_le_bytes(len) as usize];
    master.read_exact(&mut ready).unwrap();
    assert_eq!(&ready[..5], [0, 0x32, 0x57, 0x44, 0x53], "tag 0, magic \"SDW2\"");
    // … and an SDW1 master answers with its Hello: tag, worker id, spec,
    // heartbeat — no magic
    let spec = b"scidock:adaptive:1x1";
    let mut hello = vec![1u8];
    hello.extend_from_slice(&0u32.to_le_bytes());
    hello.extend_from_slice(&(spec.len() as u32).to_le_bytes());
    hello.extend_from_slice(spec);
    hello.extend_from_slice(&100u64.to_le_bytes());
    master.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
    master.write_all(&hello).unwrap();
    match worker.join().unwrap() {
        Err(CumulusError::Protocol(msg)) => assert!(msg.contains("bad handshake"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}
