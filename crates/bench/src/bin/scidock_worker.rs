//! `scidock-worker` — a worker process for the distributed backend.
//!
//! Spawned by the master (`DistConfig::with_worker_command`) as
//! `scidock-worker --connect HOST:PORT`. It connects back, resolves the
//! workflow spec the master ships in its `Hello` frame through the shared
//! [`scidock_bench::distspec`] registry, and serves activations until the
//! master sends `Shutdown` or the connection drops. The resolver owns this
//! process's one receptor tier, so each receptor the worker meets is
//! prepared, loaded and rendered once however many pairs it is handed.

fn main() {
    let mut addr = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => addr = args.next(),
            other => {
                eprintln!("scidock-worker: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("usage: scidock-worker --connect HOST:PORT");
        std::process::exit(2);
    };
    if let Err(e) = cumulus::distbackend::worker::serve(&addr, scidock_bench::distspec::resolver())
    {
        eprintln!("scidock-worker: {e}");
        std::process::exit(1);
    }
}
