//! Child-process handling: the shipped `scidockd` binary run as a real
//! process, killed and reaped on every exit path.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Path of a product binary built into the same directory as this one.
pub fn sibling_bin(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let bin = exe.parent().ok_or("own path has no parent")?.join(name);
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} is missing; build it through benchmark/run.sh", bin.display()))
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// An ephemeral port that was free a moment ago (for `--metrics-addr`,
/// whose bound address the daemon does not print).
fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// How the daemon of one unit is configured.
pub struct DaemonOpts<'a> {
    /// `--wal DIR`: the paged + WAL store; `None` keeps the `Mem` backing.
    pub wal: Option<&'a Path>,
    /// `--grid-cache-dir DIR`.
    pub grid_cache: &'a Path,
    /// Start the observability endpoint (traced runs only).
    pub metrics: bool,
    /// Where the daemon's stderr goes.
    pub stderr: &'a Path,
}

/// A running `scidockd`. Dropping it kills and reaps the process, so a
/// panic anywhere in the benchmark leaves no child behind.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The `SDC1` address parsed from the `serving SDC1 on` line.
    pub addr: SocketAddr,
    /// The observability endpoint, when started.
    pub metrics_addr: Option<SocketAddr>,
    stderr: PathBuf,
}

impl Daemon {
    /// Spawn the fixed two-worker fleet the load shape calls for and wait
    /// for the `serving SDC1 on` line.
    pub fn spawn(bin: &Path, opts: &DaemonOpts<'_>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2", "--min-workers", "2"])
            .args(["--max-workers", "2", "--max-active", "4", "--max-pending", "16"])
            .args(["--steering-ms", "250"])
            .arg("--grid-cache-dir")
            .arg(opts.grid_cache);
        if let Some(wal) = opts.wal {
            cmd.arg("--wal").arg(wal);
        }
        let metrics_addr = if opts.metrics {
            let port = free_port().map_err(|e| format!("no free port: {e}"))?;
            cmd.args(["--metrics-addr", &format!("127.0.0.1:{port}")]);
            Some(SocketAddr::from(([127, 0, 0, 1], port)))
        } else {
            None
        };
        let stderr =
            std::fs::File::create(opts.stderr).map_err(|e| format!("daemon stderr file: {e}"))?;
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(a) = parse_serving_line(&line) {
                        break Some(a);
                    }
                }
                _ => break None,
            }
        };
        let mut daemon = Daemon {
            child,
            drain: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics_addr,
            stderr: opts.stderr.to_path_buf(),
        };
        let Some(addr) = addr else {
            daemon.kill();
            return Err(format!("scidockd never served; stderr:\n{}", daemon.stderr_text()));
        };
        daemon.addr = addr;
        // keep reading so a full pipe can never stall the daemon
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        }));
        Ok(daemon)
    }

    /// Peak resident set of the daemon so far, MB.
    pub fn vm_hwm_mb(&self) -> Option<f64> {
        vm_hwm_mb(self.child.id())
    }

    /// What the daemon wrote to stderr (printed when a run fails).
    pub fn stderr_text(&self) -> String {
        let mut s = String::new();
        if let Ok(mut f) = std::fs::File::open(&self.stderr) {
            let _ = f.read_to_string(&mut s);
        }
        s
    }

    /// Close stdin: the daemon sees EOF and starts its graceful shutdown.
    /// Several daemons asked first and waited for afterwards drain side by
    /// side.
    pub fn request_shutdown(&mut self) {
        drop(self.child.stdin.take());
    }

    /// Graceful shutdown: EOF on stdin, then wait for the process to drain
    /// and flush its WAL. Returns how long that took.
    pub fn shutdown(mut self) -> Result<Duration, String> {
        let t0 = Instant::now();
        self.request_shutdown();
        let deadline = t0 + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => {
                    return Err(format!(
                        "scidockd exited {status}; stderr:\n{}",
                        self.stderr_text()
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err("scidockd did not exit within 30 s of EOF".into()),
                Err(e) => return Err(format!("wait scidockd: {e}")),
            }
        }
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
        Ok(t0.elapsed())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // a no-op after a clean shutdown: the child is already reaped
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        } else if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// `scidockd: serving SDC1 on 127.0.0.1:41234` → the address.
fn parse_serving_line(line: &str) -> Option<SocketAddr> {
    line.trim().rsplit_once("serving SDC1 on ")?.1.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_line_yields_the_ephemeral_address() {
        let a = parse_serving_line("scidockd: serving SDC1 on 127.0.0.1:41234\n").unwrap();
        assert_eq!(a.port(), 41234);
        assert!(parse_serving_line("scidockd: provenance WAL enabled").is_none());
        assert!(parse_serving_line("scidockd: serving SDC1 on nowhere").is_none());
    }

    #[test]
    fn own_process_reports_a_peak_rss() {
        assert!(vm_hwm_mb(std::process::id()).unwrap() > 0.0);
    }
}
