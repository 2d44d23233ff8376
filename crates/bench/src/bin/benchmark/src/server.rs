//! The `turbohom-server` child process: boot, resource readings, teardown.

use crate::http::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this repository builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running server. Dropping it kills the child and waits for it, on every
/// exit path including a panic.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn → first `200` from `/healthz`.
    pub setup: Duration,
}

impl Server {
    /// Spawns `binary args… --bind 127.0.0.1:0`, reads the port the kernel
    /// picked from the `listening on` line of the child's stderr and waits
    /// for `/healthz` to answer `200`. When the child exits first, the error
    /// carries what it wrote to stderr.
    pub fn boot(binary: &Path, args: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(args)
            .args(["--bind", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut log = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{} {} exited before listening; its stderr:\n{log}",
                        binary.display(),
                        args.join(" ")
                    ));
                }
            }
            if let Some(addr) = line
                .split_once("listening on http://")
                .and_then(|(_, rest)| rest.split_whitespace().next())
                .and_then(|addr| addr.parse::<SocketAddr>().ok())
            {
                break addr;
            }
            log.push_str(&line);
        };
        // Keep the pipe drained so a chatty server never blocks on it.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            while matches!(stderr.read_until(b'\n', &mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let mut server = Server {
            child,
            drain: Some(drain),
            addr,
            setup: Duration::ZERO,
        };
        let health = Client::new(addr)
            .get("/healthz")
            .map_err(|e| format!("/healthz failed: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// CPU milliseconds (user + system) the server has used so far.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        cpu_ms_of_stat(&stat).ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        peak_rss_mb_of_status(&status).ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The child's end of the pipe is closed now, so the thread ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn cpu_ms_of_stat(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_SECOND)
}

fn peak_rss_mb_of_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_fields_survive_an_awkward_command_name() {
        let stat = "4242 (turbo (hom) srv) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    150 50 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(cpu_ms_of_stat(stat), Some(2000.0));
        assert_eq!(cpu_ms_of_stat("no parenthesis"), None);
    }

    #[test]
    fn proc_status_peak_rss() {
        let status = "Name:\tx\nVmPeak:\t  900000 kB\nVmHWM:\t  514220 kB\nVmRSS:\t  1 kB\n";
        assert_eq!(peak_rss_mb_of_status(status), Some(514220.0 / 1024.0));
        assert_eq!(peak_rss_mb_of_status("Name:\tx\n"), None);
    }

    #[test]
    fn a_server_that_cannot_start_reports_why() {
        let err = Server::boot(Path::new("/nonexistent/turbohom-server"), &[])
            .err()
            .expect("boot must fail");
        assert!(err.contains("cannot start"), "{err}");
    }
}
