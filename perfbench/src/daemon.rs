//! A real `esr-tcpd` child process: spawn, learn its addresses from the
//! lines it prints, read its CPU and memory from `/proc`, scrape its
//! `/metrics` endpoint, and SIGKILL it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its listening line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, which Linux
/// fixes at 100 per second for user space.
const USER_HZ: f64 = 100.0;

/// Pids of the daemons alive right now, for [`kill_all`].
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// SIGKILL every daemon still alive: the watchdog's way out when a run
/// overstays, since `exit` skips the `Drop` that would reap them.
pub fn kill_all() {
    let live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
    for &pid in live.iter() {
        // SAFETY: kill(2) takes two integers and reads or writes no
        // memory of this process; the pid is a child not yet reaped
        // (pids leave `LIVE` before `wait`), so it cannot name a reused
        // pid.
        unsafe {
            kill(pid as i32, SIGKILL);
        }
    }
}

pub struct Daemon {
    child: Child,
    /// Drains the child's stdout so it can never block on a full pipe.
    drain: Option<JoinHandle<()>>,
    /// The transaction listener.
    pub addr: SocketAddr,
    /// The `/metrics` listener.
    pub metrics: SocketAddr,
    /// The replication shipping listener, for a primary.
    pub repl: Option<SocketAddr>,
}

fn parse_addr(line: &str, marker: &str) -> Option<SocketAddr> {
    let rest = &line[line.find(marker)? + marker.len()..];
    let token = rest.split_whitespace().next()?;
    token.trim_end_matches("/metrics").parse().ok()
}

impl Daemon {
    /// Start `bin` with `args` plus an OS-chosen transaction and
    /// metrics address, and wait until it prints that it is listening.
    /// Its stderr goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .args(["--metrics-addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        LIVE.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(child.id());
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                // The receiver goes away once the daemon is up; keep
                // draining regardless.
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            metrics: SocketAddr::from(([0, 0, 0, 0], 0)),
            repl: None,
        };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        let (mut addr, mut metrics) = (None, None);
        while addr.is_none() || metrics.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| format!("{} exited or stalled before listening", bin.display()))?;
            if let Some(a) = parse_addr(&line, "listening on ") {
                addr = Some(a);
            } else if let Some(a) = parse_addr(&line, "metrics on http://") {
                metrics = Some(a);
            } else if let Some(a) = parse_addr(&line, "replication on ") {
                daemon.repl = Some(a);
            }
        }
        daemon.addr = addr.expect("loop ends with an address");
        daemon.metrics = metrics.expect("loop ends with an address");
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the process has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("/proc/{}/stat: {e}", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed stat".to_owned())
        };
        Ok((tick(11)? + tick(12)?) / USER_HZ)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("/proc/{}/status: {e}", self.pid()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in status")?;
        Ok(kb / 1024.0)
    }

    /// One scrape of `/metrics`: every unlabelled sample by name.
    pub fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        scrape(self.metrics)
    }

    /// SIGKILL the process and wait for it (and its stdout drain).
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let pid = self.child.id();
        LIVE.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|&p| p != pid);
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `GET /metrics` and parse the Prometheus text: `name value` lines,
/// skipping comments and labelled series.
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("metrics connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("metrics request: {e}"))?;
    let mut body = String::new();
    s.read_to_string(&mut body)
        .map_err(|e| format!("metrics read: {e}"))?;
    let mut out = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.contains('{') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value), None) = (parts.next(), parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_owned(), v);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("metrics at {addr} returned no samples"));
    }
    Ok(out)
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse_from_daemon_lines() {
        assert_eq!(
            parse_addr(
                "esr-tcpd listening on 127.0.0.1:4242 (1000 objects @ 1000, 4 workers)",
                "listening on "
            ),
            Some("127.0.0.1:4242".parse().unwrap())
        );
        assert_eq!(
            parse_addr(
                "esr-tcpd metrics on http://127.0.0.1:99/metrics",
                "metrics on http://"
            ),
            Some("127.0.0.1:99".parse().unwrap())
        );
        assert_eq!(
            parse_addr(
                "esr-tcpd replication on 127.0.0.1:7 (epoch 1)",
                "replication on "
            ),
            Some("127.0.0.1:7".parse().unwrap())
        );
        assert_eq!(
            parse_addr("esr-tcpd recovered from x", "listening on "),
            None
        );
    }
}
