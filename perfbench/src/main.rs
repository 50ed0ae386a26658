//! `perfbench` — the repository's wall-clock benchmark of `esr-tcpd`.
//!
//! ```text
//! perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run boots real daemons (several times, to time set-up), drives
//! them closed-loop from two client threads for `S` seconds, checks the
//! results, and prints every metric by name and unit. The last line of
//! standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. See `README.md`.

mod daemon;
mod layers;
mod load;
mod stats;

use daemon::{fresh_dir, Daemon};
use load::{Outcome, Plan, Role, Round, Shared, VALUE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Boots per run: at least `MIN_SETUPS`, then more while they stay
/// within `SETUP_BUDGET`, up to `MAX_SETUPS`. The set-up time reported
/// is their median, and the last boot serves the measured window.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Load before the window opens, so lazy set-up and caches settle.
const WARMUP: Duration = Duration::from_secs(1);
/// Bound on every correctness check after the window.
const CHECK_TIMEOUT: Duration = Duration::from_secs(30);
/// Client threads and connections: one per core of the 2-core host.
const CLIENTS: usize = 2;
/// The window runs as rounds of this length, each with fresh client
/// connections.
const ROUND: Duration = Duration::from_secs(1);
/// A run that is still going after this is stopped, daemons and all.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Traced runs sample `/metrics` this often.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy)]
enum Storage {
    Memory,
    Durable {
        checkpoint_secs: Option<u64>,
        cache_pages: Option<usize>,
    },
}

/// One traffic mix against one daemon configuration.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    objects: u32,
    hot: bool,
    batched: bool,
    /// Query share of each client's transactions (ignored with a
    /// replica, where one client updates and the other reads).
    query_share: f64,
    storage: Storage,
    replica: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_hot_mix",
        objects: 1000,
        hot: true,
        batched: false,
        query_share: 0.5,
        storage: Storage::Memory,
        replica: false,
    },
    Workload {
        name: "durable_update_batched",
        objects: 1000,
        hot: false,
        batched: true,
        query_share: 0.1,
        storage: Storage::Durable {
            checkpoint_secs: Some(1),
            cache_pages: None,
        },
        replica: false,
    },
    Workload {
        name: "paged_read_mostly",
        objects: 100_000,
        hot: false,
        batched: true,
        query_share: 0.8,
        // Write-back is copy-on-write: the heap file grows by every
        // evicted dirty page (~250 MB/s on a 2-vCPU VM) until a
        // checkpoint frees the old extents. At the default 30 s
        // cadence a 20 s run leaves a heap of several GB; every second
        // keeps it near 600 MB.
        storage: Storage::Durable {
            checkpoint_secs: Some(1),
            cache_pages: Some(2000),
        },
        replica: false,
    },
    Workload {
        name: "replica_bounded_reads",
        objects: 1000,
        hot: false,
        batched: true,
        query_share: 0.0,
        storage: Storage::Durable {
            checkpoint_secs: None,
            cache_pages: None,
        },
        replica: true,
    },
];

impl Workload {
    /// Objects in the daemon's table: the workload's objects plus the
    /// staleness marker when there is a replica.
    fn table_size(&self) -> u32 {
        self.objects + u32::from(self.replica)
    }

    fn marker(&self) -> Option<u32> {
        self.replica.then_some(self.objects)
    }

    fn durable(&self) -> bool {
        matches!(self.storage, Storage::Durable { .. })
    }

    fn primary_args(&self, dir: &Path) -> Vec<String> {
        let mut a = vec![
            "--objects".to_owned(),
            self.table_size().to_string(),
            "--monitor".to_owned(),
        ];
        if let Storage::Durable {
            checkpoint_secs,
            cache_pages,
        } = self.storage
        {
            a.extend(["--data-dir".to_owned(), dir.display().to_string()]);
            if let Some(s) = checkpoint_secs {
                a.extend(["--checkpoint-secs".to_owned(), s.to_string()]);
            }
            if let Some(p) = cache_pages {
                a.extend(["--cache-pages".to_owned(), p.to_string()]);
            }
        }
        if self.replica {
            a.extend(["--repl-addr".to_owned(), "127.0.0.1:0".to_owned()]);
        }
        a
    }

    fn plans(&self, cluster: &Cluster, seed: u64, trace: bool) -> Vec<Plan> {
        (0..CLIENTS)
            .map(|i| {
                let (addr, role) = match (&cluster.replica, i) {
                    (Some(_), 0) => (cluster.primary.addr, Role::MarkerUpdater),
                    (Some(r), _) => (r.addr, Role::MarkerReader),
                    (None, _) => (
                        cluster.primary.addr,
                        Role::Mixed {
                            query_share: self.query_share,
                        },
                    ),
                };
                Plan {
                    addr,
                    role,
                    objects: self.objects,
                    marker: self.marker(),
                    hot: self.hot,
                    batched: self.batched,
                    // Distinct, seed-derived streams per client.
                    seed: seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(i as u64 + 1),
                    trace,
                }
            })
            .collect()
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} needs a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        daemon: PathBuf::from(get("--daemon")?),
    })
}

/// The daemons of one boot.
struct Cluster {
    primary: Daemon,
    replica: Option<Daemon>,
    primary_args: Vec<String>,
}

impl Cluster {
    fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        std::iter::once(&self.primary).chain(&self.replica)
    }

    fn cpu_seconds(&self) -> Result<f64, String> {
        self.daemons().map(Daemon::cpu_seconds).sum()
    }
}

/// Boot the workload's daemons on fresh data directories and wait for
/// the first committed transaction (and, with a replica, for the
/// replica to serve a strictly consistent read). Returns the cluster
/// and the seconds that took.
fn boot(w: &Workload, bin: &Path, work: &Path) -> Result<(Cluster, f64), String> {
    let pdir = fresh_dir(work, "primary")?;
    let rdir = fresh_dir(work, "replica")?;
    let primary_args = w.primary_args(&pdir);
    let t0 = Instant::now();
    let primary = Daemon::spawn(bin, &primary_args, &work.join("primary.log"))?;
    let replica = match (w.replica, primary.repl) {
        (false, _) => None,
        (true, Some(repl)) => Some(Daemon::spawn(
            bin,
            &[
                "--objects".to_owned(),
                w.table_size().to_string(),
                "--data-dir".to_owned(),
                rdir.display().to_string(),
                "--replica-of".to_owned(),
                repl.to_string(),
            ],
            &work.join("replica.log"),
        )?),
        (true, None) => return Err("primary printed no replication address".into()),
    };
    let deadline = t0 + CHECK_TIMEOUT;
    load::read_all(primary.addr, 1, deadline)?;
    if let Some(r) = &replica {
        load::read_all(r.addr, 1, deadline)?;
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Cluster {
            primary,
            replica,
            primary_args,
        },
        secs,
    ))
}

/// Daemon state at one edge of the measured window.
pub struct Snapshot {
    pub stats: esr_server::ServerStats,
    pub metrics: BTreeMap<String, f64>,
    pub cpu: f64,
    /// The host's aggregate `/proc/stat` CPU line: user, nice, system,
    /// idle, iowait, irq, softirq, steal (ticks).
    pub host: Vec<u64>,
}

fn host_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .take(8)
                    .filter_map(|x| x.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

fn snapshot(cluster: &Cluster, ctrl: &mut esr_net::TcpConnection) -> Result<Snapshot, String> {
    Ok(Snapshot {
        stats: ctrl
            .server_stats()
            .map_err(|e| format!("stats request: {e}"))?,
        metrics: cluster.primary.scrape()?,
        cpu: cluster.cpu_seconds()?,
        host: host_ticks(),
    })
}

/// `/metrics` series sampled through a traced window.
#[derive(Default)]
pub struct Samples {
    pub retained_entries: Vec<f64>,
    pub lag_records: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub divergence: Vec<f64>,
}

impl Samples {
    fn take(&mut self, cluster: &Cluster) {
        if let Ok(m) = cluster.primary.scrape() {
            self.retained_entries
                .extend(m.get("esr_monitor_retained_entries"));
        }
        if let Some(Ok(m)) = cluster.replica.as_ref().map(Daemon::scrape) {
            self.lag_records.extend(m.get("esr_replica_lag_records"));
            self.lag_us.extend(m.get("esr_replica_lag_micros"));
            self.divergence
                .extend(m.get("esr_replica_divergence_total"));
        }
    }
}

/// Daemon CPU and host steal over one [`load::SLICE`] of the window.
pub struct SliceMark {
    /// Daemon CPU seconds used in the slice.
    pub cpu: f64,
    /// Share of host CPU time the hypervisor stole in the slice.
    pub steal: f64,
}

/// Everything one measured window produced.
pub struct Window {
    /// Summed length of the rounds, each until its last client finished.
    pub secs: f64,
    /// One mark per slice, in global slice order.
    pub slices: Vec<SliceMark>,
    pub start: Snapshot,
    pub end: Snapshot,
    pub outcomes: Vec<Outcome>,
    pub samples: Samples,
    pub rss_mb: f64,
}

impl Window {
    pub fn commits(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.tally.commits_query + o.tally.commits_update)
            .sum()
    }
}

/// Run the window as rounds of [`ROUND`], each with fresh client threads
/// and connections, so one unlucky placement of threads on the two
/// cores does not set the whole run. The daemons keep running (and
/// their caches stay warm) across rounds.
fn measure(w: &Workload, cluster: &Cluster, args: &Args) -> Result<Window, String> {
    let mut ctrl =
        esr_net::TcpConnection::connect_with(cluster.primary.addr, load::client_config(0))
            .map_err(|e| format!("control connection: {e}"))?;
    let shared = Shared {
        epoch: Instant::now(),
        marker_acks: Mutex::new(Vec::new()),
    };
    let rounds = (Duration::from_secs(args.seconds).as_nanos() / ROUND.as_nanos()) as u32;
    let per_round = (ROUND.as_nanos() / load::SLICE.as_nanos()) as u32;
    let mut start = None;
    let mut slices = Vec::new();
    let mut outcomes = Vec::new();
    let mut samples = Samples::default();
    let mut secs = 0.0;
    for r in 0..rounds {
        let round = Round {
            warmup: if r == 0 { WARMUP } else { Duration::ZERO },
            window: load::SLICE * per_round,
            first_slice: (r * per_round) as usize,
            barrier: Barrier::new(CLIENTS + 1),
            window_start: OnceLock::new(),
        };
        let plans = w.plans(
            cluster,
            args.seed.wrapping_add(u64::from(r) << 32),
            args.trace,
        );
        let done: Result<Vec<Outcome>, String> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .map(|p| {
                    let (shared, round) = (&shared, &round);
                    s.spawn(move || load::run_client(p, shared, round, w.table_size()))
                })
                .collect();
            round.barrier.wait();
            if r == 0 {
                start = Some(snapshot(cluster, &mut ctrl));
            }
            let t0 = Instant::now();
            round.window_start.set(t0).expect("the window starts once");
            round.barrier.wait();
            // Mark CPU and steal at every slice boundary; sample
            // /metrics in between when tracing.
            let mut last = (cluster.cpu_seconds(), host_ticks());
            let mut next_sample = t0;
            for k in 1..=per_round {
                let boundary = t0 + load::SLICE * k;
                loop {
                    let now = Instant::now();
                    if now >= boundary {
                        break;
                    }
                    if args.trace && now >= next_sample {
                        samples.take(cluster);
                        next_sample += SAMPLE_EVERY;
                    }
                    let wake = if args.trace {
                        boundary.min(next_sample)
                    } else {
                        boundary
                    };
                    std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                }
                let now = (cluster.cpu_seconds(), host_ticks());
                if let (Ok(a), Ok(b)) = (&last.0, &now.0) {
                    slices.push(SliceMark {
                        cpu: b - a,
                        steal: stats::steal_share(&last.1, &now.1),
                    });
                }
                last = now;
            }
            let done = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            secs += t0.elapsed().as_secs_f64();
            done
        });
        outcomes.extend(done?);
    }
    let start = start.expect("round 0 takes the start snapshot")?;
    if slices.len() != (rounds * per_round) as usize {
        return Err("could not read daemon CPU at every slice boundary".into());
    }
    let end = snapshot(cluster, &mut ctrl)?;
    let rss_mb = cluster
        .daemons()
        .map(Daemon::peak_rss_mb)
        .sum::<Result<f64, String>>()?;
    Ok(Window {
        secs,
        slices,
        start,
        end,
        outcomes,
        samples,
        rss_mb,
    })
}

/// Correctness findings of one run; empty means correct.
type Findings = Vec<String>;

/// Wait until the monitor has drained the capture stream (its event
/// count stops moving), then require a clean verdict.
fn check_monitor(cluster: &Cluster, findings: &mut Findings) -> Result<(), String> {
    let deadline = Instant::now() + CHECK_TIMEOUT;
    let mut last = -1.0;
    let m = loop {
        let m = cluster.primary.scrape()?;
        let events = m.get("esr_monitor_events_total").copied().unwrap_or(0.0);
        if events == last || Instant::now() >= deadline {
            break m;
        }
        last = events;
        std::thread::sleep(Duration::from_millis(50));
    };
    for key in [
        "esr_conformance_violations",
        "esr_monitor_gaps_total",
        "esr_monitor_missed_events_total",
    ] {
        match m.get(key).copied() {
            Some(0.0) => {}
            Some(v) => findings.push(format!("monitor: {key} = {v}")),
            None => findings.push(format!("monitor: {key} missing from /metrics")),
        }
    }
    Ok(())
}

fn compare(what: &str, got: &[i64], want: &[i64], findings: &mut Findings) {
    if got.len() != want.len() {
        findings.push(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
        return;
    }
    let wrong: Vec<usize> = (0..got.len()).filter(|&i| got[i] != want[i]).collect();
    if let Some(&i) = wrong.first() {
        findings.push(format!(
            "{what}: {} object(s) differ, first #{i}: {} vs expected {}",
            wrong.len(),
            got[i],
            want[i]
        ));
    }
}

/// The checks after the window. Returns the recovery time of the
/// durability check, when one ran.
fn check(
    w: &Workload,
    cluster: Cluster,
    win: &Window,
    bin: &Path,
    work: &Path,
    findings: &mut Findings,
) -> Result<Option<f64>, String> {
    check_monitor(&cluster, findings)?;

    // Client-counted commits against the primary's own counters.
    let k0 = &win.start.stats.kernel;
    let k1 = &win.end.stats.kernel;
    let (cq, cu) = win.outcomes.iter().fold((0, 0), |(q, u), o| {
        (q + o.tally.commits_query, u + o.tally.commits_update)
    });
    // Replica reads commit on the replica, which keeps no kernel
    // counters; only the primary's transactions are comparable.
    let (want_q, want_u) = if w.replica { (0, cu) } else { (cq, cu) };
    let (got_q, got_u) = (
        k1.commits_query - k0.commits_query,
        k1.commits_update - k0.commits_update,
    );
    if (got_q, got_u) != (want_q, want_u) {
        findings.push(format!(
            "commit count: daemon committed {got_q} queries + {got_u} updates in the window, \
             clients counted {want_q} + {want_u}"
        ));
    }

    // The table must equal its initial value plus every committed
    // delta the clients tracked (updates serialize among themselves).
    let mut expected = vec![VALUE; w.table_size() as usize];
    for o in &win.outcomes {
        for (e, d) in expected.iter_mut().zip(&o.deltas) {
            *e += d;
        }
    }
    let deadline = Instant::now() + CHECK_TIMEOUT;
    let before = load::read_all(cluster.primary.addr, w.table_size(), deadline)?;
    compare("final state", &before, &expected, findings);

    if let Some(r) = &cluster.replica {
        // Convergence: the replica must reach the primary's values.
        let deadline = Instant::now() + CHECK_TIMEOUT;
        loop {
            let got = load::read_all(r.addr, w.table_size(), deadline)?;
            if got == before {
                break;
            }
            if Instant::now() >= deadline {
                compare("replica convergence", &got, &before, findings);
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        return Ok(None);
    }
    if !w.durable() {
        return Ok(None);
    }
    // Durability: SIGKILL, restart on the same data directory, re-read.
    // The OS page cache survives SIGKILL, so this checks the daemon's
    // own recovery, not the disk's.
    let Cluster {
        primary,
        primary_args,
        ..
    } = cluster;
    primary.kill();
    let t0 = Instant::now();
    let restarted = Daemon::spawn(bin, &primary_args, &work.join("restart.log"))?;
    let recovery = t0.elapsed().as_secs_f64();
    let after = load::read_all(
        restarted.addr,
        w.table_size(),
        Instant::now() + CHECK_TIMEOUT,
    )?;
    compare("after SIGKILL and restart", &after, &before, findings);
    restarted.kill();
    Ok(Some(recovery))
}

fn host_block(work: &Path) -> Vec<(String, String)> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The filesystem of the data directory: the longest mount point
    // that prefixes it.
    let path = work.canonicalize().unwrap_or_else(|_| work.to_path_buf());
    let fs = read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && path.starts_with(f[1])).then(|| (f[1].len(), f[2].to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("kernel".into(), read("/proc/sys/kernel/osrelease")),
        ("data_dir_fs".into(), fs),
        (
            "build_profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("git_commit".into(), commit),
        (
            "clock".into(),
            "wall-clock throughout; no virtual-time results".into(),
        ),
        ("mpl".into(), format!("{CLIENTS} closed-loop clients")),
    ]
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run's work directory, for the watchdog's report.
static WORK: OnceLock<PathBuf> = OnceLock::new();

/// The last lines of every daemon log in `work`, to explain a failed run.
fn log_tails(work: &Path) -> String {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(work)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    logs.sort();
    let mut out = String::new();
    for log in logs {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[lines.len().saturating_sub(5)..] {
            out.push_str(&format!("\n  {}: {line}", log.display()));
        }
    }
    out
}

fn run(args: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = WorkDir(fresh_dir(
        &root.join(".bench_work"),
        &format!("{}-{}", args.workload.name, std::process::id()),
    )?);
    let _ = WORK.set(work.0.clone());
    run_in(args, &work).map_err(|e| format!("{e}{}", log_tails(&work.0)))
}

fn run_in(args: &Args, work: &WorkDir) -> Result<String, String> {
    let w = args.workload;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in host_block(&work.0) {
        println!("host {k}: {v}");
    }
    if w.replica {
        println!(
            "note: primary, replica and both clients share the host's cores; this measures \
             per-read cost and staleness, not read scaling"
        );
    }

    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut cluster = None;
    let booting = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && booting.elapsed() < SETUP_BUDGET)
    {
        // The previous boot's daemons die before the next boot starts.
        drop(cluster.take());
        let (c, secs) = boot(w, &args.daemon, &work.0)?;
        setups.push(secs);
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one boot");
    let measuring = Instant::now();
    let win = measure(w, &cluster, args)?;
    let checking = Instant::now();
    let mut findings = Findings::new();
    let recovery = check(w, cluster, &win, &args.daemon, &work.0, &mut findings)?;
    if w.durable() && !w.replica {
        println!("note: the durability check SIGKILLs the daemon; the OS page cache survives it");
    }
    println!(
        "note: phases took {:.1}s booting, {:.1}s warming up and measuring, {:.1}s checking",
        (measuring - booting).as_secs_f64(),
        (checking - measuring).as_secs_f64(),
        checking.elapsed().as_secs_f64()
    );

    let report = layers::Report::new(w.name, args.trace, &setups, &win, recovery);
    report.print();
    for f in &findings {
        println!("CHECK FAILED: {f}");
    }
    let (attempted, failed) = win.outcomes.iter().fold((0, 0), |(a, f), o| {
        (a + o.tally.logical, f + o.tally.logical_failed)
    });
    Ok(report.json(findings.is_empty(), attempted, failed))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!(
            "perfbench: still running after {RUN_LIMIT:?}; giving up{}",
            WORK.get().map_or_else(String::new, |w| log_tails(w))
        );
        daemon::kill_all();
        std::process::exit(1);
    });
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
