//! Turning one run into named metrics: the end-to-end set from the
//! client's own counts and samples, and the per-layer set from client
//! spans plus deltas of the daemon's histograms and counters across the
//! measured window.

use crate::load::{RpcKind, Span, Tally, SLICE};
use crate::stats::{self, hist_delta, median, percentile, ratio, Interval};
use crate::Window;
use esr_obs::HistogramSnapshot;
use std::collections::BTreeMap;

/// Per-layer metrics that come from client spans or `/metrics` samples,
/// which only a traced run records.
const TRACED_ONLY: [&str; 5] = [
    "net.",
    "trace.",
    "repl.read_rpc_us",
    "repl.lag_",
    "repl.divergence_mean",
];

/// One reported number. `None` marks a layer the workload does not
/// exercise: printed as absent, and 0 in the JSON line, which must list
/// every metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
}

pub struct Report {
    workload: &'static str,
    traced: bool,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Printed detail that is not a gated metric.
    notes: Vec<String>,
}

fn m(name: impl Into<String>, unit: &'static str, value: Option<f64>) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: value.filter(|v| v.is_finite()),
    }
}

/// One of the quiet slices the end-to-end figures come from.
struct QuietSlice {
    /// Sorted latencies of the queries and updates that committed in it.
    queries: Vec<u64>,
    updates: Vec<u64>,
    /// Daemon CPU seconds used in it.
    cpu: f64,
}

impl QuietSlice {
    fn commits(&self) -> f64 {
        (self.queries.len() + self.updates.len()) as f64
    }
}

/// `Some(a / b)`, or `None` over an empty base.
fn per(a: f64, b: f64) -> Option<f64> {
    (b != 0.0).then(|| a / b)
}

fn mean_us(h: &HistogramSnapshot) -> Option<f64> {
    (h.count > 0).then(|| h.mean())
}

fn p95_us(h: &HistogramSnapshot) -> Option<f64> {
    (h.count > 0).then(|| h.p95() as f64)
}

/// Mean duration in µs of `spans` of one kind.
fn span_mean_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Option<f64> {
    let (n, total) = spans.fold((0u64, 0u64), |(n, t), s| {
        (n + 1, t + (s.at.end - s.at.start))
    });
    per(total as f64 / 1000.0, n as f64)
}

/// The per-layer metrics: client spans, deltas of the daemon's
/// histograms and counters over the window, and `/metrics` samples.
fn layer_metrics(win: &Window, recovery: Option<f64>, notes: &mut Vec<String>) -> Vec<Metric> {
    let tallies = || win.outcomes.iter().map(|o| &o.tally);
    let sum = |f: &dyn Fn(&Tally) -> u64| tallies().map(f).sum::<u64>() as f64;
    let mut per_layer = Vec::new();
    let (s0, s1) = (&win.start.stats, &win.end.stats);
    let hist = |name: &str| {
        let empty = HistogramSnapshot::new();
        hist_delta(
            s1.histogram(name).unwrap_or(&empty),
            s0.histogram(name).unwrap_or(&empty),
        )
    };
    let (k0, k1) = (&s0.kernel, &s1.kernel);
    let primary_commits = (k1.commits() - k0.commits()) as f64;

    // esr-net: client spans to the primary, per request kind.
    let spans: Vec<&Span> = tallies().flat_map(|t| t.spans.iter()).collect();
    let primary_spans = |k: RpcKind| {
        spans
            .iter()
            .copied()
            .filter(move |s| s.kind == k && !s.replica)
    };
    let probes = win.outcomes.iter().filter(|o| !o.to_replica).fold(
        HistogramSnapshot::new(),
        |mut acc, o| {
            acc.merge(&o.tally.probe);
            acc
        },
    );
    // The median, not the mean: a fresh connection's first calls
    // pay for waking its server threads.
    let wire_floor = (probes.count > 0).then(|| probes.p50() as f64);
    for (kind, server) in [
        (RpcKind::Begin, "begin"),
        (RpcKind::Op, "op"),
        (RpcKind::Batch, "batch"),
        (RpcKind::Commit, "end"),
    ] {
        let rpc = span_mean_us(primary_spans(kind));
        let queue = mean_us(&hist(&format!("server_{server}_queue_wait_micros")));
        let service = mean_us(&hist(&format!("server_{server}_service_micros")));
        let inside = queue.zip(service).map(|(q, s)| q + s);
        per_layer.push(m(format!("net.rpc_us.{}", kind.name()), "us", rpc));
        per_layer.push(m(
            format!("net.wire_self_us.{}", kind.name()),
            "us",
            rpc.zip(inside).map(|(r, i)| r - i),
        ));
        per_layer.push(m(
            format!("net.residual_us.{}", kind.name()),
            "us",
            rpc.zip(inside).zip(wire_floor).map(|((r, i), f)| r - i - f),
        ));
    }
    let traced_commits = sum(&|t| t.traced_commits);
    let untraced_commits = sum(&|t| t.untraced_commits);
    per_layer.push(m("net.wire_floor_us", "us", wire_floor));
    per_layer.push(m(
        "net.rpcs_per_txn",
        "count",
        per(spans.len() as f64, traced_commits),
    ));
    per_layer.push(m(
        "net.client_self_us_per_txn",
        "us",
        per(
            client_self_ns(&spans, tallies()) as f64 / 1000.0,
            traced_commits,
        ),
    ));
    // The traced half of the window against the untraced half.
    per_layer.push(m(
        "trace.tput_ratio",
        "ratio",
        per(traced_commits, untraced_commits).filter(|_| traced_commits > 0.0),
    ));

    // esr-server: queue wait and service per request kind.
    for part in ["queue_wait", "service"] {
        for kind in ["begin", "op", "batch", "end"] {
            let h = hist(&format!("server_{kind}_{part}_micros"));
            per_layer.push(m(
                format!("server.{part}_us.{kind}.mean"),
                "us",
                mean_us(&h),
            ));
            per_layer.push(m(format!("server.{part}_us.{kind}.p95"), "us", p95_us(&h)));
        }
    }

    // esr-tso: the kernel's counters and histograms.
    let kd = |f: fn(&esr_tso::StatsSnapshot) -> u64| (f(k1) - f(k0)) as f64;
    let op_service = hist("kernel_op_service_micros");
    let park = hist("kernel_park_wait_micros");
    per_layer.push(m("kernel.op_service_us.mean", "us", mean_us(&op_service)));
    per_layer.push(m("kernel.op_service_us.p95", "us", p95_us(&op_service)));
    per_layer.push(m("kernel.park_wait_us.mean", "us", mean_us(&park)));
    per_layer.push(m("kernel.park_wait_us.p95", "us", p95_us(&park)));
    per_layer.push(m(
        "kernel.waits_per_txn",
        "count",
        per(kd(|k| k.waits), primary_commits),
    ));
    per_layer.push(m(
        "kernel.relax_reads_per_query",
        "count",
        per(kd(|k| k.inconsistent_reads), kd(|k| k.commits_query)),
    ));
    per_layer.push(m(
        "kernel.relax_writes_per_update",
        "count",
        per(kd(|k| k.inconsistent_writes), kd(|k| k.commits_update)),
    ));
    per_layer.push(m(
        "kernel.abort_ratio.query",
        "ratio",
        per(
            kd(|k| k.aborts_query),
            kd(|k| k.aborts_query) + kd(|k| k.commits_query),
        ),
    ));
    per_layer.push(m(
        "kernel.abort_ratio.update",
        "ratio",
        per(
            kd(|k| k.aborts_update),
            kd(|k| k.aborts_update) + kd(|k| k.commits_update),
        ),
    ));
    let primary_tallies = || {
        win.outcomes
            .iter()
            .filter(|o| !o.to_replica)
            .map(|o| &o.tally)
    };
    per_layer.push(m(
        "kernel.wasted_op_ratio",
        "ratio",
        per(
            primary_tallies().map(|t| t.ops_wasted).sum::<u64>() as f64,
            primary_tallies().map(|t| t.ops).sum::<u64>() as f64,
        ),
    ));

    // esr-storage::wal: present on durable daemons only.
    let fsync = hist("fsync_micros");
    let durable = s1.histogram("fsync_micros").is_some();
    let updates_committed = kd(|k| k.commits_update);
    per_layer.push(m("wal.fsync_us.mean", "us", mean_us(&fsync)));
    per_layer.push(m("wal.fsync_us.p95", "us", p95_us(&fsync)));
    per_layer.push(m(
        "wal.commits_per_fsync",
        "ratio",
        per(updates_committed, fsync.count as f64),
    ));
    per_layer.push(m(
        "wal.bytes_per_commit",
        "B",
        per((s1.wal_bytes - s0.wal_bytes) as f64, updates_committed).filter(|_| durable),
    ));
    per_layer.push(m("wal.recovery_s", "s", recovery));

    // esr-storage::pager: present with a page cache only.
    let pager = s0.page_cache.as_ref().zip(s1.page_cache.as_ref());
    let pd =
        |f: fn(&esr_storage::PageCacheSnapshot) -> u64| pager.map(|(a, b)| (f(b) - f(a)) as f64);
    let (hits, misses, evictions, flushes) = (
        pd(|p| p.hits),
        pd(|p| p.misses),
        pd(|p| p.evictions),
        pd(|p| p.dirty_flushes),
    );
    per_layer.push(m(
        "pager.hit_ratio",
        "ratio",
        hits.zip(misses).and_then(|(h, x)| per(h, h + x)),
    ));
    per_layer.push(m(
        "pager.misses_per_txn",
        "count",
        misses.and_then(|x| per(x, primary_commits)),
    ));
    per_layer.push(m(
        "pager.evictions_per_txn",
        "count",
        evictions.and_then(|x| per(x, primary_commits)),
    ));
    per_layer.push(m(
        "pager.dirty_flushes_per_eviction",
        "ratio",
        flushes.zip(evictions).and_then(|(f, e)| per(f, e)),
    ));

    // esr-net::repl: replica /metrics samples and the reader client.
    let fsorted = |v: &[f64]| {
        let mut s: Vec<u64> = v.iter().map(|&x| x as u64).collect();
        s.sort_unstable();
        s
    };
    let samples = &win.samples;
    let readers = || {
        win.outcomes
            .iter()
            .filter(|o| o.to_replica)
            .map(|o| &o.tally)
    };
    let staleness = {
        let mut v: Vec<u64> = readers()
            .flat_map(|t| t.staleness_us.iter().copied())
            .collect();
        v.sort_unstable();
        v
    };
    per_layer.push(m(
        "repl.lag_records_p95",
        "count",
        percentile(&fsorted(&samples.lag_records), 95.0).map(|x| x as f64),
    ));
    per_layer.push(m(
        "repl.lag_us_p95",
        "us",
        percentile(&fsorted(&samples.lag_us), 95.0).map(|x| x as f64),
    ));
    let reader_attempts = readers().map(|t| t.attempts).sum::<u64>() as f64;
    per_layer.push(m(
        "repl.reject_ratio",
        "ratio",
        per(
            readers().map(|t| t.busy).sum::<u64>() as f64,
            reader_attempts,
        ),
    ));
    per_layer.push(m(
        "repl.divergence_mean",
        "count",
        per(
            samples.divergence.iter().sum(),
            samples.divergence.len() as f64,
        ),
    ));
    per_layer.push(m(
        "repl.staleness_p50_us",
        "us",
        percentile(&staleness, 50.0).map(|x| x as f64),
    ));
    per_layer.push(m(
        "repl.read_rpc_us",
        "us",
        span_mean_us(
            spans
                .iter()
                .copied()
                .filter(|s| s.replica && s.kind == RpcKind::Batch),
        ),
    ));
    if !staleness.is_empty() {
        notes.push(latency_note("replica staleness", &staleness));
    }

    // esr-checker monitor: shares the cores with everything else.
    let monitor_events = |s: &crate::Snapshot| s.metrics.get("esr_monitor_events_total").copied();
    per_layer.push(m(
        "monitor.events_per_txn",
        "count",
        monitor_events(&win.end)
            .zip(monitor_events(&win.start))
            .and_then(|(b, a)| per(b - a, primary_commits)),
    ));
    let retained = samples
        .retained_entries
        .iter()
        .chain(win.start.metrics.get("esr_monitor_retained_entries"))
        .chain(win.end.metrics.get("esr_monitor_retained_entries"))
        .copied()
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.max(x)))
        });
    per_layer.push(m("monitor.retained_entries_peak", "count", retained));
    per_layer
}

/// Total client self time of the traced attempts: each attempt's span
/// minus the part its calls (the spans sharing its id) cover.
fn client_self_ns<'a>(spans: &[&Span], tallies: impl Iterator<Item = &'a Tally>) -> u64 {
    let mut calls: BTreeMap<u64, Vec<Interval>> = BTreeMap::new();
    for s in spans {
        calls.entry(s.txn).or_default().push(s.at);
    }
    tallies
        .flat_map(|t| t.txn_spans.iter())
        .map(|(id, at)| stats::self_time(*at, calls.get(id).map_or(&[][..], |v| &v[..])))
        .sum()
}

/// Latency summary line: median, p95, p99 and the highest percentile
/// with at least ten samples beyond it, with the sample count.
fn latency_note(label: &str, sorted: &[u64]) -> String {
    let n = sorted.len();
    let top = match stats::top_percentile(n) {
        Some(p) => format!(
            "top p{p} (>=10 beyond) {} us",
            percentile(sorted, p).unwrap_or(0)
        ),
        None => "too few samples for a tail percentile".into(),
    };
    format!(
        "{label}: n={n} p50={} p95={} p99={} us; {top}",
        percentile(sorted, 50.0).unwrap_or(0),
        percentile(sorted, 95.0).unwrap_or(0),
        percentile(sorted, 99.0).unwrap_or(0),
    )
}

impl Report {
    pub fn new(
        workload: &'static str,
        traced: bool,
        setups: &[f64],
        win: &Window,
        recovery: Option<f64>,
    ) -> Report {
        let mut notes = Vec::new();
        let tallies = || win.outcomes.iter().map(|o| &o.tally);
        let sum = |f: &dyn Fn(&Tally) -> u64| tallies().map(f).sum::<u64>() as f64;
        // Latency samples of the given slices, or of the whole run.
        let sorted = |f: &dyn Fn(&Tally) -> &Vec<Vec<u64>>, slices: Option<&[usize]>| {
            let mut v: Vec<u64> = tallies()
                .flat_map(|t| f(t).iter().enumerate())
                .filter(|(i, _)| slices.is_none_or(|s| s.contains(i)))
                .flat_map(|(_, samples)| samples.iter().copied())
                .collect();
            v.sort_unstable();
            v
        };
        let commits = win.commits() as f64;
        let attempts = sum(&|t| t.attempts);
        let queries = sorted(&|t| &t.query_us, None);
        let updates = sorted(&|t| &t.update_us, None);

        // ---- end to end: medians over the quiet half of the slices ----
        // The host is a shared VM: the hypervisor steals CPU in bursts,
        // and a slice it stole from runs slow. Time, CPU and latency
        // come from the half of the slices with the least steal.
        let steal: Vec<f64> = win.slices.iter().map(|x| x.steal).collect();
        let n = steal.len();
        let quiet = stats::quiet_slices(&steal, n.div_ceil(2));
        // Per-slice figures over the quiet slices, then their median:
        // a stall that steal does not show (disk, memory bandwidth)
        // moves a minority of slices, not the result.
        let per_slice: Vec<QuietSlice> = quiet
            .iter()
            .map(|&i| QuietSlice {
                queries: sorted(&|t| &t.query_us, Some(&[i])),
                updates: sorted(&|t| &t.update_us, Some(&[i])),
                cpu: win.slices[i].cpu,
            })
            .collect();
        let over_slices = |f: &dyn Fn(&QuietSlice) -> Option<f64>| {
            let v: Vec<f64> = per_slice.iter().filter_map(f).collect();
            (!v.is_empty()).then(|| median(&v))
        };
        let pct = |v: &[u64], p| percentile(v, p).map(|x| x as f64);
        let slice_secs = SLICE.as_secs_f64();
        let end_to_end = vec![
            m("setup_s", "s", Some(median(setups))),
            m(
                "commit_tput",
                "1/s",
                over_slices(&|s| Some(s.commits() / slice_secs)),
            ),
            m(
                "query_p50_us",
                "us",
                over_slices(&|s| pct(&s.queries, 50.0)),
            ),
            m(
                "query_p95_us",
                "us",
                over_slices(&|s| pct(&s.queries, 95.0)),
            ),
            m(
                "update_p50_us",
                "us",
                over_slices(&|s| pct(&s.updates, 50.0)),
            ),
            m(
                "update_p95_us",
                "us",
                over_slices(&|s| pct(&s.updates, 95.0)),
            ),
            m("attempts_per_commit", "ratio", per(attempts, commits)),
            m(
                "cpu_us_per_txn",
                "us",
                over_slices(&|s| per(s.cpu * 1e6, s.commits())),
            ),
            m("rss_peak_mb", "MiB", Some(win.rss_mb)),
        ];
        notes.push(format!(
            "slices (steal%/commits): {}",
            win.slices
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let c: usize = tallies()
                        .map(|t| {
                            t.query_us.get(i).map_or(0, Vec::len)
                                + t.update_us.get(i).map_or(0, Vec::len)
                        })
                        .sum();
                    format!("{:.0}/{c}", 100.0 * x.steal)
                })
                .collect::<Vec<_>>()
                .join(" ")
        ));
        notes.push(format!(
            "quiet slices: {} of {} ({}s each), steal in them {:.2}% vs {:.2}% over all",
            quiet.len(),
            n,
            SLICE.as_secs_f64(),
            100.0 * quiet.iter().map(|&i| steal[i]).sum::<f64>() / quiet.len().max(1) as f64,
            100.0 * steal.iter().sum::<f64>() / n.max(1) as f64,
        ));
        let mut boots = setups.to_vec();
        boots.sort_by(f64::total_cmp);
        notes.push(format!(
            "setup boots: {} from {:.4}s to {:.4}s, median {:.4}s",
            boots.len(),
            boots.first().copied().unwrap_or(0.0),
            boots.last().copied().unwrap_or(0.0),
            median(&boots),
        ));
        if let (Some(a), Some(b)) = (win.start.host.get(..8), win.end.host.get(..8)) {
            let d: Vec<f64> = a
                .iter()
                .zip(b)
                .map(|(x, y)| y.saturating_sub(*x) as f64)
                .collect();
            let total: f64 = d.iter().sum();
            notes.push(format!(
                "host cpu over the window: busy {:.1}%, idle {:.1}%, steal {:.1}%",
                100.0 * ratio(total - d[3] - d[4] - d[7], total),
                100.0 * ratio(d[3] + d[4], total),
                100.0 * ratio(d[7], total),
            ));
        }
        notes.push(latency_note("query latency", &queries));
        notes.push(latency_note("update latency", &updates));
        let (aborts, busy, errors) = (sum(&|t| t.aborts), sum(&|t| t.busy), sum(&|t| t.errors));
        notes.push(format!(
            "fail_ratio = {:.6} ({} aborted + {} busy-rejected + {} errored of {} attempts; \
             {} committed in {:.3}s)",
            ratio(aborts + busy + errors, attempts),
            aborts,
            busy,
            errors,
            attempts,
            commits,
            win.secs
        ));
        if let Some(e) = tallies().find_map(|t| t.first_error.as_ref()) {
            notes.push(format!("first client error: {e}"));
        }

        let per_layer = layer_metrics(win, recovery, &mut notes);

        Report {
            workload,
            traced,
            end_to_end,
            per_layer,
            notes,
        }
    }

    pub fn print(&self) {
        let show = |section: &str, metrics: &[Metric]| {
            for x in metrics {
                match x.value {
                    Some(v) => println!("{section} {} = {v} {}", x.name, x.unit),
                    None if !self.traced && TRACED_ONLY.iter().any(|p| x.name.starts_with(p)) => {
                        println!(
                            "{section} {} = absent (recorded only with --trace 1)",
                            x.name
                        )
                    }
                    None => println!(
                        "{section} {} = absent ({} does not exercise it)",
                        x.name, self.workload
                    ),
                }
            }
        };
        show("e2e", &self.end_to_end);
        for n in &self.notes {
            println!("note {n}");
        }
        show("layer", &self.per_layer);
    }

    /// The result line: the end-to-end metrics untraced, the per-layer
    /// metrics traced.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name,
                    x.value.unwrap_or(0.0),
                    x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}
