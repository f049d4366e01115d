//! The untraced end-to-end run of one workload: set up and serve the
//! study, run the final week through the batch engine as the reference,
//! evaluate the paper's claims on it, ingest under the workload's client
//! load, and check the served outputs against the reference.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mobilenet_core::verdict;
use mobilenet_core::{spatial_correlation_of, top_k_services, Study};
use mobilenet_netsim::{collect_with_options, CollectionOutput};
use mobilenet_serve::{
    spawn_registry_server, week_seed, Client, DeltaEvent, LiveState, ServerHandle, StudyEntry,
    StudyRegistry,
};
use mobilenet_traffic::DemandModel;
use mobilenet_traffic::Direction;

use crate::checks::Checks;
use crate::clients::{self, QueryLog, SnapshotProbe, SubscriptionLog};
use crate::stats::{median, percentile};
use crate::workload::{derive, Load, QueryMix, Verb, Workload, QUERY_CLIENTS};

/// Timed set-ups, after one untimed warm-up: half before ingest, half at
/// the end of the run. The short timed phases are repeated at several
/// points of the run because this host's speed drifts by a fifth over
/// tens of seconds; a median over points far apart follows the drift
/// less than one over a burst of back-to-back repetitions.
const SETUP_REPS: usize = 10;
/// Timed `verdict::evaluate` runs at each pause of the run: before
/// ingest, between ingest and a closed-loop query phase, and at the end.
const ANALYSIS_REPS: usize = 3;
/// Every this-many-th head service's `SERIES` is checked against the
/// reference (each served check costs one round trip).
const SERIES_STRIDE: usize = 5;
/// Claims `verdict::evaluate` encodes.
const CLAIMS: usize = 19;

/// The seven end-to-end metrics, less `peak_rss_mb` (read by the
/// launcher from the process's resource usage).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub records_per_s: f64,
    pub batch_records_per_s: f64,
    pub analysis_s: f64,
    pub query_p50_ms: f64,
    pub query_p99_ms: f64,
}

/// A finished run: its metrics, operation accounting, and what the
/// traced layers reuse (the still-running server and the reference).
pub struct Outcome {
    pub e2e: EndToEnd,
    pub checks: Checks,
    pub queries: QueryLog,
    pub subscription: Option<SubscriptionLog>,
    pub probe: Option<SnapshotProbe>,
    pub server: ServerHandle,
    pub entry: Arc<StudyEntry>,
    /// The served `DATASET` body at completion.
    pub served_csv: Vec<String>,
    /// The batch reference of the final week, as an analysable study.
    pub study: Study,
    /// Seed of the final ring week.
    pub last_week_seed: u64,
}

impl Outcome {
    /// Operations attempted: queries, subscription deliveries, checks.
    pub fn attempted(&self) -> u64 {
        let deliveries = self
            .subscription
            .as_ref()
            .map_or(0, |s| s.events.len() as u64);
        self.queries.attempted() + deliveries + self.checks.attempted
    }

    /// Operations failed: failed queries, sequence gaps, failed checks.
    pub fn failed(&self) -> u64 {
        self.queries.failed + self.sequence_gaps() + self.checks.failed
    }

    /// Events the subscriber missed: the sum of gaps in its sequence.
    pub fn sequence_gaps(&self) -> u64 {
        let Some(sub) = &self.subscription else {
            return 0;
        };
        let mut expected = 0u64;
        let mut gaps = 0u64;
        for (seq, _) in &sub.events {
            gaps += seq.saturating_sub(expected);
            expected = seq + 1;
        }
        gaps
    }
}

/// One set-up: the live state (country, demand model), its registration
/// and the server bind — everything before the first record.
fn set_up(w: &Workload) -> Result<(Arc<StudyEntry>, ServerHandle, f64), String> {
    let t = Instant::now();
    let state = LiveState::from_config(&w.config, w.study_seed)?;
    let registry = StudyRegistry::new();
    let entry = registry.register_state(w.name, w.scale, state, w.weeks)?;
    let server = spawn_registry_server(registry, "127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok((entry, server, t.elapsed().as_secs_f64()))
}

/// Runs `n` set-ups, recording each time when `timed`, and returns the
/// last one (earlier ones are shut down).
fn set_ups(
    w: &Workload,
    n: usize,
    timed: bool,
    times: &mut Vec<f64>,
) -> Result<(Arc<StudyEntry>, ServerHandle), String> {
    let mut kept: Option<(Arc<StudyEntry>, ServerHandle)> = None;
    for _ in 0..n {
        if let Some((_, mut server)) = kept.take() {
            server.shutdown();
        }
        let (entry, server, secs) = set_up(w)?;
        if timed {
            times.push(secs);
        }
        kept = Some((entry, server));
    }
    Ok(kept.expect("at least one set-up"))
}

/// Runs `verdict::evaluate` `n` times, recording each time.
fn analyses(study: &Study, n: usize, times: &mut Vec<f64>) -> Vec<verdict::PaperClaim> {
    let mut claims = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        claims = verdict::evaluate(study);
        times.push(t.elapsed().as_secs_f64());
    }
    claims
}

/// One timed batch collection of the final week; records its rate.
fn batch_reference(
    w: &Workload,
    model: &DemandModel,
    rates: &mut Vec<f64>,
) -> Result<CollectionOutput, String> {
    let seed = week_seed(w.study_seed, w.weeks - 1);
    let t = Instant::now();
    let out = collect_with_options(model, &w.config.netsim, &w.config.collect_options(), seed)
        .map_err(|e| format!("batch reference: {e}"))?;
    rates.push(out.ingest.records as f64 / t.elapsed().as_secs_f64());
    Ok(out)
}

/// Blocks until the study reports its final week complete and returns
/// the seconds since `start`; prints each week's records/s to stderr.
fn wait_complete(state: &LiveState, start: Instant) -> f64 {
    let (mut week, mut mark) = (state.week(), (0.0, 0));
    let mut weekly = Vec::new();
    loop {
        let done = state.complete();
        if done || state.week() != week {
            let now = (start.elapsed().as_secs_f64(), state.ingest_stats().records);
            weekly.push((now.1 - mark.1) as f64 / (now.0 - mark.0));
            (week, mark) = (state.week(), now);
        }
        if done {
            eprintln!("perfbench: records/s by week {weekly:.0?}");
            return mark.0;
        }
        state.notifier().wait_timeout(Duration::from_millis(5));
    }
}

/// Runs workload `w` untraced (`trace` only adds the snapshot probe).
/// A closed-loop query phase lasts until `seconds` after the run began;
/// an open loop lasts as long as ingest, whose work the workload fixes.
pub fn run(w: &Workload, seconds: Duration, trace: bool) -> Result<Outcome, String> {
    let deadline = Instant::now() + seconds;
    mobilenet_obs::set_enabled(Some(w.obs));
    mobilenet_par::set_thread_override(Some(w.workers));

    // Set-up, warm-up first; the last set-up is kept and served.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    set_ups(w, 1, false, &mut setup_times)?.1.shutdown();
    let (entry, server) = set_ups(w, SETUP_REPS / 2, true, &mut setup_times)?;
    let addr = server.addr().to_string();
    let state = entry.state().clone();
    let head = state.catalog().head().len();
    let probe = trace.then(|| Mutex::new(SnapshotProbe::new(state.clone())));

    // The batch reference: the final week through the batch engine, run
    // before ingest and again at the end on the ring, where one run is
    // short.
    let model = w.config.demand_model(w.study_seed);
    let last_week_seed = week_seed(w.study_seed, w.weeks - 1);
    let mut batch_rates = Vec::with_capacity(w.batch_runs);
    let study = Study::from_parts(model.clone(), batch_reference(w, &model, &mut batch_rates)?);
    let mut analysis_times = Vec::new();
    analyses(&study, 1, &mut Vec::new());
    analyses(&study, ANALYSIS_REPS, &mut analysis_times);

    // Ingest under the workload's load.
    let (logs, subscription, ingest_s) = match w.load {
        Load::ClosedAfterIngest => {
            let start = Instant::now();
            server.registry().start(&entry)?;
            let ingest_s = wait_complete(&state, start);
            analyses(&study, ANALYSIS_REPS, &mut analysis_times);
            let logs = run_clients(w, head, |_, mix| {
                clients::closed_loop(&addr, mix, deadline, probe.as_ref())
            })?;
            (logs, None, ingest_s)
        }
        Load::OpenDuringIngest { rate_per_s } => {
            let start = Instant::now();
            let (logs, ingest_s) = std::thread::scope(|scope| {
                let queries = scope.spawn(|| {
                    let done = || state.complete();
                    // Client `c` starts `c / QUERY_CLIENTS` of a period
                    // late, so the connections' queries interleave evenly.
                    let stagger = 1.0 / (rate_per_s * QUERY_CLIENTS as f64);
                    run_clients(w, head, |c, mix| {
                        let first_due = start + Duration::from_secs_f64(c as f64 * stagger);
                        clients::open_loop(&addr, mix, rate_per_s, first_due, &done, probe.as_ref())
                    })
                });
                let ingest_s = server
                    .registry()
                    .start(&entry)
                    .map(|()| wait_complete(&state, start));
                let logs = queries.join().expect("query clients panicked");
                ingest_s.and_then(|ingest_s| logs.map(|logs| (logs, ingest_s)))
            })?;
            // The subscriber attaches once ingest is complete: attached
            // during ingest, the publisher rebuilds a snapshot under every
            // shard lock after each fold and starves the ingest worker, and
            // the run time of the same ring swung twofold between runs.
            let subscription =
                clients::subscribe_all(&addr).map_err(|e| format!("subscriber: {e}"))?;
            (logs, Some(subscription), ingest_s)
        }
    };
    let client_watermarks: Vec<Vec<(usize, usize)>> =
        logs.iter().map(|log| log.watermarks.clone()).collect();
    let queries = QueryLog::merge(logs);
    for verb in Verb::ALL {
        let lat: Vec<f64> = queries
            .samples
            .iter()
            .filter(|s| s.verb == verb)
            .map(|s| s.latency_ms)
            .collect();
        eprintln!(
            "perfbench: {} {} {verb:?} queries: p50 {:.2} ms, p99 {:.2} ms",
            w.name,
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 99.0)
        );
    }
    let live = state.ingest_stats();
    let records_per_s = live.records as f64 / ingest_s;
    eprintln!(
        "perfbench: {} ingest {} records in {:.3} s; {} queries, {} of them sent during ingest",
        w.name,
        live.records,
        ingest_s,
        queries.attempted(),
        queries.during_ingest
    );

    // The served answers the checks compare, read once ingest is over.
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    let served_csv = client.request("DATASET").map_err(|e| e.to_string())?;
    let mut requests = Vec::new();
    for dir in ["dl", "ul"] {
        requests.push(format!("RANK {dir} {head}"));
        requests.push(format!("R2 {dir}"));
        requests.extend(
            (0..head)
                .step_by(SERIES_STRIDE)
                .map(|s| format!("SERIES {dir} {s}")),
        );
    }
    let mut served = Vec::with_capacity(requests.len());
    for line in &requests {
        served.push(client.request(line).map_err(|e| format!("{line}: {e}"))?);
    }
    let _ = client.quit();

    let mut checks = Checks::default();
    let batch_dataset = study.dataset();
    let batch_stats = study
        .collection_stats()
        .expect("a collected study has stats");
    let batch_ingest = study
        .ingest_stats()
        .expect("a collected study has ingest stats");
    let reference_csv: Vec<String> = batch_dataset.to_csv().lines().map(str::to_string).collect();
    checks.lines_equal(
        "served DATASET equals the batch reference",
        &served_csv,
        &reference_csv,
    );
    let names = state.service_names();
    let catalog = state.catalog().head();
    let mut reference = Vec::new();
    for dir in [Direction::Down, Direction::Up] {
        reference.push(
            top_k_services(batch_dataset, catalog, dir, head)
                .iter()
                .map(|s| format!("{} {:e} {}", s.name, s.share_of_total, s.category.label()))
                .collect::<Vec<_>>(),
        );
        let corr = spatial_correlation_of(batch_dataset, names.clone(), dir);
        let mut lines = vec![format!("mean {:e}", corr.mean_r2)];
        lines.extend(
            corr.names
                .iter()
                .enumerate()
                .map(|(s, name)| format!("{name} {:e}", corr.service_mean_r2(s))),
        );
        reference.push(lines);
        for (s, spec) in catalog.iter().enumerate().step_by(SERIES_STRIDE) {
            let values: Vec<String> = batch_dataset
                .national_series_window(dir, s, 0, mobilenet_traffic::HOURS_PER_WEEK)
                .iter()
                .map(|v| format!("{v:e}"))
                .collect();
            reference.push(vec![format!("{} {}", spec.name, values.join(" "))]);
        }
    }
    for ((line, served), reference) in requests.iter().zip(&served).zip(&reference) {
        checks.lines_equal(
            &format!("served {line} equals in-process"),
            served,
            reference,
        );
    }

    let snap = state.snapshot();
    checks.check("live snapshot is complete", snap.complete, || {
        "not complete".into()
    });
    checks.check(
        "live peak resident records within chunk_size x workers",
        live.peak_resident_records <= live.resident_budget(),
        || {
            format!(
                "{} > {}",
                live.peak_resident_records,
                live.resident_budget()
            )
        },
    );
    checks.check(
        "batch peak resident records within chunk_size x workers",
        batch_ingest.peak_resident_records <= batch_ingest.resident_budget(),
        || {
            format!(
                "{} > {}",
                batch_ingest.peak_resident_records,
                batch_ingest.resident_budget()
            )
        },
    );
    for (label, stats) in [("live", &snap.stats), ("batch", batch_stats)] {
        let kept = stats.gn_records + stats.s5s8_records;
        let f = &stats.faults;
        if w.config.faults.is_none() {
            checks.check(
                &format!("{label}: records equal sessions"),
                kept == stats.sessions,
                || format!("{kept} records, {} sessions", stats.sessions),
            );
        } else {
            let expected = stats.sessions - f.lost_total() + f.duplicated_records;
            checks.check(
                &format!("{label}: kept = sessions - lost + duplicated"),
                kept == expected,
                || format!("{kept} kept, expected {expected}"),
            );
        }
    }
    if w.weeks == 1 {
        checks.check(
            "live ingest records equal the batch records",
            live.records == batch_ingest.records,
            || format!("{} vs {}", live.records, batch_ingest.records),
        );
    }
    for (c, marks) in client_watermarks.iter().enumerate() {
        check_watermarks(&mut checks, &format!("client {c} WATERMARK answers"), marks);
    }
    if let Some(sub) = &subscription {
        let polled =
            |line: String| &served[requests.iter().position(|r| *r == line).expect("sent")];
        check_subscription(
            &mut checks,
            sub,
            polled(format!("RANK dl {head}")),
            polled(format!("RANK ul {head}")),
        );
    }

    // The last repetitions of the short timed phases.
    let claims = analyses(&study, ANALYSIS_REPS, &mut analysis_times);
    set_ups(w, SETUP_REPS - SETUP_REPS / 2, true, &mut setup_times)?
        .1
        .shutdown();
    for _ in 1..w.batch_runs {
        batch_reference(w, &model, &mut batch_rates)?;
    }
    let analysis_s = median(&analysis_times);
    let setup_s = median(&setup_times);
    let batch_records_per_s = median(&batch_rates);
    eprintln!("perfbench: {} batch {batch_rates:.0?} records/s", w.name);
    eprintln!(
        "perfbench: {} analysis {analysis_s:.3} s {analysis_times:.3?}",
        w.name
    );
    eprintln!(
        "perfbench: {} setup {setup_s:.4} s {setup_times:.4?}",
        w.name
    );
    checks.check(
        "verdict encodes every claim",
        claims.len() == CLAIMS,
        || format!("{} claims", claims.len()),
    );
    for claim in &claims {
        if w.unchecked_claims.contains(&claim.id) {
            if !claim.pass() {
                eprintln!(
                    "perfbench: unchecked claim {} measured {} outside {:?}",
                    claim.id, claim.measured, claim.band
                );
            }
            continue;
        }
        checks.check(&format!("claim {}", claim.id), claim.pass(), || {
            format!("measured {} outside {:?}", claim.measured, claim.band)
        });
    }

    let latencies: Vec<f64> = queries.samples.iter().map(|s| s.latency_ms).collect();
    let e2e = EndToEnd {
        setup_s,
        records_per_s,
        batch_records_per_s,
        analysis_s,
        query_p50_ms: percentile(&latencies, 50.0),
        query_p99_ms: percentile(&latencies, 99.0),
    };
    Ok(Outcome {
        e2e,
        checks,
        queries,
        subscription,
        probe: probe.map(|p| p.into_inner().expect("snapshot probe lock")),
        server,
        entry,
        served_csv,
        study,
        last_week_seed,
    })
}

/// Runs [`QUERY_CLIENTS`] query clients, one connection and thread
/// each; `client(c, mix)` runs client `c`, whose queries `mix` draws
/// from stream `c` of the mix seed.
fn run_clients<F>(w: &Workload, head: usize, client: F) -> Result<Vec<QueryLog>, String>
where
    F: Fn(usize, &mut QueryMix) -> Result<QueryLog, mobilenet_serve::ClientError> + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..QUERY_CLIENTS)
            .map(|c| {
                let client = &client;
                scope.spawn(move || {
                    client(c, &mut QueryMix::new(derive(w.mix_seed, c as u64), head))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let log = h.join().expect("query client panicked");
                log.map_err(|e| format!("query client: {e}"))
            })
            .collect()
    })
}

/// The watermark never goes backwards within a week, and weeks only
/// advance.
fn check_watermarks(checks: &mut Checks, label: &str, marks: &[(usize, usize)]) {
    let regress = marks.windows(2).position(|p| p[1] < p[0]);
    checks.check(
        &format!("{label}: watermark monotone within each week"),
        regress.is_none(),
        || {
            let i = regress.unwrap_or(0);
            format!("{:?} followed by {:?}", marks[i], marks[i + 1])
        },
    );
}

/// Sequence numbers run 0, 1, 2, … without gaps, the stream ends with
/// `end`, and replaying its rank events ends on the polled `RANK`.
fn check_subscription(
    checks: &mut Checks,
    sub: &SubscriptionLog,
    rank_dl: &[String],
    rank_ul: &[String],
) {
    checks.check("subscription ended cleanly", sub.error.is_none(), || {
        sub.error.clone().unwrap_or_default()
    });
    let contiguous = sub
        .events
        .iter()
        .enumerate()
        .all(|(i, (seq, _))| *seq == i as u64);
    checks.check("subscription sequence contiguous", contiguous, || {
        format!(
            "{} events, last seq {:?}",
            sub.events.len(),
            sub.events.last().map(|e| e.0)
        )
    });
    let ends = matches!(sub.events.last(), Some((_, DeltaEvent::End { .. })));
    checks.check("subscription ends with end", ends, || {
        format!("{:?}", sub.events.last())
    });
    let marks: Vec<(usize, usize)> = sub
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            DeltaEvent::Watermark { week, hour, .. } => Some((*week, *hour)),
            _ => None,
        })
        .collect();
    check_watermarks(checks, "subscription watermark events", &marks);
    for (dir, polled) in [(Direction::Down, rank_dl), (Direction::Up, rank_ul)] {
        let replayed: Vec<String> = sub
            .events
            .iter()
            .rev()
            .find_map(|(_, e)| match e {
                DeltaEvent::Rank {
                    dir: d, entries, ..
                } if *d == dir => Some(entries.iter().map(|r| r.protocol_line()).collect()),
                _ => None,
            })
            .unwrap_or_default();
        checks.lines_equal(
            &format!("replayed rank deltas equal polled RANK ({dir:?})"),
            &replayed,
            polled,
        );
    }
}
