//! The traced run: per-layer metrics, measured after the untraced run by
//! calling each layer's public functions inside the benchmark's own
//! spans.
//!
//! * Set-up: `Country::generate`, `DemandModel::new`, `Capture::build`.
//! * Engine split: the real `Capture::source` streamed through
//!   `stream_shard_chunked`, each `aggregate_batch` call in a span, shards
//!   on the same `mobilenet-par` pool the live engine uses, partials
//!   merged in shard order. Its dataset must equal the served one.
//! * Capture split: a replica of the probe loop built from public parts
//!   times sessions, ULI fix, nearest-station lookup, DPI stamp and faults
//!   on a deterministic sample of records. It mirrors two crate-private
//!   seed derivations of `netsim` (the probe RNG and the radio seed), so
//!   it checks its record stream against the source's and reports the
//!   split as unavailable when they differ.
//! * Serve: in-process `answer` per verb, protocol cost, snapshot probe,
//!   ingest slowdown against an unloaded week, subscription counts.
//! * Obs, core analyses, memory.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mobilenet_core::peaks::PeakConfig;
use mobilenet_core::ranking::{service_ranking, uplink_fraction, zipf_ranking};
use mobilenet_core::spatial::{concentration, spatial_correlation};
use mobilenet_core::temporal::{clustering_sweep, Algorithm};
use mobilenet_core::topical::topical_profiles;
use mobilenet_core::urbanization::{mean_temporal_r2, mean_volume_ratios, urbanization_profiles};
use mobilenet_geo::{Country, UsageClass};
use mobilenet_netsim::{
    aggregate_batch, collect_with_options, stream_shard_chunked, Capture, CollectionStats,
    FaultInjector, FaultStats, IngestMeter, Interface, RadioNetwork, RecordSource, SessionRecord,
    UliModel,
};
use mobilenet_serve::{answer, LiveState};
use mobilenet_traffic::{
    DemandModel, Direction, ServiceCatalog, SessionGenerator, Technology, TrafficDataset,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::run::Outcome;
use crate::stats::{median, ms};
use crate::trace::Tracer;
use crate::workload::{derive, QueryMix, Verb, Workload};
use crate::Metric;

/// Repetitions of each timed set-up step and analysis.
const REPS: usize = 5;
/// In-process `answer` calls per verb.
const ANSWER_REPS: usize = 15;
/// Rounds of the mix in the quiescent protocol-cost phase.
const PROTOCOL_ROUNDS: usize = 8;
/// Shards the capture-split replica runs.
const SPLIT_SHARDS: usize = 3;
/// One record in this many is timed step by step in the replica.
const SPLIT_SAMPLE: u64 = 16;
/// Calls per obs micro-benchmark.
const OBS_CALLS: u64 = 200_000;

/// Collects metrics by name, unit and value.
#[derive(Default)]
struct Sheet(Vec<Metric>);

impl Sheet {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Median wall time of `REPS` runs of `f`, in milliseconds.
fn median_ms<R>(tracer: &Tracer, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let open = tracer.start(name, None);
            black_box(f());
            tracer.end(open) as f64 / 1e6
        })
        .collect();
    median(&times)
}

/// Measures every per-layer metric of workload `w` after its untraced
/// run; the engine-split dataset is checked against the served one.
pub fn measure(w: &Workload, outcome: &mut Outcome) -> Result<Vec<Metric>, String> {
    let tracer = Tracer::new();
    let mut sheet = Sheet::default();
    let state = outcome.entry.state().clone();
    let model = outcome.study.model().clone();

    // Set-up layers.
    let country = Arc::new(Country::generate(&w.config.country, w.study_seed));
    let catalog = Arc::new(ServiceCatalog::standard(w.config.traffic.n_tail_services));
    sheet.put(
        "geo.country_generate_ms",
        median_ms(&tracer, "geo.country_generate", || {
            Country::generate(&w.config.country, w.study_seed)
        }),
        "ms",
    );
    sheet.put(
        "traffic.demand_model_ms",
        median_ms(&tracer, "traffic.demand_model", || {
            DemandModel::new(
                country.clone(),
                catalog.clone(),
                w.config.traffic.clone(),
                w.study_seed,
            )
        }),
        "ms",
    );
    sheet.put(
        "netsim.capture_build_ms",
        median_ms(&tracer, "netsim.capture_build", || {
            Capture::build(&model, &w.config.netsim, outcome.last_week_seed)
        }),
        "ms",
    );

    engine_split(w, outcome, &model, &tracer, &mut sheet)?;
    capture_split(w, outcome.last_week_seed, &model, &mut sheet)?;
    serve_layers(w, outcome, &state, &tracer, &mut sheet)?;
    obs_layer(&mut sheet);
    core_layers(outcome, &tracer, &mut sheet);

    let ingest = state.ingest_stats();
    sheet.put(
        "netsim.peak_resident_records",
        ingest.peak_resident_records as f64,
        "count",
    );

    let path =
        std::path::Path::new(".bench_out").join(format!("trace-{}-{}.json", w.name, w.study_seed));
    std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, tracer.to_json(&sheet.0)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(sheet.0)
}

/// One shard's result in the traced engine.
struct ShardRun {
    dataset: TrafficDataset,
    records: u64,
    chunks: u64,
    busy_ns: u64,
}

/// The live engine's shard loop over the final week, with a span per
/// shard and per `aggregate_batch` call.
fn engine_split(
    w: &Workload,
    outcome: &mut Outcome,
    model: &DemandModel,
    tracer: &Tracer,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let seed = outcome.last_week_seed;
    let options = w.config.collect_options();
    // The untraced batch engine on the same week, right before the traced
    // one: the tracing overhead is the difference between the two, measured
    // close together because this host's speed drifts.
    let t = Instant::now();
    let untraced = collect_with_options(model, &w.config.netsim, &options, seed)
        .map_err(|e| format!("untraced batch: {e}"))?;
    let untraced_rate = untraced.ingest.records as f64 / t.elapsed().as_secs_f64();
    drop(untraced);
    let capture = Capture::build(model, &w.config.netsim, seed)?;
    let source = capture.source(model, &options, seed);
    let meter = IngestMeter::new();
    let catalog = model.catalog();
    let new_dataset = || {
        TrafficDataset::new(
            model.country(),
            catalog.head().len(),
            catalog.tail_len(),
            model.config().subscriber_share,
        )
    };
    let shards = source.shards();
    let workers = mobilenet_par::current_threads().min(shards).max(1);
    let root = tracer.start("netsim.ingest", None);
    let root_id = root.id();
    let wall = Instant::now();
    let runs = mobilenet_par::par_map_collect(shards, |shard| {
        let span = tracer.start("netsim.shard", Some(root_id));
        let shard_id = span.id();
        let mut dataset = new_dataset();
        let mut stats = CollectionStats::default();
        let mut source_stats = CollectionStats::default();
        let (mut records, mut chunks) = (0u64, 0u64);
        let streamed = stream_shard_chunked(
            &source,
            shard,
            options.chunk_size,
            &meter,
            &mut source_stats,
            |batch| {
                records += batch.len() as u64;
                chunks += 1;
                tracer.time("netsim.fold", Some(shard_id), || {
                    aggregate_batch(
                        batch,
                        capture.classifier(),
                        options.fold,
                        false,
                        &mut dataset,
                        &mut stats,
                    )
                });
            },
        );
        let busy_ns = tracer.end(span);
        streamed.map(|()| ShardRun {
            dataset,
            records,
            chunks,
            busy_ns,
        })
    });
    let runs: Vec<ShardRun> = runs
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("traced ingest: {e}"))?;
    let merge = tracer.start("traffic.merge", Some(root_id));
    let mut dataset = new_dataset();
    for run in &runs {
        dataset.merge(&run.dataset).map_err(|e| e.to_string())?;
    }
    model.fill_tail(&mut dataset);
    let merge_ns = tracer.end(merge);
    let wall_s = wall.elapsed().as_secs_f64();
    tracer.end(root);

    let traced_csv: Vec<String> = dataset.to_csv().lines().map(str::to_string).collect();
    outcome.checks.lines_equal(
        "traced engine dataset equals the untraced served dataset",
        &traced_csv,
        &outcome.served_csv,
    );

    let records: u64 = runs.iter().map(|r| r.records).sum();
    let chunks: u64 = runs.iter().map(|r| r.chunks).sum();
    let totals = tracer.totals();
    let fold_ns = totals.get("netsim.fold").map_or(0, |t| t.total_ns);
    let shard_self_ns = totals.get("netsim.shard").map_or(0, |t| t.self_ns);
    let busy_ns: u64 = runs.iter().map(|r| r.busy_ns).sum();
    let largest = runs.iter().map(|r| r.busy_ns).max().unwrap_or(0);
    let per_record = |ns: u64| ns as f64 / records.max(1) as f64;
    sheet.put(
        "netsim.capture_ns_per_record",
        per_record(shard_self_ns),
        "ns",
    );
    sheet.put("netsim.fold_ns_per_record", per_record(fold_ns), "ns");
    sheet.put("netsim.records", records as f64, "count");
    sheet.put("netsim.chunks", chunks as f64, "count");
    sheet.put("traffic.merge_ms", merge_ns as f64 / 1e6, "ms");
    sheet.put("par.worker_busy_s", busy_ns as f64 / 1e9, "s");
    sheet.put(
        "par.worker_idle_s",
        (workers as f64 * wall_s - busy_ns as f64 / 1e9).max(0.0),
        "s",
    );
    sheet.put(
        "par.largest_shard_share",
        largest as f64 / busy_ns.max(1) as f64,
        "ratio",
    );
    let held: usize = runs.iter().map(|r| r.dataset.dense_bytes()).sum();
    sheet.put("traffic.dataset_bytes", held as f64, "B");
    let traced_rate = records as f64 / wall_s;
    sheet.put("trace.overhead", untraced_rate / traced_rate - 1.0, "ratio");
    Ok(())
}

/// FNV-1a digest of a record stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Digest {
    hash: u64,
    records: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            records: 0,
        }
    }

    fn push(&mut self, r: &SessionRecord) {
        let words = [
            matches!(r.interface, Interface::S5S8) as u64,
            r.start_hour as u64,
            r.dl_mb.to_bits(),
            r.ul_mb.to_bits(),
            r.commune.index() as u64,
            r.signature.0,
            r.stale_uli as u64,
        ];
        for word in words {
            for byte in word.to_le_bytes() {
                self.hash = (self.hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.records += 1;
    }
}

/// Nanoseconds of the sampled steps of the probe-loop replica.
#[derive(Default)]
struct StepTimes {
    samples: u64,
    uli: u64,
    radio: u64,
    stamp: u64,
    faults: u64,
}

/// Cost of one `Instant::now()` pair, subtracted from every timed step.
fn timer_overhead_ns() -> f64 {
    let laps: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as f64
        })
        .collect();
    median(&laps)
}

/// Splits capture into its steps on a deterministic sample of shards.
fn capture_split(
    w: &Workload,
    seed: u64,
    model: &DemandModel,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let netsim = &w.config.netsim;
    let options = w.config.collect_options();
    let capture = Capture::build(model, netsim, seed)?;
    let source = capture.source(model, &options, seed);
    let country = model.country();
    let generator = SessionGenerator::new(model, seed);
    let n = generator.shards();
    let mut shards: Vec<usize> = Vec::new();
    let mut stream = 0;
    while shards.len() < SPLIT_SHARDS.min(n) {
        let shard = (derive(w.mix_seed, 100 + stream) % n as u64) as usize;
        stream += 1;
        if !shards.contains(&shard) {
            shards.push(shard);
        }
    }
    // Mirrors of netsim's crate-private derivations: the radio seed of
    // `Capture::build` and the per-shard probe RNG of the source.
    let radio = RadioNetwork::deploy(country, netsim, seed ^ 0x7261_6469_6f00_0001);
    let probe_rng = |shard: usize| {
        StdRng::seed_from_u64(mobilenet_par::seed_for(
            seed ^ 0x7072_6f62_6572_6e67,
            shard as u64,
        ))
    };
    let directions: Vec<Option<(f64, f64)>> = country
        .communes()
        .iter()
        .map(|c| {
            if c.usage_class() == UsageClass::Tgv {
                mobilenet_geo::rail::nearest_line_direction(country.tgv_lines(), &c.centroid)
            } else {
                None
            }
        })
        .collect();
    let uli = UliModel::new(netsim);
    let classifier = capture.classifier();
    let injector = FaultInjector::new(&options.faults);
    let faulted = !options.faults.is_none();
    let overhead = timer_overhead_ns();

    let mut sessions_ns = 0u64;
    let mut sessions = 0u64;
    let mut steps = StepTimes::default();
    let mut available = true;
    for &shard in &shards {
        // Session synthesis alone.
        let t = Instant::now();
        sessions += generator.generate_shard(shard, |s| {
            black_box(s);
        });
        sessions_ns += t.elapsed().as_nanos() as u64;

        // The source's own stream, for the equality check.
        let mut reference = Digest::new();
        let mut ignored = CollectionStats::default();
        stream_shard_chunked(
            &source,
            shard,
            options.chunk_size,
            &IngestMeter::new(),
            &mut ignored,
            |batch| {
                for i in 0..batch.len() {
                    reference.push(&batch.row(i));
                }
            },
        )
        .map_err(|e| format!("reference stream: {e}"))?;

        // The replica, timing every SPLIT_SAMPLE-th record step by step.
        let mut rng = probe_rng(shard);
        let mut fault_rng = injector.shard_rng(seed, shard);
        let mut fault_stats = FaultStats::default();
        let mut replica = Digest::new();
        let mut emitted: Vec<SessionRecord> = Vec::with_capacity(4);
        let mut i = 0u64;
        generator.generate_shard(shard, |session| {
            i += 1;
            let timed = i.is_multiple_of(SPLIT_SAMPLE);
            let t0 = timed.then(Instant::now);
            let direction = directions.get(session.commune.index()).copied().flatten();
            let (fix, stale_uli) = uli.fix_along(&session.position, direction, &mut rng);
            let t1 = timed.then(Instant::now);
            let commune = radio.commune_of_fix(&fix);
            let t2 = timed.then(Instant::now);
            let signature = classifier.stamp_head(session.service, &mut rng);
            let t3 = timed.then(Instant::now);
            let record = SessionRecord {
                interface: match session.tech {
                    Technology::G3 => Interface::Gn,
                    Technology::G4 => Interface::S5S8,
                },
                start_hour: session.start_hour,
                dl_mb: session.dl_mb,
                ul_mb: session.ul_mb,
                commune,
                signature,
                stale_uli,
            };
            if faulted {
                injector.apply(&record, &mut fault_rng, &mut fault_stats, |d| {
                    emitted.push(d.clone())
                });
            } else {
                emitted.push(record);
            }
            if let (Some(t0), Some(t1), Some(t2), Some(t3)) = (t0, t1, t2, t3) {
                let t4 = Instant::now();
                let lap = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
                steps.samples += 1;
                steps.uli += lap(t0, t1);
                steps.radio += lap(t1, t2);
                steps.stamp += lap(t2, t3);
                steps.faults += lap(t3, t4);
            }
            for r in emitted.drain(..) {
                replica.push(&r);
            }
        });
        if replica != reference {
            eprintln!(
                "perfbench: capture split unavailable: replica stream of shard {shard} \
                 ({} records) differs from the source's ({} records)",
                replica.records, reference.records
            );
            available = false;
        }
    }
    // A step cheaper than the timer's own jitter can read slightly below 0.
    let per = |ns: u64| {
        if available {
            ns as f64 / steps.samples.max(1) as f64 - overhead
        } else {
            0.0
        }
    };
    sheet.put(
        "netsim.capture_split_available",
        available as u8 as f64,
        "bool",
    );
    sheet.put(
        "traffic.sessions_ns_per_record",
        sessions_ns as f64 / sessions.max(1) as f64,
        "ns",
    );
    sheet.put("netsim.uli_ns_per_record", per(steps.uli), "ns");
    sheet.put("netsim.radio_ns_per_record", per(steps.radio), "ns");
    sheet.put("netsim.classifier_ns_per_record", per(steps.stamp), "ns");
    sheet.put("netsim.faults_ns_per_record", per(steps.faults), "ns");
    Ok(())
}

/// Answer-layer, protocol, snapshot and ingest-interference metrics.
fn serve_layers(
    w: &Workload,
    outcome: &mut Outcome,
    state: &Arc<LiveState>,
    tracer: &Tracer,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let head = state.catalog().head().len();
    let round = QueryMix::new(w.mix_seed, head).round();
    let mut answer_ms = std::collections::BTreeMap::new();
    for verb in Verb::ALL {
        let query = round
            .iter()
            .find(|q| q.verb == verb)
            .expect("every verb is in a round");
        let parsed = query.parsed();
        answer(state, &parsed)?;
        let times: Vec<f64> = (0..ANSWER_REPS)
            .map(|_| {
                let open = tracer.start("serve.answer", None);
                black_box(answer(state, &parsed)).ok();
                tracer.end(open) as f64 / 1e6
            })
            .collect();
        let m = median(&times);
        answer_ms.insert(verb.token(), m);
        sheet.put(&format!("serve.answer_ms.{}", verb.token()), m, "ms");
    }

    // Protocol cost: client latency on the quiescent study minus the
    // in-process answer time of the same verb.
    let addr = outcome.server.addr().to_string();
    let mut mix = QueryMix::new(derive(w.mix_seed, 7), head);
    let mut client = mobilenet_serve::Client::connect(&addr).map_err(|e| e.to_string())?;
    let mut protocol = Vec::new();
    for _ in 0..PROTOCOL_ROUNDS {
        for q in mix.round() {
            let t = Instant::now();
            client
                .request(&q.line)
                .map_err(|e| format!("{}: {e}", q.line))?;
            protocol.push(ms(t.elapsed()) - answer_ms[q.verb.token()]);
        }
    }
    let _ = client.quit();
    sheet.put("serve.protocol_ms", median(&protocol), "ms");

    // Snapshot cache, seen by the probe that ran before every query.
    let (calls, misses, miss_ms) = outcome.probe.as_ref().map_or((0, 0, 0.0), |p| {
        (p.calls, p.miss_ms.len() as u64, median(&p.miss_ms))
    });
    sheet.put("serve.snapshot_ms", miss_ms, "ms");
    sheet.put("serve.snapshot_misses", misses as f64, "count");
    sheet.put(
        "serve.snapshot_hit_ratio",
        1.0 - misses as f64 / calls.max(1) as f64,
        "ratio",
    );

    // Ingest slowdown: one unloaded week on a fresh state, against the
    // loaded run's rate.
    let fresh = LiveState::from_config(&w.config, w.study_seed)?;
    let t = Instant::now();
    let unloaded = fresh.run_ingestion().map_err(|e| e.to_string())?;
    let unloaded_rate = unloaded.records as f64 / t.elapsed().as_secs_f64();
    drop(fresh);
    sheet.put(
        "serve.ingest_slowdown",
        unloaded_rate / outcome.e2e.records_per_s,
        "ratio",
    );

    let late = &outcome.queries.late_ms;
    let late_mean = if late.is_empty() {
        0.0
    } else {
        late.iter().sum::<f64>() / late.len() as f64
    };
    sheet.put("serve.generator_late_ms", late_mean, "ms");
    let events = outcome.subscription.as_ref().map_or(0, |s| s.events.len());
    sheet.put("serve.events", events as f64, "count");
    sheet.put(
        "serve.events_lagged",
        outcome.sequence_gaps() as f64,
        "count",
    );
    Ok(())
}

/// Per-call cost of an obs span and counter add, in the workload's obs
/// mode (recording on `serve-medium-ring`, off on `ingest-france`).
fn obs_layer(sheet: &mut Sheet) {
    let t = Instant::now();
    for _ in 0..OBS_CALLS {
        drop(black_box(mobilenet_obs::span("perfbench.obs_probe")));
    }
    sheet.put(
        "obs.span_ns",
        t.elapsed().as_nanos() as f64 / OBS_CALLS as f64,
        "ns",
    );
    let t = Instant::now();
    for _ in 0..OBS_CALLS {
        mobilenet_obs::add(black_box("perfbench.obs_probe"), 1);
    }
    sheet.put(
        "obs.add_ns",
        t.elapsed().as_nanos() as f64 / OBS_CALLS as f64,
        "ns",
    );
}

/// The analyses `verdict::evaluate` runs, one family at a time.
fn core_layers(outcome: &Outcome, tracer: &Tracer, sheet: &mut Sheet) {
    let study = &outcome.study;
    let twitter = study
        .catalog()
        .head()
        .iter()
        .position(|s| s.name == "Twitter")
        .unwrap_or(0);
    sheet.put(
        "core.ranking_ms",
        median_ms(tracer, "core.ranking", || {
            (
                zipf_ranking(study),
                service_ranking(study, Direction::Down),
                service_ranking(study, Direction::Up),
                uplink_fraction(study),
            )
        }),
        "ms",
    );
    sheet.put(
        "core.spatial_ms",
        median_ms(tracer, "core.spatial", || {
            (
                concentration(study, twitter),
                spatial_correlation(study, Direction::Down),
            )
        }),
        "ms",
    );
    sheet.put(
        "core.temporal_ms",
        median_ms(tracer, "core.temporal", || {
            clustering_sweep(study, Direction::Down, Algorithm::KShape, 3)
        }),
        "ms",
    );
    sheet.put(
        "core.topical_ms",
        median_ms(tracer, "core.topical", || {
            topical_profiles(study, Direction::Down, &PeakConfig::paper())
        }),
        "ms",
    );
    sheet.put(
        "core.urbanization_ms",
        median_ms(tracer, "core.urbanization", || {
            let profiles = urbanization_profiles(study, Direction::Down);
            (mean_volume_ratios(&profiles), mean_temporal_r2(&profiles))
        }),
        "ms",
    );
}
