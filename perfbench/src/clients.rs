//! Protocol clients: the closed- and open-loop query generators and the
//! `SUBSCRIBE all` listener. All talk to the server through
//! `mobilenet_serve::Client` only.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mobilenet_serve::{Client, ClientError, DeltaEvent, LiveSnapshot, LiveState, Topic};

use crate::stats::ms;
use crate::workload::{QueryMix, Verb, MIN_QUERIES_PER_CLIENT};

/// One timed query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub verb: Verb,
    /// Client-observed latency; for the open loop, from the due time.
    pub latency_ms: f64,
}

/// What one query client saw.
#[derive(Debug, Default)]
pub struct QueryLog {
    pub samples: Vec<Sample>,
    /// Queries answered with `ERR` or lost to an I/O error.
    pub failed: u64,
    /// How late each send ran behind its due time: the schedule in the
    /// open loop, the previous answer in the closed loop.
    pub late_ms: Vec<f64>,
    /// `(week, hour)` of every `WATERMARK` answer, in arrival order.
    pub watermarks: Vec<(usize, usize)>,
    /// Queries sent before ingest completed (open loop only).
    pub during_ingest: u64,
}

impl QueryLog {
    /// Queries attempted (answered or failed).
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    /// The logs of several clients as one; watermarks concatenate, so
    /// their order holds only within each client's stretch.
    pub fn merge(logs: Vec<QueryLog>) -> QueryLog {
        let mut all = QueryLog::default();
        for log in logs {
            all.samples.extend(log.samples);
            all.failed += log.failed;
            all.late_ms.extend(log.late_ms);
            all.watermarks.extend(log.watermarks);
            all.during_ingest += log.during_ingest;
        }
        all
    }

    fn record(&mut self, verb: Verb, result: Result<Vec<String>, ClientError>, latency: Duration) {
        match result {
            Ok(body) => {
                if verb == Verb::Watermark {
                    if let Some(mark) = body.first().and_then(|l| parse_watermark(l)) {
                        self.watermarks.push(mark);
                    }
                }
                self.samples.push(Sample {
                    verb,
                    latency_ms: ms(latency),
                });
            }
            Err(e) => {
                eprintln!("perfbench: query {verb:?} failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// Parses `hour H complete C version V week W weeks N` into `(W, H)`.
fn parse_watermark(line: &str) -> Option<(usize, usize)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let field = |key: &str| {
        tokens
            .iter()
            .position(|t| *t == key)
            .and_then(|i| tokens.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    Some((field("week")?, field("hour")?))
}

/// Times in-process `LiveState::snapshot` calls made just before each
/// traced query of any client: a call whose snapshot differs from the one
/// the previous call returned found the cache stale (a new snapshot had
/// been or was being built for a newer version).
pub struct SnapshotProbe {
    state: Arc<LiveState>,
    last: Option<Arc<LiveSnapshot>>,
    pub calls: u64,
    pub miss_ms: Vec<f64>,
}

impl SnapshotProbe {
    pub fn new(state: Arc<LiveState>) -> SnapshotProbe {
        SnapshotProbe {
            state,
            last: None,
            calls: 0,
            miss_ms: Vec::new(),
        }
    }

    fn probe(&mut self) {
        let t = Instant::now();
        let snap = self.state.snapshot();
        let took = ms(t.elapsed());
        self.calls += 1;
        if !self
            .last
            .as_ref()
            .is_some_and(|last| Arc::ptr_eq(last, &snap))
        {
            self.miss_ms.push(took);
        }
        self.last = Some(snap);
    }
}

/// One closed-loop client: sends whole rounds of the mix back to back
/// until `deadline` has passed and at least [`MIN_QUERIES_PER_CLIENT`]
/// were sent.
pub fn closed_loop(
    addr: &str,
    mix: &mut QueryMix,
    deadline: Instant,
    probe: Option<&Mutex<SnapshotProbe>>,
) -> Result<QueryLog, ClientError> {
    let mut client = Client::connect(addr)?;
    let mut log = QueryLog::default();
    let mut due = Instant::now();
    while log.attempted() < MIN_QUERIES_PER_CLIENT as u64 || Instant::now() < deadline {
        for q in mix.round() {
            if let Some(p) = probe {
                p.lock().expect("snapshot probe lock").probe();
            }
            let t = Instant::now();
            log.late_ms.push(ms(t.duration_since(due)));
            let result = client.request(&q.line);
            due = Instant::now();
            log.record(q.verb, result, due.duration_since(t));
        }
    }
    let _ = client.quit();
    Ok(log)
}

/// One open-loop client: query `i` is due at `first_due + i / rate`,
/// sent then (or at once when the previous answer came back late) and
/// timed from its due time, so a stall also counts against the queries
/// it delays. Sends whole rounds until `done()` holds at a round boundary
/// and at least [`MIN_QUERIES_PER_CLIENT`] were sent.
pub fn open_loop(
    addr: &str,
    mix: &mut QueryMix,
    rate_per_s: f64,
    first_due: Instant,
    done: &dyn Fn() -> bool,
    probe: Option<&Mutex<SnapshotProbe>>,
) -> Result<QueryLog, ClientError> {
    let mut client = Client::connect(addr)?;
    let mut log = QueryLog::default();
    let period = Duration::from_secs_f64(1.0 / rate_per_s);
    let mut due = first_due;
    let mut ingesting = true;
    while log.attempted() < MIN_QUERIES_PER_CLIENT as u64 || !done() {
        ingesting = ingesting && !done();
        if ingesting {
            log.during_ingest = log.attempted();
        }
        for q in mix.round() {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            log.late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            if let Some(p) = probe {
                p.lock().expect("snapshot probe lock").probe();
            }
            let result = client.request(&q.line);
            log.record(
                q.verb,
                result,
                Instant::now().saturating_duration_since(due),
            );
            due += period;
        }
    }
    let _ = client.quit();
    Ok(log)
}

/// Everything one subscription delivered.
#[derive(Debug, Default)]
pub struct SubscriptionLog {
    pub events: Vec<(u64, DeltaEvent)>,
    pub error: Option<String>,
}

/// Subscribes to every topic and collects events until the stream's
/// `end` (or until the connection drops).
pub fn subscribe_all(addr: &str) -> Result<SubscriptionLog, ClientError> {
    let mut client = Client::connect(addr)?;
    let mut log = SubscriptionLog::default();
    for item in client.subscribe(Topic::ALL.to_vec())? {
        match item {
            Ok(event) => log.events.push(event),
            Err(e) => log.error = Some(e.to_string()),
        }
    }
    let _ = client.quit();
    Ok(log)
}
