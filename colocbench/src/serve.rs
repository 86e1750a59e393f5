//! `serve`: an in-process `coloc serve` on loopback, driven open loop by
//! one connection with a sender thread and a receiver thread.
//!
//! Requests leave on a seeded Poisson schedule and are matched to their
//! answers by `id`; latency is timed from each request's scheduled send
//! time, so a stall also charges the requests queued behind it. The mix
//! has three classes (see [`crate::gen::CLASS_SHARES`]): `predict`,
//! `measure` on a pool warmed during set-up (run-cache hits), and
//! `measure` on novel heterogeneous mixes (engine runs).

use crate::gen::{Class, Query, QueryGen, Space};
use crate::record::{peak_rss_mb, Report};
use crate::stats::{highest_supported_percentile, median, percentile_sorted, samples_needed};
use crate::trace::Tracer;
use crate::Ctx;
use coloc_machine::presets;
use coloc_ml::rng::derive_seed;
use coloc_model::{
    FeatureSet, Lab, ModelArtifact, ModelKind, ModelRegistry, Scenario, TrainPolicy, TrainRequest,
    TrainingPlan,
};
use coloc_serve::{
    parse_reply, parse_request, BindAddr, Reply, ServeConfig, Server, ServerHandle, StatsFrame,
};
use std::hint::black_box;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Served machines: wire name and preset.
const MACHINES: [&str; 2] = ["e5649", "e5_2697v2"];
/// Warm-pool scenarios per machine.
const POOL: usize = 128;
/// The fixed rate at which `p50_ms` and `p99_ms` are measured.
const NOMINAL_QPS: f64 = LADDER[NOMINAL_RUNG];
/// The ladder rung the nominal rate sits on.
const NOMINAL_RUNG: usize = 1;
/// The fixed ladder of offered rates `max_qps` is searched on: doubling
/// to 8k/s, then steps of about 8%.
pub const LADDER: [f64; 23] = [
    1000.0, 2000.0, 4000.0, 8000.0, 8600.0, 9300.0, 10000.0, 10800.0, 11700.0, 12600.0, 13600.0,
    14700.0, 15900.0, 17100.0, 18500.0, 20000.0, 21600.0, 23300.0, 25200.0, 27200.0, 29400.0,
    31700.0, 34300.0,
];
/// The p99 limit a ladder rung must meet. It sits above the tail that
/// CPU steal on a small shared host adds at any rate, so the search
/// finds the server's capacity rather than the hypervisor's jitter.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Share of an untraced run's time spent at the nominal rate, and the
/// phases a traced run splits its untraced half into.
const NOMINAL_SHARE: f64 = 0.4;
const NOMINAL_PHASES: usize = 6;
/// Latency windows on one ladder rung. Every rung sends the same number
/// of requests, so a run's traffic, and with it its memory, does not
/// depend on the capacity found.
const RUNG_WINDOWS: usize = 3;
/// Independent searches of the ladder, each after its own nominal phase;
/// `max_qps` is their median.
const SEARCHES: usize = 7;
/// On ladder rungs, every this-many-th novel answer is checked against
/// the reference engine (every answer is checked at the nominal rate).
const LADDER_NOVEL_STRIDE: usize = 8;
/// Requests allowed in flight before the generator abandons a phase. It
/// sits below the server's admission capacity and its per-connection
/// reply bound, so the generator itself never makes the server shed or
/// drop an answer.
const MAX_OUTSTANDING: usize = 192;
/// Extra requests in flight, beyond what the p99 limit allows at the
/// offered rate, that still count as a steady backlog.
const BACKLOG_SLACK: f64 = 16.0;
/// Requests kept in flight by a closed-loop (saturation) phase: enough
/// to keep the server's batches full, below [`MAX_OUTSTANDING`].
const SAT_WINDOW: usize = 64;
/// Requests per saturation phase.
const SAT_QUERIES: usize = 5_000;
/// Saturation phases per round. A run reports the answers of all of
/// them over their summed time, which spreads less from run to run than
/// any one phase's rate or their median.
const SAT_PER_ROUND: usize = 3;
/// How long a closed-loop sender waits for a free slot in its window.
const SAT_POLL: Duration = Duration::from_micros(50);
/// How long the receiver waits for the last answers of a phase.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// One answered (or unanswered) request of a phase.
#[derive(Clone, Debug)]
struct Answer {
    reply: Option<Reply>,
    sent_ns: u64,
    recv_ns: u64,
}

/// What one open-loop phase observed.
struct Phase {
    answers: Vec<Answer>,
    /// Stats frames sampled through the `stats` verb.
    frames: Vec<StatsFrame>,
    /// Requests actually sent (fewer than scheduled when abandoned).
    sent: usize,
    /// Requests in flight when the last request was sent.
    outstanding_at_end: usize,
    aborted: bool,
    /// The phase clock's origin.
    start: Instant,
}

impl Phase {
    /// Latency of request `i` from its due time, ms; a request that got
    /// no answer, an error, or a degraded answer misses any limit.
    fn latency_ms(&self, q: &Query, i: usize) -> f64 {
        let a = &self.answers[i];
        match &a.reply {
            Some(Reply::Ok {
                degraded: false, ..
            }) => a.recv_ns.saturating_sub(q.due_ns) as f64 * 1e-6,
            _ => f64::INFINITY,
        }
    }

    /// Latencies of every request sent, in send order.
    fn latencies(&self, queries: &[Query]) -> Vec<f64> {
        queries[..self.sent]
            .iter()
            .enumerate()
            .map(|(i, q)| self.latency_ms(q, i))
            .collect()
    }
}

/// Whether a backlog of `outstanding` requests after the last send of a
/// rung at `rate_qps` is more than the p99 limit lets a steady server
/// hold (Little's law), i.e. the queue is growing.
pub fn backlog_grows(outstanding: usize, rate_qps: f64, limit_ms: f64) -> bool {
    outstanding as f64 > rate_qps * limit_ms * 1e-3 + BACKLOG_SLACK
}

/// Requests per latency window: the fewest whose ceil-rank p99 keeps
/// ten samples beyond it.
pub fn window() -> usize {
    samples_needed(99.0)
}

/// The p99 of a phase: the median, over consecutive windows of
/// [`window`] requests in send order, of each window's ceil-rank p99. A
/// host stall that spoils one window does not decide the phase. A
/// trailing partial window is dropped unless it is the only one.
pub fn windowed_p99(latencies_ms: &[f64]) -> f64 {
    let w = window();
    let per_window: Vec<f64> = latencies_ms
        .chunks(w)
        .filter(|c| c.len() == w || latencies_ms.len() < w)
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_by(f64::total_cmp);
            percentile_sorted(&v, 99.0)
        })
        .collect();
    median(&per_window)
}

/// The rung decision. `latencies_ms` holds one entry per request sent,
/// in send order, `f64::INFINITY` for each that was shed, expired,
/// errored, degraded or unanswered. A rung passes when it was not
/// abandoned, its backlog did not grow, and its windowed p99 meets the
/// limit.
pub fn rung_passes(
    latencies_ms: &[f64],
    aborted: bool,
    outstanding: usize,
    rate_qps: f64,
    limit_ms: f64,
) -> bool {
    !aborted
        && !latencies_ms.is_empty()
        && !backlog_grows(outstanding, rate_qps, limit_ms)
        && windowed_p99(latencies_ms) <= limit_ms
}

/// Binary search over [`LADDER`] for the highest rung that passes,
/// given whether the nominal rung passed; `try_rung` runs one rung.
/// Returns the rung's index, or `None` when no rung passes.
pub fn search_ladder(
    nominal_passes: bool,
    mut try_rung: impl FnMut(f64) -> Result<bool, String>,
) -> Result<Option<usize>, String> {
    // `lo` is the highest rung known to pass (`None`: none yet), `hi` the
    // highest that still might.
    let (mut lo, mut hi) = if nominal_passes {
        (Some(NOMINAL_RUNG), LADDER.len() - 1)
    } else if NOMINAL_RUNG == 0 {
        return Ok(None);
    } else {
        (None, NOMINAL_RUNG - 1)
    };
    loop {
        let floor = lo.map_or(0, |l| l + 1);
        if floor > hi {
            return Ok(lo);
        }
        // The lowest untested rung is tried first when nothing has passed.
        let mid = match lo {
            None => floor,
            Some(_) => (floor + hi).div_ceil(2),
        };
        if try_rung(LADDER[mid])? {
            lo = Some(mid);
        } else if mid == 0 {
            return Ok(None);
        } else {
            hi = mid - 1;
        }
    }
}

pub fn request_line(i: usize, q: &Query) -> String {
    let co: Vec<String> = q
        .scenario
        .co_located
        .iter()
        .map(|(n, c)| format!("[\"{n}\",{c}]"))
        .collect();
    let mode = if q.class == Class::Predict {
        "predict"
    } else {
        "measure"
    };
    format!(
        "{{\"op\":\"query\",\"id\":\"q{i}\",\"target\":\"{}\",\"co\":[{}],\"pstate\":{},\"mode\":\"{mode}\",\"machine\":\"{}\"}}",
        q.scenario.target,
        co.join(","),
        q.scenario.pstate,
        MACHINES[q.machine]
    )
}

/// Send `queries` on one connection and collect every answer: open loop
/// on their schedule, or, with `closed_window`, closed loop, keeping
/// that many requests in flight whatever their due times.
fn drive(
    addr: SocketAddr,
    queries: &[Query],
    stats_every: Option<Duration>,
    closed_window: Option<usize>,
) -> Result<Phase, String> {
    let lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| request_line(i, q) + "\n")
        .collect();
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let reader = conn.try_clone().map_err(|e| e.to_string())?;
    let mut writer = conn;
    // One round trip before the clock starts, so the server has accepted
    // the connection and its reader is live when the schedule begins.
    let mut r = BufReader::new(reader);
    writer
        .write_all(b"{\"op\":\"ping\"}\n")
        .map_err(|e| format!("ping: {e}"))?;
    let mut pong = String::new();
    while !pong.ends_with('\n') {
        match r.read_line(&mut pong) {
            Ok(0) => return Err("connection closed before pong".into()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("pong: {e}")),
        }
    }
    if !matches!(parse_reply(pong.trim()), Ok(Reply::Pong)) {
        return Err(format!("expected pong, got {pong}"));
    }

    let n = queries.len();
    let received = AtomicUsize::new(0);
    let sent_total = AtomicUsize::new(0);
    let sending = AtomicBool::new(true);
    let answers: Mutex<Vec<Answer>> = Mutex::new(vec![
        Answer {
            reply: None,
            sent_ns: 0,
            recv_ns: 0,
        };
        n
    ]);
    let frames: Mutex<Vec<StatsFrame>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;

    let (outstanding_at_end, aborted, write_err) = std::thread::scope(|s| {
        // Receiver: match answers to requests by id.
        s.spawn(|| {
            let mut line = String::new();
            let mut last_progress = Instant::now();
            loop {
                let done = !sending.load(Ordering::SeqCst);
                if done && received.load(Ordering::SeqCst) >= sent_total.load(Ordering::SeqCst) {
                    break;
                }
                if done && last_progress.elapsed() > DRAIN_TIMEOUT {
                    break;
                }
                // A timeout can split a line: keep what was read and
                // finish the line on the next call.
                match r.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if !line.ends_with('\n') => continue,
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(_) => break,
                }
                let now = ns(Instant::now());
                last_progress = Instant::now();
                match parse_reply(line.trim()) {
                    Ok(Reply::Stats(f)) => frames.lock().expect("frames lock").push(*f),
                    Ok(reply) => {
                        let id = match &reply {
                            Reply::Ok { id, .. } | Reply::Err { id, .. } => id.clone(),
                            _ => None,
                        };
                        let idx = id
                            .as_deref()
                            .and_then(|s| s.strip_prefix('q'))
                            .and_then(|s| s.parse::<usize>().ok())
                            .filter(|&i| i < n);
                        if let Some(i) = idx {
                            let mut a = answers.lock().expect("answers lock");
                            a[i].reply = Some(reply);
                            a[i].recv_ns = now;
                            received.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Err(_) => {}
                }
                line.clear();
            }
        });

        // Sender: everything due goes out in one write.
        let sender = s.spawn(|| {
            let mut i = 0;
            let mut next_stats = stats_every.map(|d| start + d);
            let mut buf = String::new();
            let mut aborted = false;
            let mut outstanding = 0;
            let mut err = None;
            while i < n {
                let due = start + Duration::from_nanos(queries[i].due_ns);
                let now = Instant::now();
                if now < due {
                    // Sleep, never spin: on a small host a spinning
                    // generator takes a core from the server it measures.
                    std::thread::sleep(due - now);
                    continue;
                }
                // Send what is due, but never more than MAX_OUTSTANDING in
                // flight: a generator that falls that far behind abandons
                // the phase instead of making the server shed.
                outstanding = i - received.load(Ordering::SeqCst);
                buf.clear();
                let first = i;
                let cap = closed_window.unwrap_or(MAX_OUTSTANDING);
                while i < n
                    && start + Duration::from_nanos(queries[i].due_ns) <= now
                    && outstanding < cap
                {
                    buf.push_str(&lines[i]);
                    i += 1;
                    outstanding += 1;
                }
                if i == first {
                    if closed_window.is_some() {
                        std::thread::sleep(SAT_POLL);
                        continue;
                    }
                    aborted = true;
                    break;
                }
                if let Some(t) = next_stats {
                    if now >= t {
                        buf.push_str("{\"op\":\"stats\"}\n");
                        next_stats = stats_every.map(|d| now + d);
                    }
                }
                let sent_at = ns(Instant::now());
                {
                    let mut a = answers.lock().expect("answers lock");
                    for ans in &mut a[first..i] {
                        ans.sent_ns = sent_at;
                    }
                }
                sent_total.store(i, Ordering::SeqCst);
                if let Err(e) = writer.write_all(buf.as_bytes()) {
                    err = Some(e.to_string());
                    break;
                }
            }
            if stats_every.is_some() && err.is_none() {
                let _ = writer.write_all(b"{\"op\":\"stats\"}\n");
            }
            sending.store(false, Ordering::SeqCst);
            (outstanding, aborted, err)
        });
        sender.join().expect("sender thread panicked")
    });
    if let Some(e) = write_err {
        return Err(format!("send: {e}"));
    }
    Ok(Phase {
        answers: answers.into_inner().expect("answers lock"),
        frames: frames.into_inner().expect("frames lock"),
        sent: sent_total.load(Ordering::SeqCst),
        outstanding_at_end,
        aborted,
        start,
    })
}

/// The request the server trains its per-machine fallback model from
/// (linear, full feature set, robust ladder, the P-state and count
/// extremes); the check resolves the same request on its own labs and
/// confirms the digest against the server's stats frame.
fn fallback_request(lab: &Lab, seed: u64) -> TrainRequest {
    let spec = lab.machine().spec();
    TrainRequest {
        kind: ModelKind::Linear,
        set: FeatureSet::F,
        plan: TrainingPlan {
            pstates: vec![0, spec.num_pstates() - 1],
            targets: lab.suite().iter().map(|b| b.name.to_string()).collect(),
            co_runners: coloc_workloads::training_co_runners()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
            counts: vec![1, spec.cores - 1],
        },
        seed,
        policy: Some(TrainPolicy::default()),
    }
}

/// Independent labs and models that answer every query the way the
/// server must.
struct Reference {
    labs: Vec<Lab>,
    models: Vec<Arc<ModelArtifact>>,
    baselines_s: f64,
    resolve_s: f64,
}

impl Reference {
    fn new(seed: u64) -> Result<Reference, String> {
        let mut labs = Vec::new();
        let mut models = Vec::new();
        let (mut baselines_s, mut resolve_s) = (0.0, 0.0);
        let registry = ModelRegistry::new();
        for spec in [presets::xeon_e5649(), presets::xeon_e5_2697v2()] {
            let lab =
                Lab::new(spec, coloc_workloads::standard(), seed).map_err(|e| e.to_string())?;
            let t = Instant::now();
            lab.baselines();
            baselines_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let model = registry
                .resolve(&lab, &fallback_request(&lab, seed))
                .map_err(|e| e.to_string())?;
            resolve_s += t.elapsed().as_secs_f64();
            labs.push(lab);
            models.push(model);
        }
        let n = labs.len() as f64;
        Ok(Reference {
            labs,
            models,
            baselines_s: baselines_s / n,
            resolve_s: resolve_s / n,
        })
    }

    fn predict(&self, machine: usize, sc: &Scenario) -> Result<f64, String> {
        let f = self.labs[machine]
            .featurize(sc)
            .map_err(|e| e.to_string())?;
        Ok(self.models[machine].predictor.predict(&f))
    }

    fn measure(&self, machine: usize, sc: &Scenario) -> Result<f64, String> {
        self.labs[machine]
            .run_scenario(sc)
            .map_err(|e| e.to_string())
    }

    /// Check every answer of a phase: `predict` and fallback answers
    /// against the model, `measure` answers against the engine, bit for
    /// bit. Errors and missing answers fail.
    fn check(&self, report: &mut Report, queries: &[Query], phase: &Phase, novel_stride: usize) {
        let mut novel = 0usize;
        for (q, a) in queries[..phase.sent].iter().zip(&phase.answers) {
            if q.class == Class::Novel {
                novel += 1;
                if !novel.is_multiple_of(novel_stride) {
                    continue;
                }
            }
            report.attempt(1);
            let (time_s, source) = match &a.reply {
                Some(Reply::Ok { time_s, source, .. }) => (*time_s, source.as_str()),
                Some(Reply::Err { error, .. }) => {
                    report.fail(format!(
                        "{} on {}: {error}",
                        MACHINES[q.machine], q.scenario
                    ));
                    continue;
                }
                _ => {
                    report.fail(format!(
                        "no answer for {} on {}",
                        q.scenario, MACHINES[q.machine]
                    ));
                    continue;
                }
            };
            let want = match (q.class, source) {
                (Class::Predict, _) | (_, "fallback") => self.predict(q.machine, &q.scenario),
                _ => self.measure(q.machine, &q.scenario),
            };
            if !matches!(want, Ok(w) if w.to_bits() == time_s.to_bits()) {
                report.fail(format!(
                    "{:?} {} on {} ({source}): served {time_s}, expected {want:?}",
                    q.class, q.scenario, MACHINES[q.machine]
                ));
            }
        }
    }
}

/// Spawn a server and warm it: both machines' models, and the warm pool
/// into the run cache. Returns the handle once it is ready.
fn spawn_warm(seed: u64, gen: &QueryGen) -> Result<ServerHandle, String> {
    let handle = Server::spawn(ServeConfig {
        bind: BindAddr::Tcp("127.0.0.1:0".into()),
        seed,
        quiet: true,
        stats_interval: Duration::from_secs(3600),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.local_addr().ok_or("server has no TCP address")?;
    // Closed-loop warm-up: one predict per machine, then every pool
    // scenario once, in admission-sized chunks.
    let mut warm: Vec<Query> = (0..MACHINES.len())
        .map(|m| Query {
            due_ns: 0,
            class: Class::Predict,
            machine: m,
            scenario: gen.pool[m][0].clone(),
        })
        .collect();
    for (m, pool) in gen.pool.iter().enumerate() {
        warm.extend(pool.iter().map(|sc| Query {
            due_ns: 0,
            class: Class::Warm,
            machine: m,
            scenario: sc.clone(),
        }));
    }
    for chunk in warm.chunks(MAX_OUTSTANDING / 2) {
        let phase = drive(addr, chunk, None, None)?;
        let ok = phase
            .answers
            .iter()
            .all(|a| matches!(a.reply, Some(Reply::Ok { .. })));
        if !ok || phase.sent != chunk.len() {
            return Err("server warm-up query failed".into());
        }
    }
    Ok(handle)
}

/// One set-up: spawn and warm a server, timed into `setups`, and check
/// that it serves the reference's model.
fn set_up(
    seed: u64,
    gen: &QueryGen,
    reference: &Reference,
    report: &mut Report,
    setups: &mut Vec<f64>,
) -> Result<(ServerHandle, SocketAddr), String> {
    let t = Instant::now();
    let handle = spawn_warm(seed, gen)?;
    setups.push(t.elapsed().as_secs_f64());
    let addr = handle.local_addr().ok_or("server has no TCP address")?;
    report.check(
        handle.stats().model_digest == reference.models[0].digest_hex(),
        || "reference model digest differs from the served one".into(),
    );
    Ok((handle, addr))
}

/// Run one phase at `rate` (whole windows: as many as fit in `seconds`,
/// at least `min_windows`), check its answers (every `novel_stride`-th
/// novel one), and return its latencies and whether it passes as a
/// ladder rung.
#[allow(clippy::too_many_arguments)]
fn probe(
    gen: &mut QueryGen,
    addr: SocketAddr,
    reference: &Reference,
    report: &mut Report,
    rate: f64,
    seconds: f64,
    min_windows: usize,
    novel_stride: usize,
) -> Result<(Vec<f64>, bool), String> {
    let q = schedule(gen, rate, seconds, min_windows);
    let phase = drive(addr, &q, None, None)?;
    reference.check(report, &q, &phase, novel_stride);
    let lat = phase.latencies(&q);
    let pass = rung_passes(
        &lat,
        phase.aborted,
        phase.outstanding_at_end,
        rate,
        P99_LIMIT_MS,
    );
    Ok((lat, pass))
}

/// One closed-loop phase of [`SAT_QUERIES`] requests with [`SAT_WINDOW`]
/// in flight; checks its answers and returns the answered requests and
/// the seconds from first send to last answer.
fn saturate(
    gen: &mut QueryGen,
    addr: SocketAddr,
    reference: &Reference,
    report: &mut Report,
) -> Result<(usize, f64), String> {
    // Due times are irrelevant to a closed loop; any rate will do.
    let q = gen.schedule(1e9, SAT_QUERIES);
    let phase = drive(addr, &q, None, Some(SAT_WINDOW))?;
    reference.check(report, &q, &phase, LADDER_NOVEL_STRIDE);
    let answered = phase.answers.iter().filter(|a| a.reply.is_some()).count();
    let last_ns = phase.answers.iter().map(|a| a.recv_ns).max().unwrap_or(0);
    Ok((answered, last_ns.max(1) as f64 * 1e-9))
}

/// A phase at `rate` of whole latency windows: as many as fit in
/// `seconds`, and at least `min_windows`.
fn schedule(gen: &mut QueryGen, rate: f64, seconds: f64, min_windows: usize) -> Vec<Query> {
    let windows = ((rate * seconds) as usize / window()).max(min_windows);
    gen.schedule(rate, windows * window())
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let seed = derive_seed(ctx.seed, 4);
    let spaces: Vec<Space> = [presets::xeon_e5649(), presets::xeon_e5_2697v2()]
        .iter()
        .map(Space::for_machine)
        .collect();
    let mut gen = QueryGen::new(ctx.seed, spaces, POOL);
    report.param("machines", MACHINES.join(","));
    report.param("class_shares", "predict 4 : warm 4 : novel 2 per 10");
    report.param("warm_pool_per_machine", POOL);
    report.param("nominal_qps", NOMINAL_QPS);
    report.param("p99_limit_ms", P99_LIMIT_MS);
    report.param("ladder_qps", format!("{LADDER:?}"));
    report.param("latency_window", window());
    report.param(
        "window_tail_percentile",
        format!(
            "{:?}",
            highest_supported_percentile(window(), &[50.0, 90.0, 99.0, 99.9])
        ),
    );
    report.param("connections", 1);
    report.param("generator_threads", 2);
    report.param("saturation_window", SAT_WINDOW);
    report.param("saturation_queries", SAT_QUERIES);
    report.param("op", "query answered at saturation");

    let reference = Reference::new(seed)?;
    let mut setups = Vec::new();

    let budget = ctx.measure_budget().as_secs_f64();
    let nominal_s = if ctx.trace {
        budget
    } else {
        budget * NOMINAL_SHARE
    };
    // The run alternates short phases at the nominal rate with searches
    // of the ladder, so a burst of CPU steal from a neighbour spoils a
    // few of them, not the whole figure. Every round runs on a server of
    // its own, spawned and warmed when the round starts, and every phase
    // on a fresh connection (fresh reader, writer, sender and receiver
    // threads).
    let rounds = if ctx.trace { NOMINAL_PHASES } else { SEARCHES };
    let slice_s = nominal_s / rounds as f64;
    let mut lat = Vec::new();
    let mut searches = Vec::new();
    let mut throughputs = Vec::new();
    for _ in 0..rounds {
        let (handle, addr) = set_up(seed, &gen, &reference, report, &mut setups)?;
        let (l, nominal_pass) = probe(
            &mut gen,
            addr,
            &reference,
            report,
            NOMINAL_QPS,
            slice_s,
            2,
            1,
        )?;
        lat.extend(l);
        if !ctx.trace {
            let found = search_ladder(nominal_pass, |rate| {
                probe(
                    &mut gen,
                    addr,
                    &reference,
                    report,
                    rate,
                    0.0,
                    RUNG_WINDOWS,
                    LADDER_NOVEL_STRIDE,
                )
                .map(|(_, pass)| pass)
            })?;
            searches.push(found.map_or(0.0, |i| LADDER[i]));
            for _ in 0..SAT_PER_ROUND {
                throughputs.push(saturate(&mut gen, addr, &reference, report)?);
            }
        }
        handle.shutdown();
        handle.join();
    }

    if ctx.trace {
        let (handle, addr) = set_up(seed, &gen, &reference, report, &mut setups)?;
        let traced_q = schedule(&mut gen, NOMINAL_QPS, nominal_s, 3);
        let traced = drive(addr, &traced_q, Some(Duration::from_millis(50)), None)?;
        reference.check(report, &traced_q, &traced, 1);
        let final_frame = traced
            .frames
            .last()
            .cloned()
            .unwrap_or_else(|| handle.stats());
        handle.shutdown();
        handle.join();
        return per_layer(
            report,
            tracer,
            &reference,
            &lat,
            &traced_q,
            &traced,
            &final_frame,
        );
    }

    report.param("max_qps_searches", format!("{searches:?}"));
    let rates: Vec<f64> = throughputs.iter().map(|(n, s)| *n as f64 / s).collect();
    report.param("saturation_qps", format!("{rates:.0?}"));

    // Open-loop latency and capacity go to the run record, not the
    // result: on a small shared host their run-to-run spread follows CPU
    // steal from other tenants and exceeds any bound a metric may carry.
    report.metric("p50_ms", median(&lat), "ms");
    report.metric("max_qps", median(&searches), "1/s");
    let answered: usize = throughputs.iter().map(|t| t.0).sum();
    let seconds: f64 = throughputs.iter().map(|t| t.1).sum();
    report.metric("ops_per_s", answered as f64 / seconds, "1/s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

/// Per-layer numbers from the traced nominal phase.
fn per_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    reference: &Reference,
    untraced_lat: &[f64],
    queries: &[Query],
    phase: &Phase,
    frame: &StatsFrame,
) -> Result<(), String> {
    // Spans: each request from its due time to its answer, with the
    // generator's own lateness as a child.
    let origin = tracer.ns_at(phase.start);
    let last = phase.answers.iter().map(|a| a.recv_ns).max().unwrap_or(0);
    let root = tracer.record("bench.serve", origin, origin + last, None, 0);
    for (i, (q, a)) in queries[..phase.sent].iter().zip(&phase.answers).enumerate() {
        let due = origin + q.due_ns;
        let id = tracer.record(
            "serve.request",
            due,
            origin + a.recv_ns.max(q.due_ns),
            Some(root),
            i as u64 + 1,
        );
        tracer.record(
            "bench.gen.wait",
            due,
            origin + a.sent_ns.max(q.due_ns),
            Some(id),
            i as u64 + 1,
        );
    }
    let layers = tracer.layer_times();
    crate::report_self_times(report, &layers, tracer.duration_ns(root));

    let client_p50 = median(&phase.latencies(queries));
    report.metric(
        "trace.overhead_pct",
        (client_p50 / median(untraced_lat) - 1.0) * 100.0,
        "%",
    );
    let mut lateness: Vec<f64> = queries[..phase.sent]
        .iter()
        .zip(&phase.answers)
        .map(|(q, a)| a.sent_ns.saturating_sub(q.due_ns) as f64 * 1e-6)
        .collect();
    lateness.sort_by(f64::total_cmp);
    report.metric(
        "serve.gen.lateness_p99_ms",
        percentile_sorted(&lateness, 99.0),
        "ms",
    );
    report.metric("serve.client_p50_ms", client_p50, "ms");
    report.metric(
        "serve.client_p99_ms",
        windowed_p99(&phase.latencies(queries)),
        "ms",
    );
    report.metric("serve.server_p50_ms", frame.latency_p50_ms, "ms");
    report.metric("serve.server_p99_ms", frame.latency_p99_ms, "ms");
    report.metric(
        "serve.transport_ms",
        client_p50 - frame.latency_p50_ms,
        "ms",
    );
    report.metric(
        "serve.batch_size_mean",
        frame.batched_queries as f64 / frame.batches.max(1) as f64,
        "queries",
    );
    let depth_max = phase
        .frames
        .iter()
        .map(|f| f.queue_depth)
        .max()
        .unwrap_or(0);
    report.metric("serve.queue_depth_max", depth_max as f64, "queries");
    let lookups = (frame.cache_hits + frame.cache_misses).max(1) as f64;
    report.metric(
        "serve.cache_hit_ratio",
        frame.cache_hits as f64 / lookups,
        "ratio",
    );
    let offered = (frame.admitted + frame.shed_overload).max(1) as f64;
    report.metric(
        "serve.shed_ratio",
        frame.shed_overload as f64 / offered,
        "ratio",
    );
    report.metric(
        "serve.deadline_ratio",
        frame.shed_deadline as f64 / offered,
        "ratio",
    );
    report.metric(
        "serve.degraded_ratio",
        (frame.degraded_cache + frame.degraded_fallback) as f64 / offered,
        "ratio",
    );

    // Protocol, predictor and model-fitting costs, timed directly.
    let lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| request_line(i, q))
        .collect();
    let t = Instant::now();
    for l in &lines {
        let _ = black_box(parse_request(black_box(l)));
    }
    report.metric(
        "serve.proto.parse_ns",
        t.elapsed().as_nanos() as f64 / lines.len() as f64,
        "ns",
    );
    let t = Instant::now();
    for (i, a) in phase.answers.iter().enumerate() {
        let (time_s, slowdown) = match &a.reply {
            Some(Reply::Ok {
                time_s, slowdown, ..
            }) => (*time_s, *slowdown),
            _ => (1.0, None),
        };
        black_box(coloc_serve::proto::ok_line(
            Some(&format!("q{i}")),
            time_s,
            slowdown,
            "cache",
            false,
        ));
    }
    report.metric(
        "serve.proto.encode_ns",
        t.elapsed().as_nanos() as f64 / phase.answers.len().max(1) as f64,
        "ns",
    );
    let predict: Vec<(usize, [f64; 8])> = queries
        .iter()
        .filter(|q| q.class == Class::Predict)
        .filter_map(|q| {
            reference.labs[q.machine]
                .featurize(&q.scenario)
                .ok()
                .map(|f| (q.machine, f))
        })
        .collect();
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        for (m, f) in &predict {
            black_box(reference.models[*m].predictor.predict(black_box(f)));
        }
    }
    report.metric(
        "core.predict_ns",
        t.elapsed().as_nanos() as f64 / (reps * predict.len().max(1)) as f64,
        "ns",
    );
    report.metric("core.baselines_s", reference.baselines_s, "s");
    report.metric("core.registry.resolve_s", reference.resolve_s, "s");
    let plan = fallback_request(&reference.labs[0], 0).plan;
    report.metric(
        "linalg.lstsq_ns",
        crate::lstsq_ns(&reference.labs[0], &plan)?,
        "ns",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(n: usize, ms: f64) -> Vec<f64> {
        vec![ms; n]
    }

    #[test]
    fn a_fast_steady_rung_passes() {
        assert!(rung_passes(
            &steady(3000, 1.0),
            false,
            3,
            2000.0,
            P99_LIMIT_MS
        ));
    }

    /// Three windows of 1000 with `misses[w]` unanswered requests each.
    fn with_misses(misses: [usize; 3], value: f64) -> Vec<f64> {
        let mut lat = steady(3000, 1.0);
        for (w, &m) in misses.iter().enumerate() {
            for l in &mut lat[w * 1000..w * 1000 + m] {
                *l = value;
            }
        }
        lat
    }

    #[test]
    fn failures_and_degraded_answers_miss_the_limit() {
        // 11 misses in a window of 1000 put its ceil-rank p99 on a miss.
        let lat = with_misses([11, 11, 0], f64::INFINITY);
        assert!(!rung_passes(&lat, false, 3, 2000.0, P99_LIMIT_MS));
        // 10 misses leave every window's p99 on a fast answer.
        let lat = with_misses([10, 10, 10], f64::INFINITY);
        assert!(rung_passes(&lat, false, 3, 2000.0, P99_LIMIT_MS));
    }

    #[test]
    fn one_spoiled_window_does_not_decide_a_rung() {
        let lat = with_misses([500, 0, 0], f64::INFINITY);
        assert!(rung_passes(&lat, false, 3, 2000.0, P99_LIMIT_MS));
        assert_eq!(windowed_p99(&lat), 1.0);
    }

    #[test]
    fn a_slow_p99_fails() {
        let lat = with_misses([20, 20, 20], P99_LIMIT_MS * 1.5);
        assert!(!rung_passes(&lat, false, 3, 2000.0, P99_LIMIT_MS));
    }

    #[test]
    fn a_growing_backlog_disqualifies_a_rung() {
        // At 2000 qps the limit allows rate × limit in flight, plus slack.
        let allowed = (2000.0 * P99_LIMIT_MS * 1e-3 + BACKLOG_SLACK) as usize;
        assert!(!backlog_grows(allowed, 2000.0, P99_LIMIT_MS));
        assert!(backlog_grows(allowed + 1, 2000.0, P99_LIMIT_MS));
        assert!(!rung_passes(
            &steady(3000, 1.0),
            false,
            allowed + 1,
            2000.0,
            P99_LIMIT_MS
        ));
        assert!(!rung_passes(
            &steady(3000, 1.0),
            true,
            0,
            2000.0,
            P99_LIMIT_MS
        ));
    }

    #[test]
    fn the_search_finds_the_highest_passing_rung() {
        for capacity in [0.0, 1000.0, 2500.0, 4000.0, 9000.0, 15900.0, 16000.0, 1e9] {
            let mut tried = Vec::new();
            let got = search_ladder(capacity >= NOMINAL_QPS, |rate| {
                tried.push(rate);
                Ok(rate <= capacity)
            })
            .unwrap();
            let want = LADDER.iter().rposition(|&r| r <= capacity);
            assert_eq!(got, want, "capacity {capacity}");
            assert!(
                tried.len() <= 5,
                "{} rungs tried for {capacity}",
                tried.len()
            );
            assert!(
                !tried.contains(&NOMINAL_QPS),
                "the nominal rung is not re-run"
            );
        }
    }

    #[test]
    fn request_lines_parse_back_to_the_query() {
        let q = Query {
            due_ns: 0,
            class: Class::Novel,
            machine: 1,
            scenario: Scenario {
                target: "canneal".into(),
                co_located: vec![("cg".into(), 2), ("ep".into(), 1)],
                pstate: 3,
            },
        };
        let Ok(coloc_serve::Request::Query(r)) = parse_request(&request_line(7, &q)) else {
            panic!("request line does not parse");
        };
        assert_eq!(r.id.as_deref(), Some("q7"));
        assert_eq!(r.scenario, q.scenario);
        assert_eq!(r.machine.as_deref(), Some("e5_2697v2"));
        assert_eq!(r.mode, coloc_serve::QueryMode::Measure);
    }
}
