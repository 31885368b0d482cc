//! `stream_live` and `stream_features`: an open loop of real-time
//! sessions over an in-process `Server`, climbing a ladder of concurrent
//! stream counts.
//!
//! Each rung starts a fresh server (its set-up is timed), then runs
//! `streams` sessions concurrently: the rung opens with that many
//! sessions already in flight and keeps the count by Poisson arrivals at
//! the Little's-law rate. Every session streams its frames in 100 ms
//! chunks, each due when its audio would be complete, and every timing
//! runs from the due time. `stream_live` streams score rows, personalizes
//! half its sessions with per-user biasing models that a registry writer
//! keeps replacing, and carries further sessions over TCP; the
//! `stream_features` sessions send GMM feature frames that the server
//! scores itself.
//!
//! After the ladder, a saturation phase on a fresh server measures the
//! throughput: a closed loop keeps a fixed number of sessions of the
//! same mix open and feeds them unpaced, so the server is never short of
//! work, and the median decode rate over its windows, in real-time
//! streams, is `capacity_streams`.
//!
//! After the load, every served transcript admitted at full beams is
//! compared with a standalone `StreamSession` decode of the same input.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use unfold::{AmModel, LmModel, Models};
use unfold_am::GmmModel;
use unfold_bias::{BiasedLm, BiasingFst};
use unfold_decoder::{
    wer, AcousticScorer, DecodeConfig, FrameInput, GmmScorer, LmSource, MetricsSink, NullSink,
    PrecomputedScorer, StreamSession, TraceSink, WerReport, WorkScratch,
};
use unfold_obs::ObsRecord;
use unfold_serve::{
    ClientMsg, ServeConfig, ServeError, ServeHandle, Server, ServerMsg, SessionId, TcpFront,
};

use crate::host;
use crate::inputs::{self, SessionPlan, Traffic, Utt, CHUNK, FRAME_RATE};
use crate::layers::{self, Layers, Sched, SearchAgg};
use crate::report::{pct_note, pct_value, Report};
use crate::stats::{
    backlog_growing, capacity, median, since_ms, tail, window_rates, windowed_tail, RungVerdict,
};
use crate::trace::{self, Span, Tracer};
use crate::Ctx;

type Handle = ServeHandle<AmModel, LmModel>;

/// Distinct utterances sessions draw from.
const POOL: usize = 384;
/// Server set-ups timed before the ladder, on top of one per rung and
/// one for the saturation phase.
const SETUPS: usize = 5;
/// Share of the run given to the saturation phase, which measures
/// `capacity_streams`; the ladder gets the rest.
const SATURATION_SHARE: f64 = 0.6;
/// Backlog samples (one per [`TICK`]) per window of decode rate.
const RATE_WINDOW_TICKS: usize = 5;
/// Latency tails are taken per window of due time (see [`quiet`]): a
/// window lasts at least this long and holds at least
/// [`WINDOW_CHUNKS`] chunks (partial lag) or [`WINDOW_FINALS`] sessions
/// (final latency) on average.
const WINDOW_NS: u64 = 250_000_000;
const WINDOW_CHUNKS: f64 = 500.0;
const WINDOW_FINALS: f64 = 250.0;
/// Items due this early in a rung are left out of its latencies: the
/// rung opens with all its in-flight sessions resuming at once.
const WARMUP_NS: u64 = 500_000_000;
/// Per-user biasing models registered at set-up.
const USERS: usize = 1000;
/// Users the registry writer may replace (the rest serve TCP sessions).
const SWAPPABLE: usize = 900;
/// Interval of the registry writer's hot swaps and of backlog samples.
const TICK: Duration = Duration::from_millis(100);
/// Longest a rung may take to drain once its traffic stops.
const DRAIN: Duration = Duration::from_secs(30);
/// How often the generator looks for decoded chunks and final results
/// while any are outstanding. Polling, rather than blocking in
/// `wait_drained`, keeps the generator from waking on every frame the
/// server takes in or decodes.
const POLL_NS: u64 = 200_000;
/// How often the saturation phase tops up the server's backlog. Its
/// backlog covers many such intervals, so the generator can wake less
/// often and take less of the CPU from the server's workers.
const SAT_POLL_NS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Live,
    Features,
}

impl Kind {
    fn rungs(self) -> &'static [usize] {
        match self {
            Kind::Live => &[250, 500, 1000, 1500, 2000, 3000],
            Kind::Features => &[50, 100, 150, 200, 300],
        }
    }

    fn reference(self) -> usize {
        match self {
            Kind::Live => 500,
            Kind::Features => 50,
        }
    }

    /// Sessions the saturation phase keeps open: about the ladder's knee
    /// on a 2-core host, so the server holds as many sessions as it
    /// would serve in real time.
    fn saturation(self) -> usize {
        match self {
            Kind::Live => 1000,
            Kind::Features => 100,
        }
    }
}

/// How a rung's sessions are driven.
enum Load<'a> {
    /// Real-time sessions, paced by their audio: the ladder's open loop.
    Open(Vec<SessionPlan>),
    /// A fixed number of unpaced sessions, drawn from the traffic mix
    /// with this seed: the saturation phase's closed loop.
    Closed(&'a Traffic<'a>, u64),
}

/// Key of a standalone reference decode: utterance and biasing model.
type RefKey = (usize, Option<(usize, u32)>);

/// One session's outcome, for the output check.
struct Served {
    key: RefKey,
    frames: usize,
    words: Vec<u32>,
    checked: bool,
    tcp: bool,
}

/// Everything one generator thread measured in a rung.
#[derive(Default)]
struct GenOut {
    sent: u64,
    completed: u64,
    rejected: u64,
    errored: u64,
    degraded: u64,
    biased: u64,
    /// `(window, lag)` per chunk.
    lag_ms: Vec<(usize, f64)>,
    wait_ms: Vec<f64>,
    /// `(window, latency)` per naturally finished session.
    final_ms: Vec<(usize, f64)>,
    late_ms: Vec<f64>,
    tcp_lag_ms: Vec<f64>,
    tcp_sessions: u64,
    served: Vec<Served>,
    add_us: Vec<f64>,
    retire_us: Vec<f64>,
    backlog: Vec<f64>,
    /// `(ns, frames decoded)` samples over the rung, after the warm-up.
    decoded: Vec<(u64, u64)>,
    rss_max_mib: f64,
    spans: Vec<Span>,
}

/// One rung's totals.
struct Rung {
    streams: usize,
    out: GenOut,
    verdict: RungVerdict,
    seconds: f64,
    setup_s: f64,
    open_s: f64,
    anon_kib: f64,
    mapped_kib: f64,
    rss_idle_mib: f64,
    obs: BTreeMap<String, f64>,
    frames_decoded: u64,
    deadline_misses: u64,
    degraded_admissions: u64,
    served: Vec<Served>,
}

/// A running server and what it was started with.
struct Live {
    server: Server<AmModel, LmModel>,
    handle: Handle,
    tcp: Option<TcpFront>,
    open_s: f64,
    anon_kib: f64,
}

struct Shared<'a> {
    kind: Kind,
    /// The workload seed, which the biasing model versions derive from.
    seed: u64,
    mean_session_s: f64,
    utts: &'a [Utt],
    users: &'a [Arc<BiasingFst>],
    gmm: Option<&'a Arc<GmmModel>>,
}

pub fn run(ctx: &Ctx, kind: Kind) -> Report {
    let mut r = Report::default();
    let system = &ctx.system;
    let gmm = (kind == Kind::Features).then(|| Arc::new(inputs::gmm(system)));
    let utts = inputs::utterances(system, POOL, ctx.seed, gmm.as_deref());
    let vocab = system.spec.vocab_size;
    let users: Vec<Arc<BiasingFst>> = match kind {
        Kind::Live => (0..USERS)
            .map(|u| Arc::new(inputs::bias_model(ctx.seed, vocab, u, 0)))
            .collect(),
        Kind::Features => Vec::new(),
    };
    let traffic = Traffic {
        utts: &utts,
        users: users.len(),
        swappable: SWAPPABLE.min(users.len()),
        biased_share: if users.is_empty() { 0.0 } else { 0.5 },
    };
    let shared = Shared {
        kind,
        seed: ctx.seed,
        mean_session_s: traffic.mean_session_s(),
        utts: &utts,
        users: &users,
        gmm: gmm.as_ref(),
    };
    let rungs = kind.rungs();
    let top = *rungs.last().expect("a ladder has rungs");
    // The saturation phase takes its share of the run; the reference
    // rung, where latency is read, runs three times as long as the rest.
    let sat_s = SATURATION_SHARE * ctx.seconds;
    let rung_s = (ctx.seconds - sat_s) / (rungs.len() + 2) as f64;
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let live = start_server(ctx, &shared, top);
        setups.push(t.elapsed().as_secs_f64());
        drop(live.tcp);
        live.server.shutdown();
    }
    let mut done: Vec<Rung> = Vec::new();
    let mut peak_ref = 0.0;
    for (i, &streams) in rungs.iter().enumerate() {
        let is_ref = streams == kind.reference();
        let secs = if is_ref { 3.0 * rung_s } else { rung_s };
        let plans = traffic.plan(streams, secs, inputs::mix(ctx.seed, 100 + i as u64));
        let traced = ctx.trace && is_ref;
        let load = Load::Open(plans);
        let rung = run_rung(ctx, &shared, top, streams, secs, load, traced, i as u64);
        if is_ref {
            peak_ref = host::peak_rss_mib();
        }
        let pass = rung.verdict.passes();
        r.detail(rung_line(&rung));
        r.detail(window_line(&rung));
        done.push(rung);
        // The ladder ends at the first failing rung, but not before the
        // reference rung, whose latencies the report needs.
        if !pass && streams >= kind.reference() {
            break;
        }
    }
    let verdicts: Vec<RungVerdict> = done.iter().map(|g| g.verdict).collect();
    let knee = capacity(&verdicts);

    // The saturation phase, on a fresh server after the ladder.
    let k = kind.saturation();
    let load = Load::Closed(&traffic, inputs::mix(ctx.seed, 99));
    let index = rungs.len() as u64;
    let sat = run_rung(ctx, &shared, top, k, sat_s, load, false, index);
    let rates = window_rates(&sat.out.decoded, RATE_WINDOW_TICKS);
    let (lo, hi) = rates
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
    r.detail(format!(
        "saturation: {k} sessions, closed loop ({:.2} s, set-up {:.4} s): sent {} completed {} rejected {} \
         errored {} degraded {} | backlog max {:.0} frames | decoded frames/s over {} windows: median {:.0}, \
         min {:.0}, max {:.0}",
        sat.seconds,
        sat.setup_s,
        sat.out.sent,
        sat.out.completed,
        sat.out.rejected,
        sat.out.errored,
        sat.out.degraded,
        sat.out.backlog.iter().copied().fold(0.0, f64::max),
        rates.len(),
        median(&rates),
        lo,
        hi
    ));
    let all: Vec<&Rung> = done.iter().chain(std::iter::once(&sat)).collect();

    // Output check: standalone decodes of every input served at full
    // beams, computed after the load so they do not compete with it.
    let (references, search, scorer_us, ref_spans) = reference_decodes(ctx, &shared, &all, vocab);
    let mut mismatches = 0u64;
    let mut checked = 0u64;
    for rung in &all {
        for s in rung.served.iter().filter(|s| s.checked) {
            checked += 1;
            if references[&s.key].get(&s.frames) != Some(&s.words) {
                mismatches += 1;
            }
        }
    }
    let attempted: u64 = all.iter().map(|g| g.out.sent + g.out.tcp_sessions).sum();
    r.correct = mismatches == 0 && checked > 0;
    r.attempted = attempted;
    r.failed = mismatches;
    r.detail(format!(
        "output check: {checked} served transcripts compared with standalone decodes, {mismatches} differ"
    ));

    let reference = done
        .iter()
        .rfind(|g| g.streams == kind.reference())
        .expect("the ladder runs up to the reference rung");
    setups.extend(all.iter().map(|g| g.setup_s));
    r.e2e(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} server set-ups", setups.len()),
    );
    r.e2e(
        "capacity_streams",
        median(&rates) / FRAME_RATE,
        "streams",
        format!(
            "frames decoded per second ÷ 100 with the server saturated by {k} sessions, \
             median of {} windows",
            rates.len()
        ),
    );
    r.detail(format!(
        "ladder knee (not gated) = {knee} streams: the last rung of {:?} before the first failing one",
        kind.rungs()
    ));
    let o = &reference.out;
    let (l50, l99) = (quiet(&o.lag_ms, 50.0), quiet(&o.lag_ms, 99.0));
    let at = format!("at {} streams", reference.streams);
    let quiet_note = |p| {
        format!(
            "{at}, tenth percentile over windows of the window's {}",
            pct_note(p)
        )
    };
    r.latency("partial_lag_p50_ms", pct_value(l50), quiet_note(l50));
    r.latency("partial_lag_p99_ms", pct_value(l99), quiet_note(l99));
    let (f50, f99) = (quiet(&o.final_ms, 50.0), quiet(&o.final_ms, 99.0));
    r.latency("final_p50_ms", pct_value(f50), quiet_note(f50));
    r.latency("final_p99_ms", pct_value(f99), quiet_note(f99));
    // Every served transcript equals its standalone decode (checked
    // above), so the standalone decodes of the whole utterance pool give
    // the served word error rate over all of the workload's inputs.
    let mut w = WerReport::default();
    for (u, utt) in shared.utts.iter().enumerate() {
        w.accumulate(wer(&utt.words, &references[&(u, None)][&utt.num_frames()]));
    }
    r.e2e(
        "wer_pct",
        w.percent(),
        "%",
        format!(
            "{} utterances, {} reference words",
            shared.utts.len(),
            w.ref_words
        ),
    );
    r.e2e(
        "peak_rss_mib",
        peak_ref,
        "MiB",
        format!("VmHWM through the {}-stream rung", reference.streams),
    );
    let (t50, t95) = (tail(&o.tcp_lag_ms, 50.0), tail(&o.tcp_lag_ms, 95.0));
    if kind == Kind::Live {
        r.detail(format!(
            "tcp_partial_lag_p50_ms = {:.4} ms ({})  tcp_partial_lag_p95_ms = {:.4} ms ({})",
            pct_value(t50),
            pct_note(t50),
            pct_value(t95),
            pct_note(t95)
        ));
    }
    r.detail(format!(
        "peak_rss_mib over the whole ladder = {:.1} MiB",
        host::peak_rss_mib()
    ));

    if ctx.trace {
        let opens: Vec<f64> = done.iter().map(|g| g.open_s).collect();
        let layers = trace_layers(system, &shared, reference, search, scorer_us, &opens);
        layers.emit(&mut r);
        let largest = layers.largest();
        r.detail(format!("largest self time: {largest}"));
        let mut spans = vec![reference.out.spans.clone()];
        spans.extend(ref_spans);
        ctx.write_spans(&spans);
    }
    r
}

fn window_line(g: &Rung) -> String {
    let windows = g.out.lag_ms.iter().map(|s| s.0).max().unwrap_or(0) + 1;
    let mut by: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(w, v) in &g.out.lag_ms {
        by[w].push(v);
    }
    let p: Vec<String> = by
        .iter()
        .map(|v| {
            format!(
                "{:.2}/{:.2}",
                pct_value(tail(v, 50.0)),
                pct_value(tail(v, 99.0))
            )
        })
        .collect();
    format!("  windows p50/p99 ms: {}", p.join(" "))
}

fn rung_line(g: &Rung) -> String {
    let o = &g.out;
    let lag = windowed_tail(&o.lag_ms, 99.0, 50.0);
    let late = tail(&o.late_ms, 99.0);
    format!(
        "rung {:>5} streams ({:.2} s, set-up {:.4} s): sent {} completed {} rejected {} errored {} degraded {} \
         tcp {} | lag p50 {:.3} ms, tail {:.3} ms ({}) | final p50 {:.3} ms (n={}) | late {:.3} ms ({}) | \
         backlog max {:.0} frames, growing {} | sustained {:.0} streams | deadline misses {} | {}",
        g.streams,
        g.seconds,
        g.setup_s,
        o.sent,
        o.completed,
        o.rejected,
        o.errored,
        o.degraded,
        o.tcp_sessions,
        pct_value(tail(&lags(&o.lag_ms), 50.0)),
        pct_value(lag),
        pct_note(lag),
        pct_value(tail(&lags(&o.final_ms), 50.0)),
        o.final_ms.len(),
        pct_value(late),
        pct_note(late),
        o.backlog.iter().copied().fold(0.0, f64::max),
        g.verdict.backlog_growing,
        median(&window_rates(&o.decoded, RATE_WINDOW_TICKS)) / FRAME_RATE,
        g.deadline_misses,
        if g.verdict.passes() { "pass" } else { "FAIL" }
    )
}

/// Starts a server for one rung: opens the models (and the GMM), starts
/// the workers, registers the biasing pool and the TCP front end. This
/// is the timed set-up.
fn start_server(ctx: &Ctx, shared: &Shared, top: usize) -> Live {
    let anon_before = host::status_kib("RssAnon");
    let t = Instant::now();
    let models = Models::open_mmap(&ctx.bundle).expect("bundle opens");
    let open_s = t.elapsed().as_secs_f64();
    let anon_kib = host::status_kib("RssAnon").saturating_sub(anon_before) as f64;
    let scorer: Option<Arc<dyn AcousticScorer>> = shared.gmm.map(|_| {
        Arc::new(GmmScorer::new(Arc::new(inputs::gmm(&ctx.system)))) as Arc<dyn AcousticScorer>
    });
    let capacity = 2 * top;
    let config = ServeConfig {
        workers: ctx.threads,
        capacity,
        max_backlog_frames: capacity * 4 * CHUNK,
        ..ServeConfig::default()
    };
    let lms = vec![(
        unfold_serve::DEFAULT_LM.to_string(),
        Arc::new(models.default_lm().clone()),
    )];
    let server =
        Server::start_multi_with_scorer(config, Arc::new(models.am().clone()), lms, scorer);
    let handle = server.handle();
    for (u, m) in shared.users.iter().enumerate() {
        handle.add_bias(&inputs::user_name(u), Arc::clone(m));
    }
    let tcp = (shared.kind == Kind::Live).then(|| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        TcpFront::start(listener, handle.clone()).expect("start TCP front end")
    });
    Live {
        server,
        handle,
        tcp,
        open_s,
        anon_kib,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_rung(
    ctx: &Ctx,
    shared: &Shared,
    top: usize,
    streams: usize,
    rung_s: f64,
    load: Load,
    traced: bool,
    index: u64,
) -> Rung {
    let t = Instant::now();
    let live = start_server(ctx, shared, top);
    let setup_s = t.elapsed().as_secs_f64();
    let rss_idle_mib = host::rss_mib();
    let chunks_per_s = streams as f64 * FRAME_RATE / CHUNK as f64;
    let finals_per_s = streams as f64 / shared.mean_session_s;
    let closed = matches!(load, Load::Closed(..));
    let front = live.tcp.as_ref().filter(|_| !closed);
    let tcp = front.map_or(Vec::new(), |front| {
        (0..ctx.threads)
            .map(|c| {
                let seed = inputs::mix(ctx.seed, (index << 8) | c as u64);
                Some(TcpLeg::connect(c, front.local_addr(), seed))
            })
            .collect()
    });
    let mut gen = Gen {
        shared,
        handle: live.handle.clone(),
        versions: vec![0; shared.users.len()],
        origin: Instant::now(),
        end_ns: (rung_s * 1e9) as u64,
        lag_window_ns: WINDOW_NS.max((WINDOW_CHUNKS / chunks_per_s * 1e9) as u64),
        final_window_ns: WINDOW_NS.max((WINDOW_FINALS / finals_per_s * 1e9) as u64),
        seed: inputs::mix(ctx.seed, index),
        vocab: ctx.system.spec.vocab_size,
        tr: Tracer::new(false, ctx.origin),
        out: GenOut::default(),
        sessions: Vec::new(),
        heap: BinaryHeap::new(),
        pending: VecDeque::new(),
        seq: 0,
        tcp,
    };
    match load {
        Load::Open(plans) => {
            gen.warm_start(plans);
            gen.tr = Tracer::new(traced, ctx.origin);
            gen.origin = Instant::now();
            gen.run();
        }
        Load::Closed(traffic, seed) => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut slots: Vec<usize> = (0..streams).map(|_| gen.admit(traffic, &mut rng)).collect();
            gen.origin = Instant::now();
            gen.saturate(&mut slots, traffic, &mut rng);
        }
    }
    let seconds = gen.origin.elapsed().as_secs_f64();
    let mut out = gen.out;
    out.spans = gen.tr.into_spans();
    let mut served = std::mem::take(&mut out.served);
    let stats = live.handle.stats();
    let obs = parse_obs(&live.handle.obs_jsonl());
    let mapped_kib = host::mapped_kib(&ctx.bundle) as f64;
    let (live_open_s, live_anon_kib) = (live.open_s, live.anon_kib);
    drop(live.tcp);
    live.server.shutdown();

    // Degraded sessions decode with tightened beams, so only full-beam
    // ones have a standalone equal; TCP sessions cannot report their
    // level, so they are checked only when no admission was degraded.
    if stats.degraded_admissions > 0 {
        for s in served.iter_mut().filter(|s| s.tcp) {
            s.checked = false;
        }
    }
    let lag = windowed_tail(&out.lag_ms, 99.0, 50.0).map_or(f64::INFINITY, |p| p.value);
    let verdict = RungVerdict {
        streams,
        lag_tail_ms: lag,
        rejected: out.rejected,
        errored: out.errored,
        backlog_growing: backlog_growing(&out.backlog, (streams * CHUNK) as f64),
    };
    Rung {
        streams,
        out,
        verdict,
        seconds,
        setup_s,
        open_s: live_open_s,
        anon_kib: live_anon_kib,
        mapped_kib,
        rss_idle_mib,
        obs,
        frames_decoded: stats.frames_decoded,
        deadline_misses: stats.deadline_misses,
        degraded_admissions: stats.degraded_admissions,
        served,
    }
}

fn parse_obs(jsonl: &str) -> BTreeMap<String, f64> {
    match ObsRecord::parse_line(jsonl.trim()) {
        Ok(ObsRecord::Run(pairs)) => pairs.into_iter().collect(),
        _ => BTreeMap::new(),
    }
}

/// A scheduled action of a generator thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Session `.0` sends chunk `.1` (opening the session first).
    Chunk(usize, usize),
    /// Registry writer swap and backlog sample.
    Tick,
    /// TCP connection `.0`'s next action is due.
    Tcp(usize),
}

/// What a pending item waits for.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// Chunk ending at frame `end` due at `due`, last frame handed over
    /// at `sent`.
    Chunk { end: u64, due: u64, sent: u64 },
    /// The final result of a session that finished at its due time
    /// `due`; `natural` is false for sessions cut at the rung's end.
    Final { due: u64, natural: bool },
}

struct Sess {
    plan: SessionPlan,
    id: Option<SessionId>,
    version: Option<u32>,
    level: u8,
    failed: bool,
    /// Frames handed to the server so far.
    sent: usize,
    /// When the final result was collected.
    collected: Option<u64>,
}

/// The load generator: one thread multiplexing every in-process session
/// of a rung, the TCP connections and the registry writer. One thread
/// keeps its own inline work (scoring, for feature frames) from
/// contending with itself for the server's lock, and lets it order
/// session opens and registry swaps without locking.
struct Gen<'a> {
    shared: &'a Shared<'a>,
    handle: Handle,
    /// Current version of each user's biasing model.
    versions: Vec<u32>,
    origin: Instant,
    end_ns: u64,
    lag_window_ns: u64,
    final_window_ns: u64,
    seed: u64,
    vocab: usize,
    tr: Tracer,
    out: GenOut,
    sessions: Vec<Sess>,
    heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    pending: VecDeque<(usize, Wait)>,
    seq: u64,
    /// The TCP connections (taken out while one acts).
    tcp: Vec<Option<TcpLeg>>,
}

impl Gen<'_> {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The window of length `len` a due time falls in, `None` during the
    /// warm-up; the few items due after the rung's end count towards its
    /// last window.
    fn window(&self, due: u64, len: u64) -> Option<usize> {
        let since = due.checked_sub(WARMUP_NS)?;
        let windows = (self.end_ns.saturating_sub(WARMUP_NS) / len).max(1);
        Some((since / len).min(windows - 1) as usize)
    }

    fn record_lag(&mut self, due: u64, at: u64, sent: u64) {
        if let Some(w) = self.window(due, self.lag_window_ns) {
            self.out.lag_ms.push((w, since_ms(due, at)));
            self.out.wait_ms.push(since_ms(sent, at));
        }
    }

    fn record_final(&mut self, due: u64, at: u64) {
        if let Some(w) = self.window(due, self.final_window_ns) {
            self.out.final_ms.push((w, since_ms(due, at)));
        }
    }

    fn schedule(&mut self, due: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((due, self.seq, ev)));
    }

    /// Takes the rung's sessions. Those already in flight when the rung
    /// starts are opened and sent their first chunk now, untimed, and the
    /// server is let drain: the rung's clock then starts at its steady
    /// concurrency, without a burst of session starts.
    fn warm_start(&mut self, plans: Vec<SessionPlan>) {
        for (i, plan) in plans.into_iter().enumerate() {
            let warm = plan.warm;
            self.sessions.push(Sess {
                plan,
                id: None,
                version: None,
                level: 0,
                failed: false,
                sent: 0,
                collected: None,
            });
            if warm && self.open(i) {
                let (id, utt) = (
                    self.sessions[i].id.expect("open"),
                    self.sessions[i].plan.utt,
                );
                let upto = CHUNK.min(self.sessions[i].plan.frames);
                for f in 0..upto {
                    let frame = self.shared.utts[utt].frames[f].clone();
                    if let Err(e) = self.handle.ingest_frame(id, frame) {
                        self.fail(i, &e);
                        break;
                    }
                }
                self.sessions[i].sent = upto;
            }
        }
        let deadline = Instant::now() + DRAIN;
        while Instant::now() < deadline {
            let st = self.handle.stats();
            if st.frames_accepted == st.frames_decoded + st.frames_dropped {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn run(&mut self) {
        for i in 0..self.sessions.len() {
            let plan = &self.sessions[i].plan;
            let k = usize::from(plan.warm);
            let due = (plan.start_s * 1e9) as u64 + self.chunk_due_offset(plan, k);
            self.schedule(due, Ev::Chunk(i, k));
        }
        self.schedule(0, Ev::Tick);
        for c in 0..self.tcp.len() {
            self.schedule(0, Ev::Tcp(c));
        }
        let hard_stop = self.end_ns + DRAIN.as_nanos() as u64;
        let mut last_sweep = 0u64;
        loop {
            let now = self.now();
            while let Some(&Reverse((due, _, ev))) = self.heap.peek() {
                if due > now {
                    break;
                }
                self.heap.pop();
                self.fire(ev, due);
            }
            let now = self.now();
            if now >= last_sweep + POLL_NS {
                self.sweep();
                self.poll_tcp();
                last_sweep = now;
            }
            let tcp_busy = self.tcp.iter().flatten().any(TcpLeg::busy);
            let waiting = !self.pending.is_empty() || tcp_busy;
            if self.heap.is_empty() && !waiting {
                break;
            }
            let now = self.now();
            if now > hard_stop {
                // Whatever is still pending never completed.
                self.out.errored += self.pending.len() as u64 + u64::from(tcp_busy);
                break;
            }
            let next_due = self.heap.peek().map_or(u64::MAX, |r| r.0 .0);
            let mut wake = next_due;
            if waiting {
                wake = wake.min(last_sweep + POLL_NS);
            }
            if wake > now {
                std::thread::sleep(Duration::from_nanos(wake - now));
            }
        }
    }

    /// Offset (ns) from a session's start at which chunk `k` is due:
    /// when its last frame's audio is complete.
    fn chunk_due_offset(&self, plan: &SessionPlan, k: usize) -> u64 {
        if k * CHUNK >= plan.frames {
            return plan.frames as u64 * 1_000_000_000 / FRAME_RATE as u64;
        }
        let end = ((k + 1) * CHUNK).min(plan.frames) as u64;
        end * 1_000_000_000 / FRAME_RATE as u64
    }

    fn fire(&mut self, ev: Ev, due: u64) {
        match ev {
            Ev::Chunk(s, k) => self.chunk(s, k, due),
            Ev::Tick => self.tick(due),
            Ev::Tcp(c) => self.tcp_action(c, due),
        }
    }

    /// Periodic duties: sample the backlog (after the warm-up) and the
    /// RSS, and replace one user's biasing model.
    fn tick(&mut self, due: u64) {
        if due >= self.end_ns {
            return;
        }
        if due >= WARMUP_NS {
            let st = self.handle.stats();
            self.out.backlog.push(
                st.frames_accepted
                    .saturating_sub(st.frames_decoded + st.frames_dropped) as f64,
            );
            self.out.decoded.push((self.now(), st.frames_decoded));
        }
        self.out.rss_max_mib = self.out.rss_max_mib.max(host::rss_mib());
        if !self.shared.users.is_empty() {
            self.swap_bias(due);
        }
        self.schedule(due + TICK.as_nanos() as u64, Ev::Tick);
    }

    /// Replaces one user's biasing model: retire, then register the next
    /// version.
    fn swap_bias(&mut self, due: u64) {
        let mut rng = SmallRng::seed_from_u64(inputs::mix(self.seed, due));
        let user = rng.gen_range(0..SWAPPABLE.min(self.shared.users.len()));
        let name = inputs::user_name(user);
        let next = self.versions[user] + 1;
        let model = Arc::new(inputs::bias_model(self.shared.seed, self.vocab, user, next));
        let t = Instant::now();
        let retired = self.tr.time("bias.retire_bias", user as u64, || {
            self.handle.retire_bias(&name)
        });
        self.out.retire_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        self.tr.time("bias.add_bias", user as u64, || {
            self.handle.add_bias(&name, model)
        });
        self.out.add_us.push(t.elapsed().as_secs_f64() * 1e6);
        if retired.is_err() {
            self.out.errored += 1;
        }
        self.versions[user] = next;
    }

    fn chunk(&mut self, s: usize, k: usize, due: u64) {
        if self.sessions[s].failed {
            return;
        }
        let started = self.now();
        if k == 0 && !self.open(s) {
            return;
        }
        let plan_frames = self.sessions[s].plan.frames;
        if k * CHUNK >= plan_frames {
            // A session already in flight whose warm-up chunk was its last.
            self.finish(s, due, true);
            return;
        }
        if k > 0 && due >= self.end_ns {
            // The rung is over: the client hangs up here.
            self.finish(s, due, false);
            return;
        }
        self.out.late_ms.push(since_ms(due, started));
        let hi = ((k + 1) * CHUNK).min(plan_frames);
        if !self.ingest(s, hi) {
            return;
        }
        let sent = self.now();
        self.pending.push_back((
            s,
            Wait::Chunk {
                end: hi as u64,
                due,
                sent,
            },
        ));
        if hi == plan_frames {
            self.finish(s, due, true);
        } else {
            let start = (self.sessions[s].plan.start_s * 1e9) as u64;
            let next = start + self.chunk_due_offset(&self.sessions[s].plan, k + 1);
            self.schedule(next, Ev::Chunk(s, k + 1));
        }
    }

    /// Hands session `s`'s frames up to `hi` to the server; false if it
    /// failed.
    fn ingest(&mut self, s: usize, hi: usize) -> bool {
        let id = self.sessions[s].id.expect("open");
        let utt = self.sessions[s].plan.utt;
        for f in self.sessions[s].sent..hi {
            let frame = self.shared.utts[utt].frames[f].clone();
            let r = self.tr.time("serve.ingest_frame", id, || {
                self.handle.ingest_frame(id, frame)
            });
            if let Err(e) = r {
                self.fail(s, &e);
                return false;
            }
        }
        self.sessions[s].sent = hi;
        true
    }

    /// Opens a session of the closed loop; returns its index.
    fn admit(&mut self, traffic: &Traffic, rng: &mut SmallRng) -> usize {
        let s = self.sessions.len();
        self.sessions.push(Sess {
            plan: traffic.closed_session(rng),
            id: None,
            version: None,
            level: 0,
            failed: false,
            sent: 0,
            collected: None,
        });
        self.open(s);
        s
    }

    /// The saturation phase's closed loop over the open sessions in
    /// `slots`: whenever the server's backlog is below half a chunk per
    /// session, the next session in turn sends its next chunk at
    /// once, unpaced. A session that has sent its last chunk finishes
    /// and a new one takes its slot, so the server never runs out of
    /// work, and its queue never grows deep enough to engage admission
    /// control. The registry writer keeps swapping models meanwhile.
    fn saturate(&mut self, slots: &mut [usize], traffic: &Traffic, rng: &mut SmallRng) {
        let target = (slots.len() * CHUNK / 2) as u64;
        let mut cursor = 0;
        self.schedule(0, Ev::Tick);
        while self.now() < self.end_ns {
            let now = self.now();
            while let Some(&Reverse((due, _, ev))) = self.heap.peek() {
                if due > now {
                    break;
                }
                self.heap.pop();
                self.fire(ev, due);
            }
            let st = self.handle.stats();
            let backlog = st
                .frames_accepted
                .saturating_sub(st.frames_decoded + st.frames_dropped);
            let mut room = target.saturating_sub(backlog);
            // At most one visit per slot between two looks at the backlog.
            for _ in 0..slots.len() {
                if room < CHUNK as u64 {
                    break;
                }
                let s = slots[cursor];
                if self.sessions[s].failed {
                    slots[cursor] = self.admit(traffic, rng);
                } else {
                    let (sent, frames) = (self.sessions[s].sent, self.sessions[s].plan.frames);
                    let hi = (sent + CHUNK).min(frames);
                    if self.ingest(s, hi) {
                        room = room.saturating_sub((hi - sent) as u64);
                        if hi == frames {
                            self.finish(s, self.now(), true);
                            slots[cursor] = self.admit(traffic, rng);
                        }
                    }
                }
                cursor = (cursor + 1) % slots.len();
            }
            self.sweep();
            let next_tick = self.heap.peek().map_or(u64::MAX, |r| r.0 .0);
            let wake = next_tick.min(now + SAT_POLL_NS);
            let now = self.now();
            if wake > now {
                std::thread::sleep(Duration::from_nanos(wake - now));
            }
        }
        // The phase is over: every session still streaming hangs up.
        let end = self.now();
        for &s in slots.iter() {
            let sess = &self.sessions[s];
            if !sess.failed && sess.id.is_some() && sess.sent < sess.plan.frames {
                self.finish(s, end, false);
            }
        }
        let hard_stop = end + DRAIN.as_nanos() as u64;
        while !self.pending.is_empty() && self.now() < hard_stop {
            self.sweep();
            std::thread::sleep(Duration::from_nanos(POLL_NS));
        }
        // Whatever is still pending never completed.
        self.out.errored += self.pending.len() as u64;
    }

    fn open(&mut self, s: usize) -> bool {
        self.out.sent += 1;
        let user = self.sessions[s].plan.user;
        let opened = match user {
            Some(u) => {
                let name = inputs::user_name(u);
                let v = self.versions[u];
                let r = self.tr.time("serve.open_with_models", s as u64, || {
                    self.handle.open_with_models(None, Some(&name))
                });
                self.sessions[s].version = Some(v);
                self.out.biased += 1;
                r
            }
            None => self.tr.time("serve.open_with_models", s as u64, || {
                self.handle.open_with_models(None, None)
            }),
        };
        match opened {
            Ok(id) => {
                self.sessions[s].id = Some(id);
                let level = self
                    .tr
                    .time("serve.view", id, || self.handle.view(id))
                    .map_or(u8::MAX, |v| v.degrade_level);
                self.sessions[s].level = level;
                if level > 0 {
                    self.out.degraded += 1;
                }
                true
            }
            Err(e) => {
                self.fail(s, &e);
                false
            }
        }
    }

    fn finish(&mut self, s: usize, due: u64, natural: bool) {
        let id = self.sessions[s].id.expect("open");
        let r = self.tr.time("serve.finish", id, || self.handle.finish(id));
        match r {
            Ok(()) => self.pending.push_back((s, Wait::Final { due, natural })),
            Err(e) => self.fail(s, &e),
        }
    }

    fn fail(&mut self, s: usize, e: &ServeError) {
        self.sessions[s].failed = true;
        match e {
            ServeError::Rejected(_) => self.out.rejected += 1,
            _ => self.out.errored += 1,
        }
    }

    /// Confirms every pending item that has completed.
    fn sweep(&mut self) {
        let mut keep = VecDeque::with_capacity(self.pending.len());
        let mut decoded: HashMap<usize, Option<u64>> = HashMap::new();
        while let Some((s, w)) = self.pending.pop_front() {
            if self.sessions[s].failed {
                continue;
            }
            let id = self.sessions[s].id.expect("open");
            match w {
                Wait::Chunk { end, due, sent } => {
                    let frames = *decoded.entry(s).or_insert_with(|| {
                        self.tr
                            .time("serve.view", id, || self.handle.view(id))
                            .ok()
                            .map(|v| v.frames_decoded)
                    });
                    match frames {
                        Some(f) if f >= end => {
                            let now = self.now();
                            self.tr
                                .time("serve.stable_partial", id, || {
                                    self.handle.stable_partial(id)
                                })
                                .ok();
                            self.record_lag(due, now, sent);
                        }
                        Some(_) => keep.push_back((s, w)),
                        // Its final result was collected meanwhile, so the
                        // chunk was decoded by then.
                        None => match self.sessions[s].collected {
                            Some(at) => self.record_lag(due, at, sent),
                            None => {
                                self.sessions[s].failed = true;
                                self.out.errored += 1;
                            }
                        },
                    }
                }
                Wait::Final { due, natural } => {
                    let got = self.tr.time("serve.take_result", id, || {
                        self.handle.wait_result(id, Duration::ZERO)
                    });
                    let now = self.now();
                    if !self.collect(s, got, due, natural, now) {
                        keep.push_back((s, w));
                    }
                }
            }
        }
        self.pending = keep;
    }

    /// Records a collected result; false while it is not ready.
    fn collect(
        &mut self,
        s: usize,
        got: Result<Option<unfold_decoder::DecodeResult>, ServeError>,
        due: u64,
        natural: bool,
        now: u64,
    ) -> bool {
        match got {
            Ok(Some(res)) => {
                self.out.completed += 1;
                if natural {
                    self.record_final(due, now);
                }
                self.sessions[s].collected = Some(now);
                let sess = &self.sessions[s];
                self.out.served.push(Served {
                    key: (sess.plan.utt, sess.plan.user.zip(sess.version)),
                    frames: sess.sent,
                    words: res.words,
                    checked: sess.level == 0,
                    tcp: false,
                });
                true
            }
            Ok(None) => false,
            Err(e) => {
                self.fail(s, &e);
                true
            }
        }
    }

    fn tcp_action(&mut self, c: usize, due: u64) {
        let mut leg = self.tcp[c].take().expect("connection in place");
        let now = self.now();
        leg.act(self, due, now);
        self.tcp[c] = Some(leg);
    }

    fn poll_tcp(&mut self) {
        for c in 0..self.tcp.len() {
            let mut leg = self.tcp[c].take().expect("connection in place");
            leg.poll(self);
            self.tcp[c] = Some(leg);
        }
    }
}

/// The TCP leg of one generator thread: one connection carrying
/// sessions back to back under the same pacing.
struct TcpLeg {
    /// Its index among the generator's connections.
    idx: usize,
    stream: TcpStream,
    buf: Vec<u8>,
    rng: SmallRng,
    sess: Option<TcpSess>,
    awaiting: Option<Await>,
    closed: bool,
}

struct TcpSess {
    utt: usize,
    user: Option<usize>,
    start: u64,
    frames: usize,
    sent: usize,
    chunk_due: u64,
    finishing: Option<(u64, bool)>,
}

#[derive(Debug, Clone, Copy)]
enum Await {
    Opened,
    Partial { due: u64 },
    Final { due: u64, natural: bool },
}

impl TcpLeg {
    fn connect(idx: usize, addr: std::net::SocketAddr, seed: u64) -> TcpLeg {
        let stream = TcpStream::connect(addr).expect("connect to the TCP front end");
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).expect("non-blocking socket");
        TcpLeg {
            idx,
            stream,
            buf: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            sess: None,
            awaiting: None,
            closed: false,
        }
    }

    fn busy(&self) -> bool {
        !self.closed && (self.awaiting.is_some() || self.sess.is_some())
    }

    fn send(&mut self, gen: &mut Gen, msg: &ClientMsg, id: u64) -> bool {
        let body = gen.tr.time("wire.encode", id, || msg.encode());
        let mut framed = Vec::with_capacity(body.len() + 4);
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&body);
        let mut off = 0;
        while off < framed.len() {
            match self.stream.write(&framed[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(_) => {
                    gen.out.errored += 1;
                    self.closed = true;
                    return false;
                }
            }
        }
        true
    }

    /// The action due now: open a session, send a chunk, or finish.
    fn act(&mut self, gen: &mut Gen, due: u64, now: u64) {
        if self.closed || self.awaiting.is_some() {
            return;
        }
        let Some(sess) = &self.sess else {
            if due >= gen.end_ns {
                return;
            }
            let utt;
            let user;
            if self.rng.gen::<bool>() && !gen.shared.users.is_empty() {
                let u = self.rng.gen_range(SWAPPABLE..gen.shared.users.len());
                user = Some(u);
                utt = u % gen.shared.utts.len();
            } else {
                user = None;
                utt = self.rng.gen_range(0..gen.shared.utts.len());
            }
            let msg = ClientMsg::Open {
                lm: None,
                bias: user.map(inputs::user_name),
            };
            gen.out.tcp_sessions += 1;
            if self.send(gen, &msg, utt as u64) {
                self.sess = Some(TcpSess {
                    utt,
                    user,
                    start: now,
                    frames: gen.shared.utts[utt].num_frames(),
                    sent: 0,
                    chunk_due: 0,
                    finishing: None,
                });
                self.awaiting = Some(Await::Opened);
            }
            return;
        };
        if let Some((fdue, natural)) = sess.finishing {
            if self.send(gen, &ClientMsg::Finish, sess.utt as u64) {
                self.awaiting = Some(Await::Final { due: fdue, natural });
            }
            return;
        }
        let chunk_due = sess.chunk_due;
        if sess.sent > 0 && chunk_due >= gen.end_ns {
            self.sess.as_mut().expect("session").finishing = Some((chunk_due, false));
            self.act(gen, due, now);
            return;
        }
        gen.out.late_ms.push(since_ms(chunk_due, now));
        let (utt, lo) = (sess.utt, sess.sent);
        let hi = (lo + CHUNK).min(sess.frames);
        let frames: Vec<FrameInput> = gen.shared.utts[utt].frames[lo..hi].to_vec();
        if self.send(gen, &ClientMsg::FramesV2(frames), utt as u64) {
            self.sess.as_mut().expect("session").sent = hi;
            self.awaiting = Some(Await::Partial { due: chunk_due });
        }
    }

    /// Reads whatever the server has answered and schedules what follows.
    fn poll(&mut self, gen: &mut Gen) {
        if self.closed {
            return;
        }
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.closed = true;
                    if self.busy() {
                        gen.out.errored += 1;
                    }
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.closed = true;
                    gen.out.errored += 1;
                    return;
                }
            }
        }
        while self.buf.len() >= 4 {
            let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() < 4 + len {
                break;
            }
            let body: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
            let now = gen.now();
            let id = self.sess.as_ref().map_or(0, |s| s.utt as u64);
            match gen.tr.time("wire.decode", id, || ServerMsg::decode(&body)) {
                Ok(msg) => self.answer(gen, msg, now),
                Err(_) => {
                    gen.out.errored += 1;
                    self.closed = true;
                    return;
                }
            }
        }
    }

    fn answer(&mut self, gen: &mut Gen, msg: ServerMsg, now: u64) {
        let Some(awaiting) = self.awaiting.take() else {
            gen.out.errored += 1;
            return;
        };
        match (awaiting, msg) {
            (Await::Opened, ServerMsg::Opened { .. }) => {
                let s = self.sess.as_mut().expect("session");
                s.chunk_due =
                    s.start + (CHUNK.min(s.frames) as u64) * 1_000_000_000 / FRAME_RATE as u64;
                let due = s.chunk_due;
                gen.schedule(due, Ev::Tcp(self.idx));
            }
            (Await::Partial { due }, ServerMsg::Partial { .. }) => {
                if due >= WARMUP_NS {
                    gen.out.tcp_lag_ms.push(since_ms(due, now));
                }
                let s = self.sess.as_mut().expect("session");
                if s.sent == s.frames {
                    s.finishing = Some((due, true));
                    gen.schedule(now, Ev::Tcp(self.idx));
                } else {
                    let end = (s.sent + CHUNK).min(s.frames) as u64;
                    s.chunk_due = s.start + end * 1_000_000_000 / FRAME_RATE as u64;
                    let due = s.chunk_due;
                    gen.schedule(due, Ev::Tcp(self.idx));
                }
            }
            (Await::Final { due, natural }, ServerMsg::Final { words, .. }) => {
                let s = self.sess.take().expect("session");
                gen.out.completed += 1;
                if natural {
                    gen.record_final(due, now);
                }
                gen.out.served.push(Served {
                    key: (s.utt, s.user.map(|u| (u, 0))),
                    frames: s.sent,
                    words,
                    checked: true,
                    tcp: true,
                });
                gen.schedule(now, Ev::Tcp(self.idx));
            }
            (_, ServerMsg::Rejected { .. }) => {
                gen.out.rejected += 1;
                self.sess = None;
                self.closed = true;
            }
            _ => {
                gen.out.errored += 1;
                self.sess = None;
                self.closed = true;
            }
        }
    }
}

/// Standalone reference decodes by input, by prefix length (frames).
type References = HashMap<RefKey, HashMap<usize, Vec<u32>>>;

/// Decodes every input served at full beams with a standalone
/// `StreamSession` (default config, the same biasing model), finalizing
/// after every chunk so each prefix a session may have been cut at has
/// its reference. The decodes double as the search replay of the traced
/// run: they time search per frame and, traced, the kernel phases. For
/// `stream_features` the frames are first scored with `GmmScorer`, which
/// times the scorer.
fn reference_decodes(
    ctx: &Ctx,
    shared: &Shared,
    done: &[&Rung],
    vocab: usize,
) -> (References, SearchAgg, f64, Vec<Vec<Span>>) {
    let mut keys: Vec<RefKey> = done
        .iter()
        .flat_map(|g| g.served.iter().filter(|s| s.checked).map(|s| s.key))
        .collect();
    keys.extend((0..shared.utts.len()).map(|u| (u, None)));
    keys.sort_unstable();
    keys.dedup();
    let models = Models::open_mmap(&ctx.bundle).expect("bundle opens");
    let scorer = shared.gmm.map(|g| GmmScorer::new(Arc::clone(g)));
    let width = ctx.system.am.num_pdfs;
    let next = AtomicUsize::new(0);
    struct Out {
        refs: References,
        search: SearchAgg,
        score_ns: u64,
        scored: u64,
        spans: Vec<Span>,
    }
    let outs: Vec<Out> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|_| {
                let (keys, models, scorer, next) = (&keys, &models, &scorer, &next);
                scope.spawn(move || {
                    let mut out = Out {
                        refs: HashMap::new(),
                        search: SearchAgg::default(),
                        score_ns: 0,
                        scored: 0,
                        spans: Vec::new(),
                    };
                    let mut tr = Tracer::new(ctx.trace, ctx.origin);
                    let mut work = WorkScratch::new();
                    let mut metrics = MetricsSink::with_frame_capacity(16);
                    let passthrough = PrecomputedScorer::new(width);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = keys.get(i) else { break };
                        let utt = &shared.utts[key.0];
                        let frames: Vec<FrameInput> = match scorer {
                            Some(sc) => tr.time("replay.score", i as u64, || {
                                let t = Instant::now();
                                let rows: Vec<FrameInput> = utt
                                    .frames
                                    .iter()
                                    .map(|f| {
                                        let mut row = Vec::new();
                                        sc.score_into(f, &mut row).expect("features match the GMM");
                                        FrameInput::Scores(row)
                                    })
                                    .collect();
                                out.score_ns += t.elapsed().as_nanos() as u64;
                                out.scored += rows.len() as u64;
                                rows
                            }),
                            None => utt.frames.clone(),
                        };
                        let sink: &mut dyn TraceSink = if ctx.trace {
                            &mut metrics
                        } else {
                            &mut NullSink
                        };
                        let am = models.am();
                        let lm = models.default_lm();
                        let prefixes = tr.time("replay.decode", i as u64, || match key.1 {
                            None => decode_prefixes(
                                am,
                                lm,
                                &frames,
                                &passthrough,
                                &mut work,
                                sink,
                                &mut out.search,
                            ),
                            Some((u, v)) => {
                                let bias = if v == 0 {
                                    Arc::clone(&shared.users[u])
                                } else {
                                    Arc::new(inputs::bias_model(shared.seed, vocab, u, v))
                                };
                                let biased = BiasedLm::new(lm, &bias);
                                decode_prefixes(
                                    am,
                                    &biased,
                                    &frames,
                                    &passthrough,
                                    &mut work,
                                    sink,
                                    &mut out.search,
                                )
                            }
                        });
                        out.refs.insert(key, prefixes);
                    }
                    if ctx.trace {
                        out.search.add_phases(&metrics);
                    }
                    out.spans = tr.into_spans();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let mut refs = HashMap::new();
    let mut search = SearchAgg::default();
    let (mut score_ns, mut scored) = (0u64, 0u64);
    let mut spans = Vec::new();
    for o in outs {
        refs.extend(o.refs);
        search.merge(&o.search);
        score_ns += o.score_ns;
        scored += o.scored;
        spans.push(o.spans);
    }
    let scorer_us = if shared.gmm.is_some() {
        layers::ratio(score_ns as f64 / 1e3, scored as f64)
    } else {
        crate::offline::scorer_replay(shared.utts, width)
    };
    (refs, search, scorer_us, spans)
}

/// One standalone decode of `frames`, finalized before the first frame,
/// after every chunk and at the end; returns the transcript by prefix
/// length.
fn decode_prefixes<L: LmSource + ?Sized>(
    am: &AmModel,
    lm: &L,
    frames: &[FrameInput],
    scorer: &PrecomputedScorer,
    work: &mut WorkScratch,
    sink: &mut dyn TraceSink,
    agg: &mut SearchAgg,
) -> HashMap<usize, Vec<u32>> {
    let mut out = HashMap::new();
    let mut s = StreamSession::new(DecodeConfig::default());
    let t = Instant::now();
    s.seed(am, lm, work, sink);
    let mut search_ns = t.elapsed().as_nanos() as u64;
    // A session may hang up before its first chunk.
    out.insert(0, s.finalize(am, &mut NullSink).words);
    for (i, chunk) in frames.chunks(CHUNK).enumerate() {
        let t = Instant::now();
        for f in chunk {
            s.ingest_frame(am, lm, scorer, work, f, sink)
                .expect("score rows match the model");
        }
        search_ns += t.elapsed().as_nanos() as u64;
        let end = i * CHUNK + chunk.len();
        let res = s.finalize(am, &mut NullSink);
        if end == frames.len() {
            agg.add_stats(&res.stats);
        }
        out.insert(end, res.words);
    }
    agg.search_ns += search_ns;
    out
}

/// The per-layer figures of a traced `stream_*` run, at the reference
/// rung.
fn trace_layers(
    system: &unfold::System,
    shared: &Shared,
    reference: &Rung,
    search: SearchAgg,
    scorer_us: f64,
    opens: &[f64],
) -> Layers {
    let o = &reference.out;
    let spans = std::slice::from_ref(&o.spans);
    let obs = |k: &str| reference.obs.get(k).copied().unwrap_or(0.0);
    let us = |name: &str| trace::durations_us(spans, name);
    let ingest = us("serve.ingest_frame");
    let view = us("serve.view");
    let (i50, i99, v99, w99) = (
        tail(&ingest, 50.0),
        tail(&ingest, 99.0),
        tail(&view, 99.0),
        tail(&o.wait_ms, 99.0),
    );
    let mut notes = BTreeMap::new();
    notes.insert(
        "ingest_p50",
        format!("serve.ingest_frame spans, {}", pct_note(i50)),
    );
    notes.insert(
        "ingest_p99",
        format!("serve.ingest_frame spans, {}", pct_note(i99)),
    );
    notes.insert("lock", format!("serve.view spans, {}", pct_note(v99)));
    notes.insert(
        "lock_wait",
        "client calls x mean serve.view time / client call time".to_string(),
    );
    notes.insert(
        "wait",
        format!("last ingest of a chunk -> chunk decoded, {}", pct_note(w99)),
    );
    notes.insert(
        "lease",
        "obs serve.lease_decode_us / serve.lease_frames".to_string(),
    );
    notes.insert("counts", "ServeStats over the rung".to_string());
    notes.insert(
        "backlog",
        "ServeStats accepted - decoded - dropped, sampled every 100 ms".to_string(),
    );
    let sched = Sched {
        ingest_us_p50: pct_value(i50),
        ingest_us_p99: pct_value(i99),
        lock_us_p99: pct_value(v99),
        lock_wait_pct: 0.0,
        wait_ms_p99: pct_value(w99),
        lease_decode_us_p50: obs("serve.lease_decode_us.p50"),
        lease_decode_us_p99: obs("serve.lease_decode_us.p99"),
        lease_frames_mean: obs("serve.lease_frames.mean"),
        deadline_misses: reference.deadline_misses as f64,
        degraded_admissions: reference.degraded_admissions as f64,
        backlog_frames_max: o.backlog.iter().copied().fold(0.0, f64::max),
        notes,
    };
    let live = shared.kind == Kind::Live;
    let bias = live.then(|| {
        let (a, r) = (tail(&o.add_us, 99.0), tail(&o.retire_us, 99.0));
        (
            pct_value(a),
            pct_value(r),
            layers::ratio(o.biased as f64, o.sent as f64),
            format!("add {}, retire {}", pct_note(a), pct_note(r)),
        )
    });
    let wire = layers::wire_replay(shared.utts);
    let tcp = live.then(|| {
        let (t50, t95) = (tail(&o.tcp_lag_ms, 50.0), tail(&o.tcp_lag_ms, 95.0));
        let in50 = pct_value(tail(&lags(&o.lag_ms), 50.0));
        (
            pct_value(t50),
            pct_value(t95),
            pct_value(t50) - in50,
            format!("TCP-leg sessions, {} / {}", pct_note(t50), pct_note(t95)),
        )
    });
    let late = tail(&o.late_ms, 99.0);

    // Self time at the reference rung: search and scoring from the
    // standalone replay's cost per frame times the frames served; the
    // scheduler from the client calls into the server, less the inline
    // scoring they contain and less the time they waited for the core
    // lock (each call's wait taken as the mean duration of a trivial
    // `view` call); bias and wire from their own spans.
    let mut self_ns = BTreeMap::new();
    trace::self_time_ns(&o.spans, &mut self_ns);
    let ms_of = |pred: &dyn Fn(&str) -> bool| -> f64 {
        self_ns
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, v)| *v as f64 / 1e6)
            .sum()
    };
    let frames = reference.frames_decoded as f64;
    let search_ms = search.us_per_frame() * frames / 1e3;
    let scorer_ms = scorer_us * frames / 1e3;
    let client_ms = ms_of(&|k| k.starts_with("serve."));
    let calls = o
        .spans
        .iter()
        .filter(|s| s.name.starts_with("serve."))
        .count() as f64;
    let lock_wait_ms = (calls * layers::ratio(view.iter().sum(), view.len() as f64) / 1e3)
        .min((client_ms - scorer_ms).max(0.0));
    let tcp_frames = (o.tcp_lag_ms.len() * CHUNK) as f64;
    let mut self_ms = BTreeMap::new();
    self_ms.insert("search", search_ms);
    self_ms.insert("scorer", scorer_ms);
    self_ms.insert("sched", (client_ms - scorer_ms - lock_wait_ms).max(0.0));
    self_ms.insert("bias", ms_of(&|k| k.starts_with("bias.")).max(0.0));
    self_ms.insert(
        "wire",
        ms_of(&|k| k.starts_with("wire.")) + wire.2 * tcp_frames / 1e6,
    );
    self_ms.insert("lattice", 0.0);
    let mut sched = sched;
    sched.lock_wait_pct = layers::ratio(100.0 * lock_wait_ms, client_ms);
    Layers {
        open_ms: median(opens) * 1e3,
        mapped_kib: reference.mapped_kib,
        anon_kib: reference.anon_kib,
        search,
        search_source: "standalone replay of the served inputs",
        olt_hit_rate: (
            obs("serve.olt_hit_rate"),
            "obs serve.olt_hit_rate (worker OLT)",
        ),
        lattice: None,
        scorer_us_per_frame: scorer_us,
        gmm_us_per_frame: layers::gmm_replay(system, shared.utts),
        scorer_source: if live {
            "PrecomputedScorer replay (rows pass through)"
        } else {
            "GmmScorer replay over the served features"
        },
        scorer_batch_frames_mean: (obs("serve.score_batch_frames.count") > 0.0)
            .then(|| obs("serve.score_batch_frames.mean")),
        sched: Some(sched),
        bias,
        wire,
        tcp,
        rss_idle_mib: reference.rss_idle_mib,
        rss_per_stream_kib: Some(
            (o.rss_max_mib - reference.rss_idle_mib).max(0.0) * 1024.0 / reference.streams as f64,
        ),
        late_ms_p99: Some((pct_value(late), pct_note(late))),
        self_ms,
    }
}

fn lags(samples: &[(usize, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

/// The tail the quieter windows of a rung show: the tenth percentile
/// over its windows of each window's percentile. Episodes of
/// interference from outside the program (another tenant taking the CPU)
/// spoil some windows of a run and not others; this keeps them from
/// setting the figure. The rung lines print every window too.
fn quiet(samples: &[(usize, f64)], target: f64) -> Option<crate::stats::Pct> {
    windowed_tail(samples, target, 10.0)
}
