//! `offline_lattice`: batch transcription with confidence. Every
//! utterance is seeded, fed all its frames, finalized to a word lattice,
//! and gets an N-best list plus per-word confidence — the job of
//! `unfold-cli decode --confidence --nbest` — on one decode thread per
//! core, with no serve layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use unfold::Models;
use unfold_decoder::{
    wer, DecodeConfig, MetricsSink, NullSink, PrecomputedScorer, StreamSession, TraceSink,
    WerReport, WorkScratch,
};

use crate::host;
use crate::inputs::{self, Utt, CHUNK, FRAME_RATE};
use crate::layers::{self, Layers, SearchAgg};
use crate::report::{pct_note, pct_value, Report};
use crate::stats::tail;
use crate::trace::{self, Span, Tracer};
use crate::Ctx;

/// Distinct utterances the batch cycles through.
const POOL: usize = 384;

/// Hypotheses per N-best list.
const NBEST: usize = 8;

#[derive(Default)]
struct ThreadOut {
    frames: u64,
    utts: u64,
    mismatches: u64,
    /// Decodes that reached no final state.
    incomplete: u64,
    chunk_ms: Vec<f64>,
    final_ms: Vec<f64>,
    /// Transcript of each pool utterance the thread decoded.
    words: BTreeMap<usize, Vec<u32>>,
    search: SearchAgg,
    lattice_arcs: u64,
    spans: Vec<Span>,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let utts = inputs::utterances(&ctx.system, POOL, ctx.seed, None);
    let anon_before = host::status_kib("RssAnon");
    let (models, setup_s) = ctx.open_models();
    let anon_kib = host::status_kib("RssAnon").saturating_sub(anon_before) as f64;
    let rss_idle = host::rss_mib();
    let width = ctx.system.am.num_pdfs;

    // A seeded shuffle of the pool, cycled: every utterance is decoded
    // once before any repeats.
    let mut order_rng = SmallRng::seed_from_u64(inputs::mix(ctx.seed, 2));
    let mut order: Vec<usize> = (0..POOL).collect();
    for i in (1..POOL).rev() {
        order.swap(i, order_rng.gen_range(0..=i));
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|_| {
                let (models, utts, order, next) = (&models, &utts, &order, &next);
                scope.spawn(move || worker(ctx, models, utts, order, next, deadline, width))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("decode thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let peak = host::peak_rss_mib();

    let frames: u64 = outs.iter().map(|o| o.frames).sum();
    let n_utts: u64 = outs.iter().map(|o| o.utts).sum();
    let mismatches: u64 = outs.iter().map(|o| o.mismatches).sum();
    let incomplete: u64 = outs.iter().map(|o| o.incomplete).sum();
    let chunk_ms: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.chunk_ms.iter().copied())
        .collect();
    let final_ms: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.final_ms.iter().copied())
        .collect();
    let mut search = SearchAgg::default();
    let mut words = BTreeMap::new();
    for o in &outs {
        search.merge(&o.search);
        words.extend(o.words.iter().map(|(u, w)| (*u, w)));
    }
    // Word error rate over the distinct utterances decoded (decodes are
    // deterministic, so repeats would only reweight them).
    let mut wer_all = WerReport::default();
    for (u, w) in &words {
        wer_all.accumulate(wer(&utts[*u].words, w));
    }
    let fps = frames as f64 / wall;

    r.correct = mismatches == 0 && n_utts > 0;
    r.attempted = n_utts;
    r.failed = mismatches;
    r.detail(format!(
        "offline_lattice: {n_utts} utterances, {frames} frames in {wall:.3} s on {} threads; \
         {mismatches} lattice best paths differ from the 1-best; \
         {incomplete} decodes reached no final state (empty transcripts, counted in the WER)",
        ctx.threads
    ));
    r.detail(format!("offline_frames_per_s = {fps:.1} frames/s"));
    r.e2e("setup_s", setup_s, "s", "median of the model opens");
    r.e2e(
        "capacity_streams",
        fps / FRAME_RATE,
        "streams",
        format!("offline_frames_per_s {fps:.0} / {FRAME_RATE} frames per stream-second"),
    );
    let lag50 = tail(&chunk_ms, 50.0);
    let lag99 = tail(&chunk_ms, 99.0);
    r.latency(
        "partial_lag_p50_ms",
        pct_value(lag50),
        format!("10-frame chunk decode, {}", pct_note(lag50)),
    );
    r.latency(
        "partial_lag_p99_ms",
        pct_value(lag99),
        format!("10-frame chunk decode, {}", pct_note(lag99)),
    );
    let fin50 = tail(&final_ms, 50.0);
    let fin99 = tail(&final_ms, 99.0);
    r.latency(
        "final_p50_ms",
        pct_value(fin50),
        format!("utterance to N-best + confidence, {}", pct_note(fin50)),
    );
    r.latency(
        "final_p99_ms",
        pct_value(fin99),
        format!("utterance to N-best + confidence, {}", pct_note(fin99)),
    );
    r.e2e(
        "wer_pct",
        wer_all.percent(),
        "%",
        format!(
            "{} utterances, {} reference words",
            words.len(),
            wer_all.ref_words
        ),
    );
    r.e2e("peak_rss_mib", peak, "MiB", "VmHWM over the workload");

    if ctx.trace {
        let spans: Vec<Vec<Span>> = outs.iter().map(|o| o.spans.clone()).collect();
        let mut self_ns = BTreeMap::new();
        for t in &spans {
            trace::self_time_ns(t, &mut self_ns);
        }
        let finalize = trace::durations_us(&spans, "decoder.finalize");
        let fin_lat = trace::durations_us(&spans, "decoder.finalize_lattice");
        let nbest = trace::durations_us(&spans, "lattice.nbest");
        let conf = trace::durations_us(&spans, "lattice.best_path_detail");
        let per_utt = |v: &[f64]| v.iter().sum::<f64>() / 1e3 / n_utts.max(1) as f64;
        let build_ms = per_utt(&fin_lat) - per_utt(&finalize);
        let nbest_ms = per_utt(&nbest) + per_utt(&conf);
        let arcs: u64 = outs.iter().map(|o| o.lattice_arcs).sum();
        let ms = |k: &str| self_ns.get(k).copied().unwrap_or(0) as f64 / 1e6;
        // finalize_lattice runs the finalize backtrace before the build:
        // that share is search, the rest lattice. The separate finalize
        // call is a probe of the traced run and is not counted itself.
        let fin_ms: f64 = finalize.iter().sum::<f64>() / 1e3;
        let scorer_us = scorer_replay(&utts, width);
        let scorer_ms = scorer_us * frames as f64 / 1e3;
        let mut self_ms = BTreeMap::new();
        self_ms.insert(
            "search",
            ms("decoder.seed") + ms("decoder.ingest_frame") - scorer_ms + fin_ms,
        );
        self_ms.insert(
            "lattice",
            ms("decoder.finalize_lattice") - fin_ms
                + ms("lattice.nbest")
                + ms("lattice.best_path_detail"),
        );
        self_ms.insert("scorer", scorer_ms);
        let layers = Layers {
            open_ms: setup_s * 1e3,
            mapped_kib: host::mapped_kib(&ctx.bundle) as f64,
            anon_kib,
            search: search.clone(),
            search_source: "decoder spans + DecodeStats of the batch",
            olt_hit_rate: (
                layers::ratio(search.olt_hits as f64, search.olt_probes as f64),
                "DecodeStats (decoder OLT is off by default)",
            ),
            lattice: Some((
                build_ms,
                nbest_ms,
                layers::ratio(arcs as f64, frames as f64),
            )),
            scorer_us_per_frame: scorer_us,
            scorer_source: "PrecomputedScorer replay over the batch's frames",
            gmm_us_per_frame: layers::gmm_replay(&ctx.system, &utts),
            scorer_batch_frames_mean: None,
            sched: None,
            bias: None,
            wire: layers::wire_replay(&utts),
            tcp: None,
            rss_idle_mib: rss_idle,
            rss_per_stream_kib: None,
            late_ms_p99: None,
            self_ms,
        };
        layers.emit(&mut r);
        r.detail(format!("largest self time: {}", layers.largest()));
        ctx.write_spans(&spans);
    }
    r
}

fn worker(
    ctx: &Ctx,
    models: &Models,
    utts: &[Utt],
    order: &[usize],
    next: &AtomicUsize,
    deadline: Instant,
    width: usize,
) -> ThreadOut {
    let (am, lm) = (models.am(), models.default_lm());
    let scorer = PrecomputedScorer::new(width);
    let mut work = WorkScratch::new();
    let mut out = ThreadOut::default();
    let mut tr = Tracer::new(ctx.trace, ctx.origin);
    let mut metrics = MetricsSink::with_frame_capacity(16);
    let mut null = NullSink;
    while Instant::now() < deadline {
        let id = next.fetch_add(1, Ordering::Relaxed);
        let pool_idx = order[id % order.len()];
        let utt = &utts[pool_idx];
        let sink: &mut dyn TraceSink = if ctx.trace { &mut metrics } else { &mut null };
        let started = Instant::now();
        tr.begin("utt", id as u64);
        let mut s = StreamSession::new(DecodeConfig::default());
        s.enable_lattice();
        let t = Instant::now();
        tr.time("decoder.seed", id as u64, || {
            s.seed(am, lm, &mut work, sink)
        });
        for chunk in utt.frames.chunks(CHUNK) {
            let c = Instant::now();
            for f in chunk {
                tr.time("decoder.ingest_frame", id as u64, || {
                    s.ingest_frame(am, lm, &scorer, &mut work, f, sink)
                })
                .expect("score rows match the model");
            }
            out.chunk_ms.push(c.elapsed().as_secs_f64() * 1e3);
        }
        out.search.search_ns += t.elapsed().as_nanos() as u64;
        if ctx.trace {
            tr.time("decoder.finalize", id as u64, || s.finalize(am, sink));
        }
        let (res, lattice) = tr.time("decoder.finalize_lattice", id as u64, || {
            s.finalize_lattice(am, sink)
        });
        let nbest = tr.time("lattice.nbest", id as u64, || lattice.nbest(NBEST));
        let detail = tr.time("lattice.best_path_detail", id as u64, || {
            lattice.best_path_detail()
        });
        tr.end();
        out.final_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let best: Vec<u32> = detail.iter().map(|h| h.word).collect();
        let top = nbest.first().map(|(w, _)| w.as_slice());
        // A decode that reaches no final state (pruning lost every path
        // to one) has an empty transcript, and its lattice no path.
        let agrees = if res.is_complete() {
            best == res.words && top == Some(res.words.as_slice())
        } else {
            out.incomplete += 1;
            best.is_empty() && top.is_none() && res.words.is_empty()
        };
        if !agrees {
            out.mismatches += 1;
        }
        out.lattice_arcs += lattice.num_arcs() as u64;
        out.search.add_stats(&res.stats);
        out.words.entry(pool_idx).or_insert(res.words);
        out.frames += utt.num_frames() as u64;
        out.utts += 1;
    }
    if ctx.trace {
        out.search.add_phases(&metrics);
    }
    out.spans = tr.into_spans();
    out
}

/// Passthrough scoring cost per frame (µs) over `utts`' frames.
pub fn scorer_replay(utts: &[Utt], width: usize) -> f64 {
    use unfold_decoder::AcousticScorer;
    let scorer = PrecomputedScorer::new(width);
    let mut row = Vec::new();
    let mut n = 0u64;
    let t = Instant::now();
    for _ in 0..4 {
        for f in utts.iter().flat_map(|u| &u.frames) {
            scorer
                .score_into(f, &mut row)
                .expect("score rows match the model");
            std::hint::black_box(&row);
            n += 1;
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}
