//! Per-layer figures, gathered from the program's exported counters
//! (`DecodeStats`, `ServeStats`, `obs_jsonl`, `MetricsSink` kernel
//! phases) and from the benchmark's own spans. Every workload reports
//! the same list; a layer a workload does not exercise reads 0 and says
//! so in its note.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use unfold::System;
use unfold_decoder::{
    AcousticScorer, DecodeStats, FrameInput, GmmScorer, KernelPhase, MetricsSink,
};
use unfold_serve::ClientMsg;

use crate::inputs::{self, Utt, CHUNK};
use crate::report::Report;

/// Search counters summed over many decodes.
#[derive(Debug, Default, Clone)]
pub struct SearchAgg {
    pub frames: u64,
    /// Wall time spent in search calls (seed, ingest, finalize).
    pub search_ns: u64,
    pub tokens_created: u64,
    pub tokens_pruned: u64,
    pub total_active: u64,
    pub lm_lookups: u64,
    pub lm_fetches: u64,
    pub backoff_hops: u64,
    pub preemptive_prunes: u64,
    pub olt_probes: u64,
    pub olt_hits: u64,
    /// Kernel phase nanoseconds, in `KernelPhase::ALL` order.
    pub phase_ns: [u64; 4],
}

impl SearchAgg {
    pub fn add_stats(&mut self, s: &DecodeStats) {
        self.frames += s.frames as u64;
        self.tokens_created += s.tokens_created;
        self.tokens_pruned += s.tokens_pruned;
        self.total_active += s.total_active;
        self.lm_lookups += s.lm_lookups;
        self.lm_fetches += s.lm_fetches;
        self.backoff_hops += s.backoff_hops;
        self.preemptive_prunes += s.preemptive_prunes;
        self.olt_probes += s.olt_probes;
        self.olt_hits += s.olt_hits;
    }

    pub fn add_phases(&mut self, sink: &MetricsSink) {
        for (lane, phase) in KernelPhase::ALL.iter().enumerate() {
            self.phase_ns[lane] += sink.kernel_phases().total_ns(phase.index());
        }
    }

    pub fn merge(&mut self, o: &SearchAgg) {
        self.frames += o.frames;
        self.search_ns += o.search_ns;
        self.tokens_created += o.tokens_created;
        self.tokens_pruned += o.tokens_pruned;
        self.total_active += o.total_active;
        self.lm_lookups += o.lm_lookups;
        self.lm_fetches += o.lm_fetches;
        self.backoff_hops += o.backoff_hops;
        self.preemptive_prunes += o.preemptive_prunes;
        self.olt_probes += o.olt_probes;
        self.olt_hits += o.olt_hits;
        for (a, b) in self.phase_ns.iter_mut().zip(o.phase_ns) {
            *a += b;
        }
    }

    pub fn us_per_frame(&self) -> f64 {
        ratio(self.search_ns as f64 / 1e3, self.frames as f64)
    }
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The scheduler layer as seen from the client calls and the server's
/// own counters, at the reference rung.
#[derive(Debug, Default, Clone)]
pub struct Sched {
    pub ingest_us_p50: f64,
    pub ingest_us_p99: f64,
    pub lock_us_p99: f64,
    /// Share of the client calls' time spent waiting for the core lock.
    pub lock_wait_pct: f64,
    pub wait_ms_p99: f64,
    pub lease_decode_us_p50: f64,
    pub lease_decode_us_p99: f64,
    pub lease_frames_mean: f64,
    pub deadline_misses: f64,
    pub degraded_admissions: f64,
    pub backlog_frames_max: f64,
    pub notes: BTreeMap<&'static str, String>,
}

/// Everything the per-layer section reports; `None` = layer not
/// exercised by this workload.
#[derive(Debug, Default)]
pub struct Layers {
    pub open_ms: f64,
    pub mapped_kib: f64,
    pub anon_kib: f64,
    pub search: SearchAgg,
    pub search_source: &'static str,
    /// Hit rate of the OLT the workload's decodes use, and where from.
    pub olt_hit_rate: (f64, &'static str),
    /// (build ms/utt, N-best + confidence ms/utt, arcs/frame).
    pub lattice: Option<(f64, f64, f64)>,
    pub scorer_us_per_frame: f64,
    pub scorer_source: &'static str,
    /// `GmmScorer` cost per frame on this workload's utterances.
    pub gmm_us_per_frame: f64,
    pub scorer_batch_frames_mean: Option<f64>,
    pub sched: Option<Sched>,
    /// (add µs p99, retire µs p99, personalized share, notes).
    pub bias: Option<(f64, f64, f64, String)>,
    /// (bytes/frame, encode ns/frame, decode ns/frame).
    pub wire: (f64, f64, f64),
    /// (TCP lag p50 ms, p95 ms, overhead over in-process p50 ms, note).
    pub tcp: Option<(f64, f64, f64, String)>,
    pub rss_idle_mib: f64,
    pub rss_per_stream_kib: Option<f64>,
    pub late_ms_p99: Option<(f64, String)>,
    /// Self time per layer, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
}

/// Layers whose self time is compared.
pub const SELF_LAYERS: [&str; 6] = ["search", "lattice", "scorer", "sched", "bias", "wire"];

const NOT_EXERCISED: &str = "not exercised by this workload";

impl Layers {
    pub fn emit(&self, r: &mut Report) {
        r.layer(
            "models.open_ms",
            self.open_ms,
            "ms",
            "median of the set-ups",
        );
        r.layer(
            "models.mapped_kib",
            self.mapped_kib,
            "KiB",
            "resident bundle mapping at the end",
        );
        r.layer(
            "models.anon_kib",
            self.anon_kib,
            "KiB",
            "anonymous RSS growth over the open",
        );

        let s = &self.search;
        let src = self.search_source;
        r.layer("search.us_per_frame", s.us_per_frame(), "us", src);
        let phase_total: u64 = s.phase_ns.iter().sum();
        for (lane, name) in [
            "search.threshold_pct",
            "search.batch_probe_pct",
            "search.expand_pct",
            "search.closure_pct",
        ]
        .iter()
        .enumerate()
        {
            let pct = ratio(100.0 * s.phase_ns[lane] as f64, phase_total as f64);
            r.layer(name, pct, "%", "MetricsSink kernel phases");
        }
        r.layer(
            "search.active_tokens_mean",
            ratio(s.total_active as f64, s.frames as f64),
            "tokens",
            src,
        );
        r.layer(
            "search.token_survival",
            ratio(
                (s.tokens_created - s.tokens_pruned.min(s.tokens_created)) as f64,
                s.tokens_created as f64,
            ),
            "ratio",
            "kept / created",
        );
        r.layer(
            "olt.hit_rate",
            self.olt_hit_rate.0,
            "ratio",
            self.olt_hit_rate.1,
        );
        r.layer(
            "lm.lookups_per_frame",
            ratio(s.lm_lookups as f64, s.frames as f64),
            "lookups",
            src,
        );
        r.layer(
            "lm.fetches_per_lookup",
            ratio(s.lm_fetches as f64, s.lm_lookups as f64),
            "fetches",
            src,
        );
        r.layer(
            "lm.backoff_hops_per_lookup",
            ratio(s.backoff_hops as f64, s.lm_lookups as f64),
            "hops",
            src,
        );
        r.layer(
            "lm.preemptive_prune_ratio",
            ratio(s.preemptive_prunes as f64, s.lm_lookups as f64),
            "ratio",
            "preemptive prunes / lookups",
        );

        let (build, nbest, arcs, note) = match self.lattice {
            Some((b, n, a)) => (b, n, a, "finalize_lattice minus finalize"),
            None => (0.0, 0.0, 0.0, NOT_EXERCISED),
        };
        r.layer("lattice.build_ms_per_utt", build, "ms", note);
        r.layer("lattice.nbest_confidence_ms_per_utt", nbest, "ms", note);
        r.layer("lattice.arcs_per_frame", arcs, "arcs", note);

        r.layer(
            "scorer.us_per_frame",
            self.scorer_us_per_frame,
            "us",
            self.scorer_source,
        );
        r.layer(
            "scorer.gmm_us_per_frame",
            self.gmm_us_per_frame,
            "us",
            "GmmScorer replay over features sampled along this workload's utterances",
        );
        match self.scorer_batch_frames_mean {
            Some(v) => r.layer(
                "scorer.batch_frames_mean",
                v,
                "frames",
                "serve.score_batch_frames",
            ),
            None => r.layer(
                "scorer.batch_frames_mean",
                0.0,
                "frames",
                "not exported (lockstep scoring)",
            ),
        }

        let sched = self.sched.clone().unwrap_or_default();
        let note = |k: &'static str| {
            self.sched.as_ref().map_or(NOT_EXERCISED.to_string(), |s| {
                s.notes.get(k).cloned().unwrap_or_default()
            })
        };
        r.layer(
            "sched.ingest_us_p50",
            sched.ingest_us_p50,
            "us",
            note("ingest_p50"),
        );
        r.layer(
            "sched.ingest_us_p99",
            sched.ingest_us_p99,
            "us",
            note("ingest_p99"),
        );
        r.layer("sched.lock_us_p99", sched.lock_us_p99, "us", note("lock"));
        r.layer(
            "sched.lock_wait_pct",
            sched.lock_wait_pct,
            "%",
            note("lock_wait"),
        );
        r.layer("sched.wait_ms_p99", sched.wait_ms_p99, "ms", note("wait"));
        r.layer(
            "sched.lease_decode_us_p50",
            sched.lease_decode_us_p50,
            "us",
            note("lease"),
        );
        r.layer(
            "sched.lease_decode_us_p99",
            sched.lease_decode_us_p99,
            "us",
            note("lease"),
        );
        r.layer(
            "sched.lease_frames_mean",
            sched.lease_frames_mean,
            "frames",
            note("lease"),
        );
        r.layer(
            "sched.deadline_misses",
            sched.deadline_misses,
            "count",
            note("counts"),
        );
        r.layer(
            "sched.degraded_admissions",
            sched.degraded_admissions,
            "count",
            note("counts"),
        );
        r.layer(
            "sched.backlog_frames_max",
            sched.backlog_frames_max,
            "frames",
            note("backlog"),
        );

        let (add, retire, share, note) = match &self.bias {
            Some((a, b, c, n)) => (*a, *b, *c, n.clone()),
            None => (0.0, 0.0, 0.0, NOT_EXERCISED.to_string()),
        };
        r.layer("bias.add_us_p99", add, "us", note.clone());
        r.layer("bias.retire_us_p99", retire, "us", note.clone());
        r.layer("bias.personalized_share", share, "ratio", note);

        let (bytes, enc, dec) = self.wire;
        r.layer(
            "wire.bytes_per_frame",
            bytes,
            "B",
            "FramesV2, 10-frame chunks of this workload's frames",
        );
        r.layer("wire.encode_ns_per_frame", enc, "ns", "ClientMsg::encode");
        r.layer("wire.decode_ns_per_frame", dec, "ns", "ClientMsg::decode");

        let (p50, p95, over, note) = match &self.tcp {
            Some((a, b, c, n)) => (*a, *b, *c, n.clone()),
            None => (0.0, 0.0, 0.0, NOT_EXERCISED.to_string()),
        };
        r.layer("tcp.partial_lag_p50_ms", p50, "ms", note.clone());
        r.layer("tcp.partial_lag_p95_ms", p95, "ms", note.clone());
        r.layer(
            "tcp.overhead_ms_p50",
            over,
            "ms",
            "TCP-leg lag p50 minus in-process lag p50",
        );

        r.layer(
            "mem.rss_idle_mib",
            self.rss_idle_mib,
            "MiB",
            "after set-up, before load",
        );
        match self.rss_per_stream_kib {
            Some(v) => r.layer(
                "mem.rss_per_stream_kib",
                v,
                "KiB",
                "RSS growth idle -> reference rung, per stream",
            ),
            None => r.layer("mem.rss_per_stream_kib", 0.0, "KiB", NOT_EXERCISED),
        }
        match &self.late_ms_p99 {
            Some((v, n)) => r.layer("loadgen.late_ms_p99", *v, "ms", n.clone()),
            None => r.layer("loadgen.late_ms_p99", 0.0, "ms", NOT_EXERCISED),
        }

        let total: f64 = self.self_ms.values().sum();
        for layer in SELF_LAYERS {
            let ms = self.self_ms.get(layer).copied().unwrap_or(0.0);
            r.layer(
                &format!("selftime.{layer}_pct"),
                ratio(100.0 * ms, total),
                "%",
                format!("{ms:.1} ms of {total:.1} ms"),
            );
        }
    }

    /// The layer with the largest self time.
    pub fn largest(&self) -> &'static str {
        self.self_ms
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or("none", |(k, _)| k)
    }
}

/// Wire cost on this workload's frames: each utterance's first chunk
/// encoded as a `FramesV2` message and decoded back, repeated.
pub fn wire_replay(utts: &[Utt]) -> (f64, f64, f64) {
    let chunks: Vec<Vec<FrameInput>> = utts
        .iter()
        .map(|u| u.frames.iter().take(CHUNK).cloned().collect())
        .collect();
    let msgs: Vec<ClientMsg> = chunks.into_iter().map(ClientMsg::FramesV2).collect();
    let frames: usize = msgs
        .iter()
        .map(|m| match m {
            ClientMsg::FramesV2(f) => f.len(),
            _ => 0,
        })
        .sum();
    const REPS: usize = 20;
    let mut bytes = 0usize;
    let mut encoded = Vec::with_capacity(msgs.len());
    let t = Instant::now();
    for _ in 0..REPS {
        encoded.clear();
        for m in &msgs {
            encoded.push(std::hint::black_box(m.encode()));
        }
    }
    let enc_ns = t.elapsed().as_nanos() as f64;
    for e in &encoded {
        bytes += e.len() + 4;
    }
    let t = Instant::now();
    for _ in 0..REPS {
        for e in &encoded {
            let back = ClientMsg::decode(std::hint::black_box(e)).expect("wire round trip");
            std::hint::black_box(back);
        }
    }
    let dec_ns = t.elapsed().as_nanos() as f64;
    let n = (frames * REPS) as f64;
    (
        ratio(bytes as f64, frames as f64),
        ratio(enc_ns, n),
        ratio(dec_ns, n),
    )
}

/// Frames the `GmmScorer` replay scores.
const GMM_REPLAY_FRAMES: usize = 3000;

/// `GmmScorer` cost per frame (µs) on feature vectors sampled from the
/// feature-scored workload's GMM along `utts`' alignments, so every
/// workload measures the scorer layer on its own utterances.
pub fn gmm_replay(system: &System, utts: &[Utt]) -> f64 {
    let gmm = std::sync::Arc::new(inputs::gmm(system));
    let scorer = GmmScorer::new(std::sync::Arc::clone(&gmm));
    let mut rng = SmallRng::seed_from_u64(0x6A11);
    let frames: Vec<FrameInput> = utts
        .iter()
        .flat_map(|u| u.alignment.iter())
        .take(GMM_REPLAY_FRAMES)
        .map(|&pdf| FrameInput::Features(gmm.sample_frame(pdf, &mut rng)))
        .collect();
    let mut row = Vec::new();
    let t = Instant::now();
    for f in &frames {
        scorer
            .score_into(f, &mut row)
            .expect("features match the GMM");
        std::hint::black_box(&row);
    }
    ratio(t.elapsed().as_secs_f64() * 1e6, frames.len() as f64)
}
