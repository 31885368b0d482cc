//! Machine-readable decode-throughput benchmark.
//!
//! `cargo bench --bench decode_throughput` finishes by measuring the
//! software decode hot path end to end and writing the numbers as JSON
//! (default `BENCH_decode.json`, override with `UNFOLD_BENCH_JSON`).
//! Unlike the per-figure Markdown tables, this file is meant for
//! machines: CI trend lines and before/after comparisons in PRs.
//!
//! Four configurations are measured on the same utterance batch:
//!
//! * **naive** — fresh working memory per utterance, software OLT off,
//!   the scalar reference search (the decode path as it was before the
//!   zero-alloc refactor and the SoA kernel),
//! * **optimized, single thread** — one warm [`DecodeScratch`] reused
//!   across utterances, the software OLT, and the SoA frame kernel,
//! * **legacy-kernel optimized** — identical to the above but through
//!   the scalar reference search ([`reference_decode`]) on the same warm
//!   scratch, timed in the *same* repetition so the
//!   `kernel_speedup` ratio is immune to machine-speed drift,
//! * **optimized, multi-worker** — the utterance-parallel pool across
//!   a cores-aware worker ladder (`{1, 2, 4}` ∪ powers of two up to
//!   the core count ∪ the core count itself); points with
//!   `jobs > cores` measure scheduler thrash, not the pool, so they
//!   are skipped and listed in `skipped_oversubscribed` instead of
//!   being reported as if they meant something.
//!
//! [`measure_lattice`] adds a fifth, run as its own interleaved pair:
//!
//! * **lattice** — the optimized configuration with the expansion tape
//!   on: one lattice session per utterance, finalized to a word lattice
//!   that then yields an 8-best list and the best path's per-word
//!   confidences (the job of the repo benchmark's `offline_lattice`
//!   workload), timed against the optimized decode in the same
//!   repetitions, so `lattice_cost_ratio` is drift-immune too.
//!
//! All configurations produce bit-identical transcripts (pinned by
//! tests and asserted again here); only the wall clock may differ.

use std::time::Instant;

use unfold::{decode_batch, System, TaskSpec};
use unfold_am::Utterance;
use unfold_decoder::{
    reference_decode, DecodeConfig, DecodeResult, DecodeScratch, NullSink, OtfDecoder,
    StreamSession, WorkScratch,
};

/// Software-OLT capacity used by the optimized configurations. The
/// paper's hardware table holds 32K entries (Fig 7); the software memo
/// has no SRAM budget, so it simply matches that.
pub const BENCH_OLT_ENTRIES: usize = 32 * 1024;

/// Hypotheses per N-best list in the lattice configuration.
pub const BENCH_NBEST: usize = 8;

/// What a lattice with N-best and confidence costs on top of the
/// optimized single-thread decode.
#[derive(Debug, Clone, Copy)]
pub struct LatticeCost {
    /// Frames/sec of the lattice configuration: the optimized decode
    /// plus tape recording, lattice build, 8-best and best-path
    /// confidences.
    pub frames_per_sec: f64,
    /// Its wall time over the optimized decode's, both timed in the
    /// same repetitions.
    pub cost_ratio: f64,
}

/// Throughput of one worker-count configuration.
#[derive(Debug, Clone)]
pub struct JobsPoint {
    /// Worker count.
    pub jobs: usize,
    /// Decoded frames per wall-clock second.
    pub frames_per_sec: f64,
    /// Speedup over the `jobs = 1` point.
    pub speedup: f64,
    /// Pool occupancy (1.0 = every worker busy the whole batch).
    pub occupancy: f64,
}

/// The full decode-throughput report.
#[derive(Debug, Clone)]
pub struct DecodeBenchReport {
    /// Task preset the batch came from.
    pub task: String,
    /// Hardware threads available on the measuring machine — read this
    /// before judging the `jobs` scaling numbers.
    pub cores: usize,
    /// Utterances in the batch.
    pub utterances: usize,
    /// Frames in the batch.
    pub frames: usize,
    /// Audio seconds in the batch.
    pub audio_seconds: f64,
    /// Frames/sec with fresh scratch per utterance, the OLT off, and
    /// the legacy kernel.
    pub naive_frames_per_sec: f64,
    /// Frames/sec with warm scratch + OLT + SoA kernel, single thread.
    pub frames_per_sec: f64,
    /// Frames/sec of the legacy-kernel twin of the optimized
    /// configuration (warm scratch + OLT, scalar loops), timed in the
    /// same repetitions as `frames_per_sec`.
    pub legacy_frames_per_sec: f64,
    /// `frames_per_sec / naive_frames_per_sec`.
    pub single_thread_speedup: f64,
    /// `frames_per_sec / legacy_frames_per_sec` — the SoA kernel's
    /// isolated contribution, drift-immune because both sides were
    /// interleaved within each repetition.
    pub kernel_speedup: f64,
    /// The lattice configuration, when measured ([`measure_lattice`];
    /// JSON `lattice_frames_per_sec` and `lattice_cost_ratio`, `null`
    /// when absent).
    pub lattice: Option<LatticeCost>,
    /// Real-time factor of the optimized single-thread configuration
    /// (audio seconds decoded per wall second).
    pub rtf: f64,
    /// Software-OLT probes issued in the optimized run.
    pub olt_probes: u64,
    /// Software-OLT hit rate in the optimized run; `None` (JSON
    /// `null`) when the run issued zero probes — a 0-probe run has no
    /// hit rate, and reporting `0.0` would read as "probed and always
    /// missed".
    pub olt_hit_rate: Option<f64>,
    /// Scaling across worker counts that fit this machine
    /// (`jobs <= cores`, plus `jobs = 1` always).
    pub jobs: Vec<JobsPoint>,
    /// Worker counts *not* measured because they exceed the machine's
    /// cores — an oversubscribed pool benchmarks the OS scheduler, not
    /// the decoder.
    pub skipped_oversubscribed: Vec<usize>,
}

impl DecodeBenchReport {
    /// Serializes the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"decode_throughput\",\n");
        s.push_str(&format!("  \"task\": \"{}\",\n", self.task));
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!("  \"utterances\": {},\n", self.utterances));
        s.push_str(&format!("  \"frames\": {},\n", self.frames));
        s.push_str(&format!(
            "  \"audio_seconds\": {:.6},\n",
            self.audio_seconds
        ));
        s.push_str(&format!(
            "  \"naive_frames_per_sec\": {:.1},\n",
            self.naive_frames_per_sec
        ));
        s.push_str(&format!(
            "  \"frames_per_sec\": {:.1},\n",
            self.frames_per_sec
        ));
        s.push_str(&format!(
            "  \"legacy_frames_per_sec\": {:.1},\n",
            self.legacy_frames_per_sec
        ));
        s.push_str(&format!(
            "  \"single_thread_speedup\": {:.3},\n",
            self.single_thread_speedup
        ));
        s.push_str(&format!(
            "  \"kernel_speedup\": {:.3},\n",
            self.kernel_speedup
        ));
        match self.lattice {
            Some(l) => s.push_str(&format!(
                "  \"lattice_frames_per_sec\": {:.1},\n  \"lattice_cost_ratio\": {:.3},\n",
                l.frames_per_sec, l.cost_ratio
            )),
            None => {
                s.push_str("  \"lattice_frames_per_sec\": null,\n  \"lattice_cost_ratio\": null,\n")
            }
        }
        s.push_str(&format!("  \"rtf\": {:.1},\n", self.rtf));
        s.push_str(&format!("  \"olt_probes\": {},\n", self.olt_probes));
        match self.olt_hit_rate {
            Some(rate) => s.push_str(&format!("  \"olt_hit_rate\": {rate:.4},\n")),
            None => s.push_str("  \"olt_hit_rate\": null,\n"),
        }
        s.push_str(&format!("  \"olt_entries\": {},\n", BENCH_OLT_ENTRIES));
        s.push_str("  \"jobs\": [\n");
        for (i, p) in self.jobs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"jobs\": {}, \"frames_per_sec\": {:.1}, \"speedup\": {:.3}, \"occupancy\": {:.3}}}{}\n",
                p.jobs,
                p.frames_per_sec,
                p.speedup,
                p.occupancy,
                if i + 1 < self.jobs.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"skipped_oversubscribed\": [{}]\n",
            self.skipped_oversubscribed
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("}\n");
        s
    }
}

/// The worker-count ladder for the jobs scaling curve: the historical
/// `{1, 2, 4}` floor, every power of two up to the machine's core
/// count, and the core count itself — so the curve always ends at full
/// hardware width instead of stopping at whatever constant was wired
/// in when the bench was written.
pub fn jobs_candidates(cores: usize) -> Vec<usize> {
    let cores = cores.max(1);
    let mut c = vec![1usize, 2, 4];
    let mut p = 8usize;
    while p <= cores {
        c.push(p);
        p *= 2;
    }
    c.push(cores);
    c.sort_unstable();
    c.dedup();
    c
}

/// Median of a sample set (destructive).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Measures decode throughput on `utts` with `reps` timed repetitions
/// per configuration (median taken).
///
/// All configurations are timed **strictly interleaved** within each
/// repetition — the same discipline `examples/obs_overhead.rs` uses —
/// so slow machine-speed drift (this box swings ±15% over minutes)
/// hits every configuration equally instead of biasing whichever block
/// ran during the slow stretch.
pub fn measure(system: &System, utts: &[Utterance], reps: usize) -> DecodeBenchReport {
    let reps = reps.max(1);
    let frames: usize = utts.iter().map(|u| u.scores.num_frames()).sum();
    let audio_seconds: f64 = utts.iter().map(|u| u.audio_seconds()).sum();

    // Naive: the pre-optimization shape — fresh scratch, OLT off,
    // scalar reference search.
    let naive_cfg = DecodeConfig::default();
    let naive = |u: &Utterance| -> DecodeResult {
        let (res, _) = reference_decode(
            &naive_cfg,
            &system.am_comp,
            &system.lm_comp,
            &u.scores,
            &mut DecodeScratch::new(),
            false,
            &mut NullSink,
        );
        res
    };
    let naive_words: Vec<Vec<u32>> = utts.iter().map(|u| naive(u).words).collect();

    // Optimized: warm scratch + software OLT + SoA kernel.
    let opt_cfg = DecodeConfig::builder()
        .olt_entries(BENCH_OLT_ENTRIES)
        .build()
        .expect("valid bench config");
    let opt_dec = OtfDecoder::new(opt_cfg);
    // The optimized configuration's scalar-reference twin on the same
    // warm scratch, timed in the same repetitions so kernel_speedup
    // cancels machine-speed drift.
    let legacy = |u: &Utterance, scratch: &mut DecodeScratch| -> DecodeResult {
        let (res, _) = reference_decode(
            &opt_cfg,
            &system.am_comp,
            &system.lm_comp,
            &u.scores,
            scratch,
            false,
            &mut NullSink,
        );
        res
    };
    let mut scratch = DecodeScratch::new();
    let mut olt_probes = 0u64;
    let mut olt_hits = 0u64;
    for (u, naive) in utts.iter().zip(&naive_words) {
        let r = opt_dec.decode_with(
            &system.am_comp,
            &system.lm_comp,
            &u.scores,
            &mut scratch,
            &mut NullSink,
        );
        assert_eq!(r.words, *naive, "optimizations must not change output");
        let l = legacy(u, &mut scratch);
        assert_eq!(l.words, *naive, "kernels must not change output");
        olt_probes += r.stats.olt_probes;
        olt_hits += r.stats.olt_hits;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let candidates = jobs_candidates(cores);
    // An oversubscribed pool (jobs > cores) time-slices workers on the
    // same core and measures the OS scheduler, not the decoder — its
    // "speedup" is noise below 1.0. Record those points as skipped
    // rather than publishing misleading numbers.
    let measured: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&j| j <= cores.max(1))
        .collect();
    let skipped: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&j| j > cores.max(1))
        .collect();
    let mut naive_samples = Vec::with_capacity(reps);
    let mut opt_samples = Vec::with_capacity(reps);
    let mut legacy_samples = Vec::with_capacity(reps);
    let mut jobs_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); measured.len()];
    let mut occupancies = vec![0.0f64; measured.len()];
    for _ in 0..reps {
        let t0 = Instant::now();
        for u in utts {
            naive(u);
        }
        naive_samples.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for u in utts {
            opt_dec.decode_with(
                &system.am_comp,
                &system.lm_comp,
                &u.scores,
                &mut scratch,
                &mut NullSink,
            );
        }
        opt_samples.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for u in utts {
            legacy(u, &mut scratch);
        }
        legacy_samples.push(t0.elapsed().as_secs_f64());

        for (ji, &jobs) in measured.iter().enumerate() {
            let t0 = Instant::now();
            let (_, pool) = decode_batch(utts, jobs, |_i, u, scratch| {
                opt_dec.decode_with(
                    &system.am_comp,
                    &system.lm_comp,
                    &u.scores,
                    scratch,
                    &mut NullSink,
                )
            });
            jobs_samples[ji].push(t0.elapsed().as_secs_f64());
            occupancies[ji] = pool.occupancy();
        }
    }
    let naive_secs = median(naive_samples);
    let opt_secs = median(opt_samples);
    let legacy_secs = median(legacy_samples);

    let mut jobs_points = Vec::new();
    let mut serial_fps = 0.0;
    for (ji, &jobs) in measured.iter().enumerate() {
        let fps = frames as f64 / median(std::mem::take(&mut jobs_samples[ji]));
        if jobs == 1 {
            serial_fps = fps;
        }
        jobs_points.push(JobsPoint {
            jobs,
            frames_per_sec: fps,
            speedup: fps / serial_fps,
            occupancy: occupancies[ji],
        });
    }

    DecodeBenchReport {
        task: system.spec.name.to_string(),
        cores,
        utterances: utts.len(),
        frames,
        audio_seconds,
        naive_frames_per_sec: frames as f64 / naive_secs,
        frames_per_sec: frames as f64 / opt_secs,
        legacy_frames_per_sec: frames as f64 / legacy_secs,
        single_thread_speedup: naive_secs / opt_secs,
        kernel_speedup: legacy_secs / opt_secs,
        lattice: None,
        rtf: audio_seconds / opt_secs,
        olt_probes,
        olt_hit_rate: if olt_probes > 0 {
            Some(olt_hits as f64 / olt_probes as f64)
        } else {
            None
        },
        jobs: jobs_points,
        skipped_oversubscribed: skipped,
    }
}

/// Measures the lattice configuration on `utts` against the optimized
/// decode, the two timed strictly interleaved within each of `reps`
/// repetitions (median taken). It runs apart from [`measure`]: lattice
/// sessions grow the heap in bursts, which in-process RSS probes running
/// alongside a quick `measure` would misread as their own.
pub fn measure_lattice(system: &System, utts: &[Utterance], reps: usize) -> LatticeCost {
    let reps = reps.max(1);
    let frames: usize = utts.iter().map(|u| u.scores.num_frames()).sum();
    let cfg = DecodeConfig::builder()
        .olt_entries(BENCH_OLT_ENTRIES)
        .build()
        .expect("valid bench config");
    let dec = OtfDecoder::new(cfg);
    let mut scratch = DecodeScratch::new();
    let mut decode = |u: &Utterance| -> Vec<u32> {
        dec.decode_with(
            &system.am_comp,
            &system.lm_comp,
            &u.scores,
            &mut scratch,
            &mut NullSink,
        )
        .words
    };
    // One lattice session per utterance on a warm worker scratch,
    // finalized, then N-best and confidences.
    let mut work = WorkScratch::new();
    let mut lattice = |u: &Utterance| -> Vec<u32> {
        work.begin(&cfg);
        let mut session = StreamSession::new(cfg);
        session.enable_lattice();
        session.seed(&system.am_comp, &system.lm_comp, &mut work, &mut NullSink);
        for t in 0..u.scores.num_frames() {
            session.push_frame(
                &system.am_comp,
                &system.lm_comp,
                &mut work,
                u.scores.frame(t),
                &mut NullSink,
            );
        }
        let (res, lat) = session.finalize_lattice(&system.am_comp, &mut NullSink);
        std::hint::black_box(lat.nbest(BENCH_NBEST));
        std::hint::black_box(lat.best_path_detail());
        res.words
    };
    for u in utts {
        assert_eq!(
            lattice(u),
            decode(u),
            "lattice recording must not change output"
        );
    }
    let mut decode_samples = Vec::with_capacity(reps);
    let mut lattice_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for u in utts {
            decode(u);
        }
        decode_samples.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for u in utts {
            lattice(u);
        }
        lattice_samples.push(t0.elapsed().as_secs_f64());
    }
    let lattice_secs = median(lattice_samples);
    LatticeCost {
        frames_per_sec: frames as f64 / lattice_secs,
        cost_ratio: lattice_secs / median(decode_samples),
    }
}

/// Measures the default configuration: the `UNFOLD_BENCH_TASK` preset
/// (default `tedlium`, the paper's headline task — its LM binary
/// search is deep enough for the OLT and warm scratch to matter;
/// `tiny` is available for smoke runs), [`crate::utterance_count`]
/// utterances, `UNFOLD_BENCH_REPS` timed repetitions (default 30).
pub fn measure_default() -> DecodeBenchReport {
    let task = std::env::var("UNFOLD_BENCH_TASK").unwrap_or_else(|_| "tedlium".into());
    let spec = match task.as_str() {
        "tedlium" => TaskSpec::tedlium_kaldi(),
        "librispeech" => TaskSpec::librispeech(),
        "voxforge" => TaskSpec::voxforge(),
        "eesen" => TaskSpec::tedlium_eesen(),
        _ => TaskSpec::tiny(),
    };
    let system = System::build(&spec);
    let utts = system.test_utterances(crate::utterance_count());
    let reps = std::env::var("UNFOLD_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    DecodeBenchReport {
        lattice: Some(measure_lattice(&system, &utts, reps)),
        ..measure(&system, &utts, reps)
    }
}

/// Output path: `UNFOLD_BENCH_JSON`, or `BENCH_decode.json` at the
/// workspace root (cargo runs benches with the package directory as
/// CWD, so a bare relative path would land in `crates/bench/`).
pub fn default_path() -> String {
    std::env::var("UNFOLD_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_decode.json", env!("CARGO_MANIFEST_DIR")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_measures_and_serializes() {
        let system = System::build(&TaskSpec::tiny());
        let utts = system.test_utterances(2);
        let report = measure(&system, &utts, 2);
        assert!(report.frames_per_sec > 0.0);
        assert!(report.naive_frames_per_sec > 0.0);
        assert!(report.legacy_frames_per_sec > 0.0);
        assert!(report.kernel_speedup > 0.0);
        assert!(report.rtf > 0.0);
        assert!(report.olt_probes > 0, "tiny task must probe the OLT");
        assert!(
            report.olt_hit_rate.expect("probes > 0 means a rate") > 0.0,
            "tiny task must hit the OLT"
        );
        // Every candidate jobs point is either measured or listed as
        // skipped-oversubscribed; jobs=1 is always measured.
        assert_eq!(
            report.jobs.len() + report.skipped_oversubscribed.len(),
            jobs_candidates(report.cores).len()
        );
        assert_eq!(report.jobs[0].jobs, 1);
        assert!((report.jobs[0].speedup - 1.0).abs() < 1e-9);
        for p in &report.jobs {
            assert!(
                p.jobs == 1 || p.jobs <= report.cores,
                "oversubscribed point jobs={} on {} cores must be skipped",
                p.jobs,
                report.cores
            );
        }
        for &j in &report.skipped_oversubscribed {
            assert!(j > report.cores);
        }
        let json = report.to_json();
        for key in [
            "\"cores\"",
            "\"frames_per_sec\"",
            "\"legacy_frames_per_sec\"",
            "\"kernel_speedup\"",
            "\"rtf\"",
            "\"olt_probes\"",
            "\"olt_hit_rate\"",
            "\"single_thread_speedup\"",
            "\"jobs\": [",
            "\"skipped_oversubscribed\": [",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn zero_probe_runs_report_null_hit_rate() {
        // A 0-probe run has no hit rate: the JSON must carry `null`
        // plus the probe count, never a misleading `0.0`.
        let report = DecodeBenchReport {
            task: "tiny".into(),
            cores: 1,
            utterances: 0,
            frames: 0,
            audio_seconds: 0.0,
            naive_frames_per_sec: 0.0,
            frames_per_sec: 0.0,
            legacy_frames_per_sec: 0.0,
            single_thread_speedup: 1.0,
            kernel_speedup: 1.0,
            lattice: None,
            rtf: 0.0,
            olt_probes: 0,
            olt_hit_rate: None,
            jobs: Vec::new(),
            skipped_oversubscribed: Vec::new(),
        };
        let json = report.to_json();
        assert!(json.contains("\"olt_hit_rate\": null"), "{json}");
        assert!(json.contains("\"olt_probes\": 0"), "{json}");
        // An unmeasured lattice configuration reads null too.
        assert!(json.contains("\"lattice_frames_per_sec\": null"), "{json}");
        assert!(json.contains("\"lattice_cost_ratio\": null"), "{json}");
    }

    #[test]
    fn jobs_ladder_is_cores_aware() {
        assert_eq!(jobs_candidates(1), vec![1, 2, 4]);
        assert_eq!(jobs_candidates(4), vec![1, 2, 4]);
        assert_eq!(jobs_candidates(6), vec![1, 2, 4, 6]);
        assert_eq!(jobs_candidates(8), vec![1, 2, 4, 8]);
        assert_eq!(jobs_candidates(12), vec![1, 2, 4, 8, 12]);
        assert_eq!(jobs_candidates(16), vec![1, 2, 4, 8, 16]);
    }
}
