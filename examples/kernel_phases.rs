//! Per-phase timing of the SoA frame kernel, plus an interleaved A/B
//! against the scalar reference search over the same batch — the
//! runnable companion to DESIGN.md §13.
//!
//! The kernel reports `threshold` / `batch_probe` / `expand` /
//! `closure` durations through `TraceSink::kernel_phase`, but only to
//! sinks that ask (`wants_kernel_timing`). This example decodes a task
//! preset under a `MetricsSink`, prints where the frame budget goes,
//! then times the production kernel and the reference search
//! interleaved (rep-by-rep, so machine-speed drift cancels) with a
//! `NullSink` to show the timing-free hot path.
//!
//! ```bash
//! cargo run --release -p unfold-examples --bin kernel_phases
//! UNFOLD_TASK=tiny cargo run --release -p unfold-examples --bin kernel_phases
//! ```

use std::time::Instant;

use unfold::{System, TaskSpec};
use unfold_decoder::{
    reference_decode, DecodeConfig, DecodeScratch, MetricsSink, NullSink, OtfDecoder,
};

fn main() {
    let task = std::env::var("UNFOLD_TASK").unwrap_or_else(|_| "tedlium".into());
    let spec = match task.as_str() {
        "tedlium" => TaskSpec::tedlium_kaldi(),
        "librispeech" => TaskSpec::librispeech(),
        "voxforge" => TaskSpec::voxforge(),
        "eesen" => TaskSpec::tedlium_eesen(),
        _ => TaskSpec::tiny(),
    };
    println!("building {} ...", spec.name);
    let system = System::build(&spec);
    let utts = system.test_utterances(8);
    let frames: usize = utts.iter().map(|u| u.scores.num_frames()).sum();

    let config = DecodeConfig::builder()
        .olt_entries(32 * 1024)
        .build()
        .expect("valid config");
    let soa = OtfDecoder::new(config);
    let mut scratch = DecodeScratch::new();

    // Phase breakdown: a MetricsSink answers `wants_kernel_timing`, so
    // the kernel reads the clock around each phase.
    let mut sink = MetricsSink::new();
    for u in &utts {
        soa.decode_with(
            &system.am_comp,
            &system.lm_comp,
            &u.scores,
            &mut scratch,
            &mut sink,
        );
    }
    let total_ns: u64 = sink
        .kernel_phases()
        .stats()
        .iter()
        .map(|s| s.total_ns)
        .sum();
    println!("\nSoA kernel phase breakdown ({frames} frames):");
    for s in sink.kernel_phases().stats() {
        println!(
            "  {:<12} {:>9.3} ms  ({:>5.1}%)  {:>7} calls  {:>6} ns/call",
            s.name,
            s.total_ns as f64 / 1e6,
            100.0 * s.total_ns as f64 / total_ns.max(1) as f64,
            s.count,
            s.mean_ns(),
        );
    }

    // Interleaved A/B with a NullSink (no phase clocks): the honest
    // kernel-vs-kernel ratio, immune to machine-speed drift.
    let reps: usize = std::env::var("UNFOLD_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let mut soa_s = Vec::with_capacity(reps);
    let mut reference_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for u in &utts {
            soa.decode_with(
                &system.am_comp,
                &system.lm_comp,
                &u.scores,
                &mut scratch,
                &mut NullSink,
            );
        }
        soa_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for u in &utts {
            reference_decode(
                &config,
                &system.am_comp,
                &system.lm_comp,
                &u.scores,
                &mut scratch,
                false,
                &mut NullSink,
            );
        }
        reference_s.push(t0.elapsed().as_secs_f64());
    }
    let med = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let (soa_m, reference_m) = (med(soa_s), med(reference_s));
    println!("\ninterleaved A/B over {reps} reps (NullSink):");
    println!(
        "  soa    {:>9.3} ms  ({:>9.0} frames/s)",
        soa_m * 1e3,
        frames as f64 / soa_m
    );
    println!(
        "  ref    {:>9.3} ms  ({:>9.0} frames/s)",
        reference_m * 1e3,
        frames as f64 / reference_m
    );
    println!("  kernel speedup: {:.3}x", reference_m / soa_m);
}
