//! Observability sinks: [`MetricsSink`] turns the decode-time event
//! stream into `unfold-obs` metrics; [`TeeSink`] fans one stream out to
//! several sinks so metrics can ride alongside the accelerator
//! simulator in a single decode.
//!
//! Design rule: observability listens, it never steers. A sink receives
//! the same events whatever it does with them, so swapping `NullSink`
//! for `MetricsSink` (or a `TeeSink` of both) cannot change a
//! [`crate::DecodeResult`] — the `sink_independence` integration test
//! pins this.

use unfold_obs::{
    ns_per_raw_tick, raw_ticks, Collector, FrameRing, FrameTelemetry, Histogram, MetricsRegistry,
    PhaseAccum, StageId, StageTimer,
};
use unfold_wfst::{Label, StateId};

use crate::trace::{DecodeStage, KernelPhase, TraceSink};

/// Running totals MetricsSink keeps as plain fields (hash-free event
/// handling; they become registry counters only at export).
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    frames: u64,
    state_fetches: u64,
    am_arc_fetches: u64,
    am_arc_bytes: u64,
    lm_lookups: u64,
    lm_arc_fetches: u64,
    lm_arc_bytes: u64,
    backoff_hops: u64,
    acoustic_fetches: u64,
    hash_inserts: u64,
    lattice_bytes: u64,
    preemptive_prunes: u64,
    olt_probes: u64,
    olt_hits: u64,
    olt_installs: u64,
    olt_evictions: u64,
}

/// Lane names for the kernel-phase accumulator, in
/// [`KernelPhase::index`] order.
const KERNEL_PHASE_NAMES: [&str; KernelPhase::ALL.len()] = {
    let mut names = [""; KernelPhase::ALL.len()];
    let mut i = 0;
    while i < KernelPhase::ALL.len() {
        names[i] = KernelPhase::ALL[i].name();
        i += 1;
    }
    names
};

/// State of the frame currently being decoded.
#[derive(Debug, Clone, Copy)]
struct OpenFrame {
    frame: usize,
    active_in: usize,
    /// Raw clock ticks at frame start (see [`unfold_obs::raw_ticks`]).
    started_ticks: u64,
    /// Per-frame-delta counters snapshotted at frame start.
    lm_lookups: u64,
    backoff_hops: u64,
    preemptive_prunes: u64,
    olt_probes: u64,
    olt_hits: u64,
}

/// A [`TraceSink`] that aggregates the event stream into decode-time
/// metrics: per-stage exclusive wall time, per-frame telemetry, and
/// run-level counters/histograms. Export with
/// [`MetricsSink::to_jsonl`] / [`MetricsSink::summary_markdown`] or
/// grab the full [`Collector`] via [`MetricsSink::collector`].
#[derive(Debug)]
pub struct MetricsSink {
    stages: StageTimer,
    stage_ids: [StageId; DecodeStage::ALL.len()],
    frames: FrameRing,
    frame_ns: Histogram,
    active_tokens: Histogram,
    totals: Totals,
    kernel_phases: PhaseAccum,
    seq: u64,
    open: Option<OpenFrame>,
    /// Tick→ns rate cached at construction (calibration is per-process,
    /// so reading it once here avoids an atomic probe per frame).
    ns_per_tick: f64,
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSink {
    /// A sink with the default frame-ring capacity.
    pub fn new() -> Self {
        Self::with_frame_capacity(unfold_obs::frame::DEFAULT_FRAME_CAPACITY)
    }

    /// A sink retaining at most `frame_capacity` most-recent frames.
    pub fn with_frame_capacity(frame_capacity: usize) -> Self {
        // Calibrate the tick clock now, outside any timed region, so the
        // first frame doesn't pay for it.
        let ns_per_tick = ns_per_raw_tick();
        let mut stages = StageTimer::new();
        let stage_ids = core::array::from_fn(|i| stages.intern(DecodeStage::ALL[i].name()));
        MetricsSink {
            stages,
            stage_ids,
            frames: FrameRing::with_capacity(frame_capacity),
            frame_ns: Histogram::new(),
            active_tokens: Histogram::new(),
            totals: Totals::default(),
            kernel_phases: PhaseAccum::new(&KERNEL_PHASE_NAMES),
            seq: 0,
            open: None,
            ns_per_tick,
        }
    }

    /// The stage timer, for callers that time phases the search itself
    /// cannot see (e.g. acoustic scoring happens before `decode`).
    pub fn stages_mut(&mut self) -> &mut StageTimer {
        &mut self.stages
    }

    /// Retained per-frame telemetry.
    pub fn frames(&self) -> &FrameRing {
        &self.frames
    }

    /// Mutable frame telemetry — used to attach simulator cache
    /// snapshots after a traced run.
    pub fn frames_mut(&mut self) -> &mut FrameRing {
        &mut self.frames
    }

    fn registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let t = &self.totals;
        r.counter("frames").add(t.frames);
        r.counter("state_fetches").add(t.state_fetches);
        r.counter("am_arc_fetches").add(t.am_arc_fetches);
        r.counter("am_arc_bytes").add(t.am_arc_bytes);
        r.counter("lm_lookups").add(t.lm_lookups);
        r.counter("lm_arc_fetches").add(t.lm_arc_fetches);
        r.counter("lm_arc_bytes").add(t.lm_arc_bytes);
        r.counter("backoff_hops").add(t.backoff_hops);
        r.counter("acoustic_fetches").add(t.acoustic_fetches);
        r.counter("hash_inserts").add(t.hash_inserts);
        r.counter("lattice_bytes").add(t.lattice_bytes);
        r.counter("preemptive_prunes").add(t.preemptive_prunes);
        r.counter("olt_probes").add(t.olt_probes);
        r.counter("olt_hits").add(t.olt_hits);
        r.counter("olt_installs").add(t.olt_installs);
        r.counter("olt_evictions").add(t.olt_evictions);
        if self.kernel_phases.any_recorded() {
            for stat in self.kernel_phases.stats() {
                r.counter(&format!("kernel_{}_ns", stat.name))
                    .add(stat.total_ns);
                r.counter(&format!("kernel_{}_calls", stat.name))
                    .add(stat.count);
            }
        }
        *r.histogram("frame_ns") = self.frame_ns.clone();
        *r.histogram("active_tokens") = self.active_tokens.clone();
        r
    }

    /// Snapshots everything into an `unfold-obs` [`Collector`].
    pub fn collector(&self) -> Collector {
        Collector {
            registry: self.registry(),
            stages: self.stages.clone(),
            frames: self.frames.clone(),
        }
    }

    /// Per-frame latency histogram (nanoseconds).
    pub fn frame_latency(&self) -> &Histogram {
        &self.frame_ns
    }

    /// Accumulated SoA kernel-phase timing (all lanes zero when the
    /// decode ran the scalar reference loop, which emits no phase samples).
    pub fn kernel_phases(&self) -> &PhaseAccum {
        &self.kernel_phases
    }

    /// Serializes the run as JSONL (spans, frames, run totals).
    pub fn to_jsonl(&self) -> String {
        self.collector().to_jsonl()
    }

    /// Renders the run as a markdown summary.
    pub fn summary_markdown(&self) -> String {
        self.collector().summary_markdown()
    }
}

impl TraceSink for MetricsSink {
    // Frame boundaries piggyback on the stage timer's clock reads where
    // they can: the decoders bracket every frame's work with stage
    // transitions, so the tick recorded at the nearest transition is at
    // most a few bookkeeping instructions away from the true boundary.
    // Only when no transition has happened inside the frame (a decoder
    // that emits frames but no stages) does the sink read the clock
    // itself. In streaming use, time the caller spends between `push`
    // calls lands on the next frame's wall time.
    fn frame_start(&mut self, frame: usize, active: usize) {
        self.totals.frames += 1;
        let started_ticks = if frame == 0 {
            raw_ticks()
        } else {
            self.stages.last_tick_raw().unwrap_or_else(raw_ticks)
        };
        self.open = Some(OpenFrame {
            frame,
            active_in: active,
            started_ticks,
            lm_lookups: self.totals.lm_lookups,
            backoff_hops: self.totals.backoff_hops,
            preemptive_prunes: self.totals.preemptive_prunes,
            olt_probes: self.totals.olt_probes,
            olt_hits: self.totals.olt_hits,
        });
    }

    fn frame_end(&mut self, frame: usize, active: usize, best_cost: f32, worst_cost: f32) {
        let Some(open) = self.open.take() else { return };
        debug_assert_eq!(open.frame, frame, "unbalanced frame_start/frame_end");
        let end_ticks = match self.stages.last_tick_raw() {
            Some(t) if t > open.started_ticks => t,
            _ => raw_ticks(),
        };
        let wall_ns =
            (end_ticks.saturating_sub(open.started_ticks) as f64 * self.ns_per_tick) as u64;
        self.frame_ns.record(wall_ns);
        self.active_tokens.record(active as u64);
        let t = &self.totals;
        self.frames.push(FrameTelemetry {
            seq: self.seq,
            frame,
            active_in: open.active_in,
            active_out: active,
            best_cost,
            worst_cost,
            lm_lookups: t.lm_lookups - open.lm_lookups,
            backoff_hops: t.backoff_hops - open.backoff_hops,
            preemptive_prunes: t.preemptive_prunes - open.preemptive_prunes,
            olt_probes: t.olt_probes - open.olt_probes,
            olt_hits: t.olt_hits - open.olt_hits,
            wall_ns,
            cache: None,
        });
        self.seq += 1;
    }

    fn stage_enter(&mut self, stage: DecodeStage) {
        self.stages.enter_id(self.stage_ids[stage.index()]);
    }

    fn stage_exit(&mut self, stage: DecodeStage) {
        self.stages.exit_id(self.stage_ids[stage.index()]);
    }

    fn stage_switch(&mut self, from: DecodeStage, to: DecodeStage) {
        self.stages
            .switch_id(self.stage_ids[from.index()], self.stage_ids[to.index()]);
    }

    fn state_fetch(&mut self, _addr: u64) {
        self.totals.state_fetches += 1;
    }

    fn am_arc_fetch(&mut self, _addr: u64, bytes: u32) {
        self.totals.am_arc_fetches += 1;
        self.totals.am_arc_bytes += u64::from(bytes);
    }

    fn lm_lookup(&mut self, _lm_state: StateId, _word: Label) {
        self.totals.lm_lookups += 1;
    }

    fn lm_arc_fetch(&mut self, _addr: u64, bytes: u32) {
        self.totals.lm_arc_fetches += 1;
        self.totals.lm_arc_bytes += u64::from(bytes);
    }

    fn lm_resolved(&mut self, _lm_state: StateId, _word: Label, backoff_hops: u32) {
        self.totals.backoff_hops += u64::from(backoff_hops);
    }

    fn acoustic_fetch(&mut self, _frame: usize, _pdf: Label) {
        self.totals.acoustic_fetches += 1;
    }

    fn hash_insert(&mut self, _key: u64) {
        self.totals.hash_inserts += 1;
    }

    fn token_store(&mut self, _addr: u64, bytes: u32) {
        self.totals.lattice_bytes += u64::from(bytes);
    }

    fn preemptive_prune(&mut self) {
        self.totals.preemptive_prunes += 1;
    }

    fn olt_probe(&mut self, _lm_state: StateId, _word: Label, hit: bool) {
        self.totals.olt_probes += 1;
        if hit {
            self.totals.olt_hits += 1;
        }
    }

    fn olt_install(&mut self, evicted: bool) {
        self.totals.olt_installs += 1;
        if evicted {
            self.totals.olt_evictions += 1;
        }
    }

    fn wants_kernel_timing(&self) -> bool {
        true
    }

    fn kernel_phase(&mut self, phase: KernelPhase, ns: u64) {
        self.kernel_phases.add(phase.index(), ns);
    }
}

/// Fans one event stream out to every wrapped sink, in order. Lets a
/// single decode feed the accelerator simulator and a [`MetricsSink`]
/// (or any other combination) at once.
pub struct TeeSink<'a> {
    sinks: Vec<&'a mut dyn TraceSink>,
}

impl<'a> TeeSink<'a> {
    /// Builds a tee over the given sinks.
    pub fn new(sinks: Vec<&'a mut dyn TraceSink>) -> Self {
        TeeSink { sinks }
    }

    /// Number of fan-out targets.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the tee has no targets.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for TeeSink<'_> {
    fn frame_start(&mut self, frame: usize, active: usize) {
        for s in &mut self.sinks {
            s.frame_start(frame, active);
        }
    }
    fn frame_end(&mut self, frame: usize, active: usize, best_cost: f32, worst_cost: f32) {
        for s in &mut self.sinks {
            s.frame_end(frame, active, best_cost, worst_cost);
        }
    }
    fn stage_enter(&mut self, stage: DecodeStage) {
        for s in &mut self.sinks {
            s.stage_enter(stage);
        }
    }
    fn stage_exit(&mut self, stage: DecodeStage) {
        for s in &mut self.sinks {
            s.stage_exit(stage);
        }
    }
    fn stage_switch(&mut self, from: DecodeStage, to: DecodeStage) {
        for s in &mut self.sinks {
            s.stage_switch(from, to);
        }
    }
    fn state_fetch(&mut self, addr: u64) {
        for s in &mut self.sinks {
            s.state_fetch(addr);
        }
    }
    fn am_arc_fetch(&mut self, addr: u64, bytes: u32) {
        for s in &mut self.sinks {
            s.am_arc_fetch(addr, bytes);
        }
    }
    fn lm_lookup(&mut self, lm_state: StateId, word: Label) {
        for s in &mut self.sinks {
            s.lm_lookup(lm_state, word);
        }
    }
    fn lm_arc_fetch(&mut self, addr: u64, bytes: u32) {
        for s in &mut self.sinks {
            s.lm_arc_fetch(addr, bytes);
        }
    }
    fn lm_resolved(&mut self, lm_state: StateId, word: Label, backoff_hops: u32) {
        for s in &mut self.sinks {
            s.lm_resolved(lm_state, word, backoff_hops);
        }
    }
    fn acoustic_fetch(&mut self, frame: usize, pdf: Label) {
        for s in &mut self.sinks {
            s.acoustic_fetch(frame, pdf);
        }
    }
    fn hash_insert(&mut self, key: u64) {
        for s in &mut self.sinks {
            s.hash_insert(key);
        }
    }
    fn token_store(&mut self, addr: u64, bytes: u32) {
        for s in &mut self.sinks {
            s.token_store(addr, bytes);
        }
    }
    fn preemptive_prune(&mut self) {
        for s in &mut self.sinks {
            s.preemptive_prune();
        }
    }
    fn olt_probe(&mut self, lm_state: StateId, word: Label, hit: bool) {
        for s in &mut self.sinks {
            s.olt_probe(lm_state, word, hit);
        }
    }
    fn olt_install(&mut self, evicted: bool) {
        for s in &mut self.sinks {
            s.olt_install(evicted);
        }
    }

    fn wants_kernel_timing(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_kernel_timing())
    }

    fn kernel_phase(&mut self, phase: KernelPhase, ns: u64) {
        for s in &mut self.sinks {
            s.kernel_phase(phase, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CountingSink;
    use unfold_obs::ObsRecord;

    fn drive(sink: &mut dyn TraceSink) {
        sink.frame_start(0, 3);
        sink.stage_enter(DecodeStage::Pruning);
        sink.stage_exit(DecodeStage::Pruning);
        sink.stage_enter(DecodeStage::ArcExpansion);
        sink.state_fetch(0x40);
        sink.am_arc_fetch(0x100, 16);
        sink.acoustic_fetch(0, 2);
        sink.stage_enter(DecodeStage::LmLookup);
        sink.lm_lookup(1, 7);
        sink.olt_probe(1, 7, false);
        sink.lm_arc_fetch(0xC000_0000, 6);
        sink.lm_resolved(1, 7, 2);
        sink.olt_install(false);
        sink.lm_lookup(1, 7);
        sink.olt_probe(1, 7, true);
        sink.lm_resolved(1, 7, 0);
        sink.stage_exit(DecodeStage::LmLookup);
        sink.hash_insert(42);
        sink.token_store(0, 8);
        sink.preemptive_prune();
        sink.stage_exit(DecodeStage::ArcExpansion);
        sink.frame_end(0, 5, 1.25, 9.5);
    }

    #[test]
    fn metrics_sink_builds_frame_telemetry() {
        let mut m = MetricsSink::new();
        drive(&mut m);
        assert_eq!(m.frames().total_seen(), 1);
        let f = m.frames().iter().next().expect("one frame");
        assert_eq!(f.active_in, 3);
        assert_eq!(f.active_out, 5);
        assert_eq!(f.best_cost, 1.25);
        assert_eq!(f.worst_cost, 9.5);
        assert_eq!(f.lm_lookups, 2);
        assert_eq!(f.backoff_hops, 2);
        assert_eq!(f.preemptive_prunes, 1);
        assert_eq!(f.olt_probes, 2);
        assert_eq!(f.olt_hits, 1);
        assert_eq!(m.frame_latency().count(), 1);
    }

    #[test]
    fn metrics_sink_stage_report_is_balanced() {
        let mut m = MetricsSink::new();
        drive(&mut m);
        let report = m.collector().stages.report();
        let names: Vec<&str> = report.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"pruning"));
        assert!(names.contains(&"arc_expansion"));
        assert!(names.contains(&"lm_lookup"));
        assert!(m.collector().stages.is_balanced());
    }

    #[test]
    fn metrics_sink_exports_parseable_jsonl() {
        let mut m = MetricsSink::new();
        drive(&mut m);
        let jsonl = m.to_jsonl();
        let mut frames = 0;
        let mut runs = 0;
        for line in jsonl.lines() {
            match ObsRecord::parse_line(line).expect("valid JSONL") {
                ObsRecord::Frame(_) => frames += 1,
                ObsRecord::Run(_) => runs += 1,
                ObsRecord::Span(_) => {}
                r @ (ObsRecord::SessionSpan(_) | ObsRecord::Flight(_)) => {
                    panic!("decoder telemetry emitted a serve-side record: {r:?}")
                }
            }
        }
        assert_eq!(frames, 1);
        assert_eq!(runs, 1);
    }

    #[test]
    fn tee_fans_out_to_all_sinks() {
        let mut counting = CountingSink::default();
        let mut metrics = MetricsSink::new();
        {
            let mut tee = TeeSink::new(vec![&mut counting, &mut metrics]);
            assert_eq!(tee.len(), 2);
            drive(&mut tee);
        }
        assert_eq!(counting.frames, 1);
        assert_eq!(counting.total_backoff_hops, 2);
        assert_eq!(metrics.frames().total_seen(), 1);
    }

    #[test]
    fn kernel_phase_timing_is_aggregated() {
        let mut m = MetricsSink::new();
        assert!(m.wants_kernel_timing());
        m.kernel_phase(KernelPhase::Threshold, 100);
        m.kernel_phase(KernelPhase::Expand, 50);
        m.kernel_phase(KernelPhase::Threshold, 20);
        let p = m.kernel_phases();
        assert_eq!(p.total_ns(KernelPhase::Threshold.index()), 120);
        assert_eq!(p.count(KernelPhase::Threshold.index()), 2);
        assert_eq!(p.total_ns(KernelPhase::Expand.index()), 50);
        assert!(m.to_jsonl().contains("kernel_threshold_ns"));
    }

    #[test]
    fn legacy_runs_export_no_kernel_phase_counters() {
        let mut m = MetricsSink::new();
        drive(&mut m);
        assert!(!m.kernel_phases().any_recorded());
        assert!(!m.to_jsonl().contains("kernel_threshold_ns"));
    }

    #[test]
    fn tee_wants_kernel_timing_if_any_member_does() {
        let mut counting = CountingSink::default();
        {
            let tee = TeeSink::new(vec![&mut counting]);
            assert!(!tee.wants_kernel_timing());
        }
        let mut metrics = MetricsSink::new();
        let mut tee = TeeSink::new(vec![&mut counting, &mut metrics]);
        assert!(tee.wants_kernel_timing());
        tee.kernel_phase(KernelPhase::Closure, 9);
        drop(tee);
        assert_eq!(
            metrics.kernel_phases().count(KernelPhase::Closure.index()),
            1
        );
    }

    #[test]
    fn frame_end_without_start_is_ignored() {
        let mut m = MetricsSink::new();
        m.frame_end(0, 1, 0.0, 0.0);
        assert_eq!(m.frames().total_seen(), 0);
    }
}
