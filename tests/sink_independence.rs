//! Observability listens, it never steers: whatever `TraceSink` rides a
//! decode, the `DecodeResult` must be bit-identical. These tests pin
//! the invariant for the batch decoder, the streaming decoder, and the
//! fully-composed baseline, across `NullSink`, `MetricsSink`, and a
//! `TeeSink` fan-out — plus a JSONL round-trip for the exported
//! telemetry itself.

use unfold::{System, TaskSpec};
use unfold_decoder::{
    CountingSink, DecodeConfig, DecodeResult, FullyComposedDecoder, MetricsSink, NullSink,
    OtfDecoder, StreamSession, TeeSink, WorkScratch,
};

fn assert_identical(a: &DecodeResult, b: &DecodeResult, what: &str) {
    assert_eq!(a.words, b.words, "{what}: words differ");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: cost differs");
    assert_eq!(a.stats, b.stats, "{what}: stats differ");
}

#[test]
fn otf_decode_is_identical_under_every_sink() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(3);
    let dec = OtfDecoder::new(DecodeConfig::default());
    for utt in &utts {
        let null = dec.decode(&system.am_comp, &system.lm_comp, &utt.scores, &mut NullSink);

        let mut metrics = MetricsSink::new();
        let with_metrics = dec.decode(&system.am_comp, &system.lm_comp, &utt.scores, &mut metrics);
        assert_identical(&null, &with_metrics, "otf metrics");
        assert_eq!(
            metrics.frames().total_seen() as usize,
            null.stats.frames,
            "metrics saw a different frame count than the decode reported"
        );

        let mut metrics = MetricsSink::new();
        let mut counting = CountingSink::default();
        let mut tee = TeeSink::new(vec![&mut metrics, &mut counting]);
        let with_tee = dec.decode(&system.am_comp, &system.lm_comp, &utt.scores, &mut tee);
        assert_identical(&null, &with_tee, "otf tee");
        assert_eq!(counting.frames, null.stats.frames);
    }
}

#[test]
fn streaming_decode_is_identical_under_every_sink() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(2);
    let config = DecodeConfig::default();

    for utt in &utts {
        let run = |sink: &mut dyn unfold_decoder::TraceSink| -> DecodeResult {
            let (am, lm) = (&system.am_comp, &system.lm_comp);
            let mut work = WorkScratch::new();
            work.begin(&config);
            let mut s = StreamSession::new(config);
            s.seed(am, lm, &mut work, sink);
            for t in 0..utt.scores.num_frames() {
                s.push_frame(am, lm, &mut work, utt.scores.frame(t), sink);
            }
            s.finalize(am, sink)
        };

        let null = run(&mut NullSink);

        let mut metrics = MetricsSink::new();
        let with_metrics = run(&mut metrics);
        assert_identical(&null, &with_metrics, "stream metrics");

        let mut metrics = MetricsSink::new();
        let mut counting = CountingSink::default();
        let mut tee = TeeSink::new(vec![&mut metrics, &mut counting]);
        let with_tee = run(&mut tee);
        assert_identical(&null, &with_tee, "stream tee");
    }
}

#[test]
fn fully_composed_decode_is_identical_under_every_sink() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(2);
    let composed = system.composed();
    let dec = FullyComposedDecoder::new(DecodeConfig::default());
    for utt in &utts {
        let null = dec.decode(&composed, &utt.scores, &mut NullSink);
        let mut metrics = MetricsSink::new();
        let with_metrics = dec.decode(&composed, &utt.scores, &mut metrics);
        assert_identical(&null, &with_metrics, "full metrics");
    }
}

#[test]
fn exported_telemetry_roundtrips_through_jsonl() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(1);
    let dec = OtfDecoder::new(DecodeConfig::default());
    let mut metrics = MetricsSink::new();
    let result = dec.decode(
        &system.am_comp,
        &system.lm_comp,
        &utts[0].scores,
        &mut metrics,
    );

    let jsonl = metrics.to_jsonl();
    let mut frames = 0usize;
    let mut spans = 0usize;
    let mut runs = 0usize;
    for line in jsonl.lines() {
        let rec = unfold_obs::ObsRecord::parse_line(line)
            .unwrap_or_else(|e| panic!("unparseable telemetry line: {e}\n{line}"));
        // Parse → serialize → parse must be a fixed point.
        let again = unfold_obs::ObsRecord::parse_line(&rec.to_json()).unwrap();
        assert_eq!(
            rec, again,
            "telemetry record not a serialization fixed point"
        );
        match rec {
            unfold_obs::ObsRecord::Frame(f) => {
                frames += 1;
                assert!(f.active_out > 0, "decode kept tokens every frame");
            }
            unfold_obs::ObsRecord::Span(_) => spans += 1,
            unfold_obs::ObsRecord::Run(counters) => {
                runs += 1;
                assert!(!counters.is_empty(), "run record carries no counters");
            }
            // Serve-side record types; a MetricsSink decode emits none.
            r @ (unfold_obs::ObsRecord::SessionSpan(_) | unfold_obs::ObsRecord::Flight(_)) => {
                panic!("decoder telemetry emitted a serve-side record: {r:?}")
            }
        }
    }
    assert_eq!(
        frames,
        result
            .stats
            .frames
            .min(unfold_obs::frame::DEFAULT_FRAME_CAPACITY)
    );
    assert!(
        spans >= 3,
        "expected span records for the decode stages, got {spans}"
    );
    assert_eq!(runs, 1, "expected exactly one run-totals record");
}
