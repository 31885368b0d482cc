//! Deterministic two-stage (scoring → search) pipelined decoding.
//!
//! The paper's §5.2 system overlaps acoustic scoring of batch *i+1*
//! with search over batch *i* through a shared bounded buffer. This
//! module is the single-session, single-threaded skeleton of that
//! pipeline: a scoring cursor runs ahead of the search cursor by at
//! most [`DecodeConfig::max_search_lag`] frames, staging score rows in
//! a bounded ring, scoring at most [`DecodeConfig::scorer_batch`]
//! frames per round.
//!
//! **Why pipelining cannot change decode output.** An
//! [`AcousticScorer`] is a pure per-frame function (see the trait
//! contract), and the ring delivers rows strictly in push order, so
//! the search stage consumes exactly the row sequence a lockstep
//! decode would compute — regardless of lag bound, batch size, or how
//! the two stages interleave in time. The `pipeline-identity` verify
//! check pins this end to end (words, cost bits, full stats, and the
//! ordered trace-event stream), and the planted `stale-lag` mutation
//! demonstrates the check catches a ring that re-reads a stale slot.
//!
//! The multi-session, multi-threaded version of this pipeline lives in
//! `unfold-serve`'s scheduler; it reuses the same scorer contract and
//! the same in-order SPSC queue discipline, so the identity argument
//! carries over session by session.

use crate::config::{DecodeConfig, DecodeResult};
use crate::ingest::{AcousticScorer, FrameInput, ScoreError};
use crate::scratch::WorkScratch;
use crate::sources::{AmSource, LmSource};
use crate::streaming::StreamSession;
use crate::trace::TraceSink;
use std::collections::VecDeque;

/// Decodes `frames` through the two-stage pipeline and returns a
/// result bit-identical to scoring every frame up front and running
/// [`crate::OtfDecoder::decode`] over the rows. Trace events emitted to `sink` are identical too.
///
/// A `max_search_lag` of 0 degenerates to strictly synchronous
/// hand-off: each frame is scored and immediately searched.
///
/// # Errors
/// The first [`ScoreError`] the scorer returns; frames already
/// searched are not rolled back (mirroring a live stream, where a
/// refused frame poisons the session, not the decode so far).
///
/// # Panics
/// Panics if an AM arc's PDF id exceeds the scorer's row width.
pub fn decode_pipelined<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: DecodeConfig,
    am: &A,
    lm: &L,
    scorer: &dyn AcousticScorer,
    frames: &[FrameInput],
    sink: &mut dyn TraceSink,
) -> Result<DecodeResult, ScoreError> {
    // Lag 0 still needs one slot to hand a row from stage to stage.
    let lag_cap = config.max_search_lag.max(1);
    let mut ring: VecDeque<Vec<f32>> = VecDeque::with_capacity(lag_cap);
    let mut pool: Vec<Vec<f32>> = Vec::with_capacity(lag_cap);

    let mut work = WorkScratch::new();
    work.begin(&config);
    let mut session = StreamSession::new(config);
    session.seed(am, lm, &mut work, sink);

    let mut next_score = 0usize;
    while session.frames_pushed() < frames.len() {
        // Scoring stage: refill the ring up to the lag bound, at most
        // one scorer batch per round.
        let mut batched = 0usize;
        while next_score < frames.len() && ring.len() < lag_cap && batched < config.scorer_batch {
            let mut row = pool.pop().unwrap_or_default();
            match scorer.score_into(&frames[next_score], &mut row) {
                Ok(()) => {
                    ring.push_back(row);
                    next_score += 1;
                    batched += 1;
                }
                Err(e) => return Err(e),
            }
        }
        // Search stage: consume one frame per round, so scoring runs
        // ahead and the ring's bounded depth is actually exercised.
        if let Some(row) = ring.pop_front() {
            session.push_frame(am, lm, &mut work, &row, sink);
            pool.push(row);
        }
    }
    Ok(session.finalize(am, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::PrecomputedScorer;
    use crate::record::TraceRecorder;
    use crate::trace::NullSink;
    use crate::OtfDecoder;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::Wfst;

    fn setup() -> (Lexicon, Wfst, Wfst) {
        let lex = Lexicon::generate(50, 20, 6);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(3), 50, DiscountConfig::default());
        (lex, am.fst, lm_to_wfst(&model))
    }

    #[test]
    fn pipelined_matches_lockstep_across_lag_and_batch() {
        let (lex, am, lm) = setup();
        let utt = synthesize_utterance(
            &[3, 9, 17],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            5,
        );
        let width = utt.scores.frame(0).len();
        let frames: Vec<FrameInput> = (0..utt.scores.num_frames())
            .map(|t| FrameInput::Scores(utt.scores.frame(t).to_vec()))
            .collect();
        let scorer = PrecomputedScorer::new(width);

        for (lag, batch) in [(0, 1), (0, 8), (2, 1), (2, 3), (8, 8), (16, 4)] {
            let cfg = DecodeConfig::builder()
                .max_search_lag(lag)
                .scorer_batch(batch)
                .build()
                .unwrap();
            let mut base_rec = TraceRecorder::new();
            let baseline = OtfDecoder::new(cfg).decode(&am, &lm, &utt.scores, &mut base_rec);
            let mut pipe_rec = TraceRecorder::new();
            let piped = decode_pipelined(cfg, &am, &lm, &scorer, &frames, &mut pipe_rec).unwrap();
            assert_eq!(piped.words, baseline.words, "lag {lag} batch {batch}");
            assert_eq!(
                piped.cost.to_bits(),
                baseline.cost.to_bits(),
                "lag {lag} batch {batch}"
            );
            assert_eq!(piped.stats, baseline.stats, "lag {lag} batch {batch}");
            assert_eq!(
                pipe_rec.events(),
                base_rec.events(),
                "trace stream must be identical (lag {lag} batch {batch})"
            );
        }
    }

    #[test]
    fn empty_utterance_finalizes_cleanly() {
        let (_lex, am, lm) = setup();
        let cfg = DecodeConfig::default();
        let scorer = PrecomputedScorer::new(4);
        let (session, _) =
            crate::streaming::test_support::start(cfg, &am, &lm, false, &mut NullSink);
        let base = session.finalize(&am, &mut NullSink);
        let r = decode_pipelined(cfg, &am, &lm, &scorer, &[], &mut NullSink).unwrap();
        assert_eq!(r.words, base.words);
        assert_eq!(r.cost.to_bits(), base.cost.to_bits());
    }

    #[test]
    fn scorer_error_surfaces_as_typed_error() {
        let (_lex, am, lm) = setup();
        let cfg = DecodeConfig::default();
        let scorer = PrecomputedScorer::new(4);
        let frames = vec![FrameInput::Features(vec![0.0; 4])];
        assert_eq!(
            decode_pipelined(cfg, &am, &lm, &scorer, &frames, &mut NullSink).unwrap_err(),
            ScoreError::FeaturesUnsupported
        );
    }
}
