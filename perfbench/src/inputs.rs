//! Seeded inputs: utterances drawn from the task's held-out sentences,
//! their score rows or GMM feature frames, per-user biasing models and
//! the arrival schedules of the streaming rungs. The program under test
//! sees only what these functions generate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use unfold::{System, TaskSpec};
use unfold_am::{synthesize_utterance, GmmModel, PdfId};
use unfold_bias::BiasingFst;
use unfold_decoder::FrameInput;

use crate::stats::{arrival_rate, poisson_arrivals};

/// Frames per streamed chunk (100 ms of audio).
pub const CHUNK: usize = 10;

/// Audio frames per second.
pub const FRAME_RATE: f64 = 100.0;

/// Words kept per held-out sentence, as the task's own test set does.
const MAX_WORDS: usize = 12;

/// Feature dimension, mixtures and mean separation of the acoustic GMM
/// behind the feature-scored workload.
pub const GMM_DIM: usize = 39;
pub const GMM_MIXTURES: usize = 4;
pub const GMM_SEPARATION: f32 = 0.3;
const GMM_SEED: u64 = 0x6A11;

/// Phrases per user biasing model.
const BIAS_PHRASES: usize = 8;

/// One test utterance: its reference words and its frames, ready to be
/// handed to the program (score rows, or feature vectors).
pub struct Utt {
    pub words: Vec<u32>,
    /// The PDF each frame was drawn from.
    pub alignment: Vec<PdfId>,
    pub frames: Vec<FrameInput>,
}

impl Utt {
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }
}

/// Splits a seed into independent streams.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The acoustic GMM of the feature-scored workload, over the task's PDFs.
pub fn gmm(system: &System) -> GmmModel {
    GmmModel::synthesize(
        system.am.num_pdfs,
        GMM_DIM,
        GMM_MIXTURES,
        GMM_SEPARATION,
        system.spec.seed ^ GMM_SEED,
    )
}

/// `n` utterances chosen by `seed` from the task's held-out sentences,
/// with acoustic noise drawn from `seed` too. With `gmm`, each frame is a
/// feature vector sampled from the GMM along the utterance's alignment;
/// otherwise it is the noisy score row.
pub fn utterances(system: &System, n: usize, seed: u64, gmm: Option<&GmmModel>) -> Vec<Utt> {
    let spec: &TaskSpec = &system.spec;
    let (_, heldout) = spec.corpus_spec().generate(spec.seed).split_heldout(0.05);
    let sentences: Vec<&Vec<u32>> = heldout.sentences.iter().filter(|s| !s.is_empty()).collect();
    let mut rng = SmallRng::seed_from_u64(mix(seed, 1));
    (0..n)
        .map(|_| {
            let sent = sentences[rng.gen_range(0..sentences.len())];
            let words = &sent[..sent.len().min(MAX_WORDS)];
            let utt = synthesize_utterance(
                words,
                &system.lexicon,
                spec.topology,
                &spec.noise,
                rng.gen(),
            );
            let frames = match gmm {
                None => (0..utt.scores.num_frames())
                    .map(|f| FrameInput::Scores(utt.scores.frame(f).to_vec()))
                    .collect(),
                Some(g) => {
                    let mut feat_rng = SmallRng::seed_from_u64(rng.gen());
                    utt.alignment
                        .iter()
                        .map(|&pdf| FrameInput::Features(g.sample_frame(pdf, &mut feat_rng)))
                        .collect()
                }
            };
            Utt {
                words: words.to_vec(),
                alignment: utt.alignment,
                frames,
            }
        })
        .collect()
}

/// Version `version` of user `user`'s biasing model.
pub fn bias_model(seed: u64, vocab: usize, user: usize, version: u32) -> BiasingFst {
    BiasingFst::mint(
        mix(seed, ((user as u64) << 32) | u64::from(version)),
        vocab as u32,
        BIAS_PHRASES,
    )
}

/// Registry name of a user's biasing model.
pub fn user_name(user: usize) -> String {
    format!("user-{user}")
}

/// One in-process session of a rung.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Seconds from the rung start at which its first chunk is due.
    pub start_s: f64,
    pub utt: usize,
    /// Frames streamed: the whole utterance for a session arriving in
    /// the rung, a chunk-aligned prefix for one already running when the
    /// rung starts. A session still streaming when the rung ends is cut
    /// at that point.
    pub frames: usize,
    pub user: Option<usize>,
    /// Already in flight when the rung starts.
    pub warm: bool,
}

/// Shape of a rung's traffic.
pub struct Traffic<'a> {
    pub utts: &'a [Utt],
    pub users: usize,
    /// Users whose models the registry writer may replace; the rest are
    /// left alone for TCP sessions, whose open the benchmark cannot order
    /// against a swap.
    pub swappable: usize,
    /// Share of sessions that are personalized.
    pub biased_share: f64,
}

impl Traffic<'_> {
    pub fn mean_session_s(&self) -> f64 {
        let frames: usize = self.utts.iter().map(Utt::num_frames).sum();
        frames as f64 / self.utts.len() as f64 / FRAME_RATE
    }

    fn pick(&self, rng: &mut SmallRng) -> (usize, Option<usize>) {
        if self.users > 0 && rng.gen::<f64>() < self.biased_share {
            // A user always reads the same utterance, which bounds the
            // standalone decodes the output check needs.
            let user = rng.gen_range(0..self.swappable);
            (user % self.utts.len(), Some(user))
        } else {
            (rng.gen_range(0..self.utts.len()), None)
        }
    }

    /// The sessions of a rung of `streams` concurrent streams lasting
    /// `seconds`: `streams` sessions already in flight at the start
    /// (each streams the remaining part of a session that began earlier,
    /// as a chunk-aligned prefix, so the rung starts at its steady
    /// concurrency), then Poisson arrivals at the Little's-law rate.
    pub fn plan(&self, streams: usize, seconds: f64, seed: u64) -> Vec<SessionPlan> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..streams {
            let (utt, user) = self.pick(&mut rng);
            let chunks = self.utts[utt].num_frames().div_ceil(CHUNK);
            let left = rng.gen_range(1..=chunks);
            out.push(SessionPlan {
                start_s: rng.gen::<f64>() * CHUNK as f64 / FRAME_RATE,
                utt,
                // One chunk more than remains: it is sent before the rung
                // starts, to bring the session into flight.
                frames: ((left + 1) * CHUNK).min(self.utts[utt].num_frames()),
                user,
                warm: true,
            });
        }
        let rate = arrival_rate(streams, self.mean_session_s());
        let mut u = SmallRng::seed_from_u64(rng.gen());
        for start_s in poisson_arrivals(rate, seconds, || 1.0 - u.gen::<f64>()) {
            let (utt, user) = self.pick(&mut rng);
            out.push(SessionPlan {
                start_s,
                utt,
                frames: self.utts[utt].num_frames(),
                user,
                warm: false,
            });
        }
        out
    }

    /// One session of the closed loop that measures the throughput: the
    /// same mix of utterances and users, the whole utterance, no start
    /// time (it is paced by the server, not by its audio).
    pub fn closed_session(&self, rng: &mut SmallRng) -> SessionPlan {
        let (utt, user) = self.pick(rng);
        SessionPlan {
            start_s: 0.0,
            utt,
            frames: self.utts[utt].num_frames(),
            user,
            warm: false,
        }
    }
}
