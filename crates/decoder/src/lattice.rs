//! Word lattices: the compact backpointer chain the 1-best search
//! writes, the raw expansion tape recorded alongside it, and the
//! [`WordLattice`] post-pass that turns the tape into an exact, pruned
//! word lattice with posteriors and deterministic N-best paths.
//!
//! Tokens do not store word histories; they store an index into the
//! append-only [`Lattice`]. Each entry records a recognized word and the
//! entry that preceded it, so a hypothesis's words are recovered by
//! walking backpointers from its lattice index — the same compact
//! token-to-lattice split the paper adopts from \[22\] to cut Token Cache
//! traffic ("the Token Issuer \[writes\] the word lattice in a compact
//! representation").
//!
//! The backpointer chain only remembers the Viterbi predecessor of each
//! token. When a lattice is requested, the decoder additionally turns on
//! the *expansion tape*: every relaxation the search attempts — emitting
//! or epsilon, improving or not — is appended as a raw
//! `(source token, destination token, word, destination cost)` record.
//! Because the tape captures *all* surviving incoming arcs per
//! (frame, state), the post-pass can reconstruct the exact set of
//! hypotheses the beam search considered, not just the single best
//! (the GPU exact-lattice decoder of Povey et al. materializes lattices
//! from token passing the same way). The tape is contents-neutral for
//! search: recording never changes decode output, stats, or the trace
//! event stream.
//!
//! The tape is *population-monotone*: records are appended frame by
//! frame, each record's destination is the current token population,
//! and its source is that population (epsilon closure) or the one before
//! (emitting expansion). [`WordLattice::build`] leans on this instead of
//! sorting the whole tape or keeping an ordered map:
//! - nodes are numbered population by population: the tokens that relax
//!   something, plus the start or final keys, are interned in a small
//!   table and sorted, and a node's id is its population's base plus its
//!   rank — exactly the global `(population, key)` order. Destinations
//!   that relax nothing (tokens the next frame's beam pruned, about half
//!   of them) are dead ends no complete path crosses, and their records
//!   are dropped up front;
//! - with ids known, records are bucketed by source (a counting sort)
//!   and each bucket of a few records is sorted, which yields the
//!   canonical `(src, dst, word, cost)` arc order;
//! - emitting arcs only ever advance one population, so the
//!   smallest-index-first topological order is a concatenation of
//!   per-population runs over the epsilon arcs.
//!
//! The post-pass then works in two semirings through the [`Semiring`]
//! trait: tropical (min, +) for the exact forward/backward Viterbi
//! scores that drive lattice-beam pruning, and log (-log-sum-exp, +) for
//! the forward/backward occupation scores that yield arc posteriors —
//! per-word confidence. N-best paths come from a best-first walk whose
//! partial paths are back-pointers into an append-only arena and whose
//! word prefixes are interned ids, so no path is copied until it is
//! returned.
//!
//! On a 2-core VM, a TEDLIUM utterance of the repo benchmark's
//! `offline_lattice` workload (~28k tape records) spends about 2.0 ms in
//! search, 1.6 ms in the build and 0.2 ms in 8-best plus best-path
//! confidence (DESIGN.md §14).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use unfold_lm::WordId;
use unfold_wfst::{LogWeight, Semiring, TropicalWeight};

use crate::config::DecodeResult;
use crate::search::{TokenMap, TokenStore};
use crate::sources::AmSource;

/// Bytes one lattice entry occupies in the compact representation
/// (\[22\]-style: packed backpointer + word id).
pub const COMPACT_ENTRY_BYTES: u32 = 8;
/// Bytes one lattice entry occupies in the plain representation used by
/// the fully-composed baseline's Token Issuer.
pub const PLAIN_ENTRY_BYTES: u32 = 16;

/// Sentinel lattice index meaning "no predecessor".
pub const LATTICE_ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    prev: u32,
    word: WordId,
    frame: u32,
}

/// One raw record on the expansion tape: the search relaxed an arc from
/// the token keyed `src_key` (in population `src_pop`) into the token
/// keyed `dst_key` (in population `dst_pop`), carrying `word` (0 for
/// none), arriving with path cost `dst_cost`.
#[derive(Debug, Clone, Copy)]
struct TapeArc {
    src_pop: u32,
    dst_pop: u32,
    src_key: u64,
    dst_key: u64,
    word: WordId,
    dst_cost: f32,
}

/// Append-only word lattice backpointer store, plus (when recording is
/// enabled) the raw expansion tape a [`WordLattice`] is built from.
#[derive(Debug, Clone, Default)]
pub struct Lattice {
    entries: Vec<Entry>,
    /// Whether the expansion tape is being recorded.
    recording: bool,
    /// Current token population: 0 for the seed closure, `t + 1` once
    /// frame `t` has been expanded.
    cur_pop: u32,
    /// Token key of the seed token (population 0).
    start_key: u64,
    /// Raw expansion records, in the order the search attempted them.
    tape: Vec<TapeArc>,
}

impl Lattice {
    /// Creates an empty lattice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the lattice is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry and tape record but keeps the allocations
    /// (scratch reuse between utterances). Recording is switched off;
    /// each lattice-producing entry point re-enables it explicitly.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.tape.clear();
        self.recording = false;
        self.cur_pop = 0;
        self.start_key = 0;
    }

    /// Enables or disables the expansion tape. Contents-neutral for the
    /// search itself.
    pub(crate) fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Whether the expansion tape is being recorded.
    pub(crate) fn is_recording(&self) -> bool {
        self.recording
    }

    /// Records the seed token's key (population 0).
    pub(crate) fn record_start(&mut self, key: u64) {
        if self.recording {
            self.start_key = key;
        }
    }

    /// Advances to the next token population; called once at the start
    /// of every frame expansion.
    pub(crate) fn advance_pop(&mut self) {
        self.cur_pop += 1;
    }

    /// Records an emitting relaxation: an arc from `src_key` in the
    /// previous population into `dst_key` in the current one.
    #[inline]
    pub(crate) fn record_emit(&mut self, src_key: u64, dst_key: u64, word: WordId, dst_cost: f32) {
        if self.recording {
            debug_assert!(self.cur_pop >= 1, "emitting arc before any frame");
            self.tape.push(TapeArc {
                src_pop: self.cur_pop - 1,
                dst_pop: self.cur_pop,
                src_key,
                dst_key,
                word,
                dst_cost,
            });
        }
    }

    /// Records an epsilon-closure relaxation within the current
    /// population.
    #[inline]
    pub(crate) fn record_eps(&mut self, src_key: u64, dst_key: u64, word: WordId, dst_cost: f32) {
        if self.recording {
            self.tape.push(TapeArc {
                src_pop: self.cur_pop,
                dst_pop: self.cur_pop,
                src_key,
                dst_key,
                word,
                dst_cost,
            });
        }
    }

    /// Appends a word recognized at `frame`, preceded by `prev`
    /// (or [`LATTICE_ROOT`]). Returns the new entry's index.
    ///
    /// # Panics
    /// Panics if `prev` is neither [`LATTICE_ROOT`] nor a valid index,
    /// or if the lattice would exceed `u32::MAX - 1` entries.
    pub fn push(&mut self, prev: u32, word: WordId, frame: u32) -> u32 {
        assert!(
            prev == LATTICE_ROOT || (prev as usize) < self.entries.len(),
            "push: dangling backpointer {prev}"
        );
        let idx = self.entries.len();
        assert!(idx < (u32::MAX - 1) as usize, "push: lattice overflow");
        self.entries.push(Entry { prev, word, frame });
        idx as u32
    }

    /// Recovers the word sequence ending at `index` (oldest first).
    /// [`LATTICE_ROOT`] yields the empty sequence.
    ///
    /// # Panics
    /// Panics if `index` is invalid.
    pub fn backtrace(&self, index: u32) -> Vec<WordId> {
        self.backtrace_spanned(index)
            .into_iter()
            .map(|(w, _)| w)
            .collect()
    }

    /// Like [`Lattice::backtrace`], but pairs every word with the frame
    /// it was recognized at.
    ///
    /// # Panics
    /// Panics if `index` is invalid.
    pub fn backtrace_spanned(&self, index: u32) -> Vec<(WordId, u32)> {
        let mut words = Vec::new();
        let mut cur = index;
        while cur != LATTICE_ROOT {
            let e = &self.entries[cur as usize];
            words.push((e.word, e.frame));
            cur = e.prev;
        }
        words.reverse();
        words
    }

    /// Tape offsets where each population's segment starts (records
    /// whose destination is that population), plus the tape length:
    /// `cur_pop + 2` entries.
    fn segments(&self) -> Vec<usize> {
        debug_assert!(
            self.tape.windows(2).all(|w| w[0].dst_pop <= w[1].dst_pop)
                && self.tape.iter().all(|a| {
                    a.dst_pop <= self.cur_pop
                        && (a.src_pop == a.dst_pop || a.src_pop + 1 == a.dst_pop)
                }),
            "expansion tape is not population-monotone"
        );
        let mut seg = Vec::with_capacity(self.cur_pop as usize + 2);
        let mut i = 0;
        for p in 0..=self.cur_pop {
            seg.push(i);
            while i < self.tape.len() && self.tape[i].dst_pop == p {
                i += 1;
            }
        }
        seg.push(i);
        seg
    }
}

/// A node of a [`WordLattice`]: one surviving search token, identified
/// by its `(frame, packed state key)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeNode {
    /// Token population: 0 before any frame, `t + 1` after frame `t`.
    pub frame: u32,
    /// Packed `(am_state << 32) | lm_state` search key.
    pub key: u64,
    /// Exact tropical forward cost from the start node — bit-identical
    /// to the search token's accumulated path cost.
    pub forward: f32,
    /// Tropical backward cost to the cheapest reachable final.
    pub backward: f32,
    /// Log-semiring forward score (α) over the pruned lattice.
    pub log_forward: f32,
    /// Log-semiring backward score (β, including final weights) over
    /// the pruned lattice.
    pub log_backward: f32,
}

/// An arc of a [`WordLattice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeArc {
    /// Source node index.
    pub from: u32,
    /// Destination node index.
    pub to: u32,
    /// Word carried by the arc (0 = none).
    pub word: WordId,
    /// Tropical cost contribution of this arc.
    pub weight: f32,
    /// Posterior probability of the arc under the log semiring, in
    /// `[0, 1]`.
    pub posterior: f32,
}

/// One word of a best-path hypothesis with its recognition frame and
/// lattice-posterior confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordHyp {
    /// The word.
    pub word: WordId,
    /// Frame the word was recognized at.
    pub frame: u32,
    /// Posterior confidence in `[0, 1]`.
    pub confidence: f32,
}

/// An exact, lattice-beam-pruned word lattice over surviving search
/// tokens.
///
/// Nodes are ordered by `(frame, key)` and arcs by
/// `(from, to, word)`, so two lattices built from the same search —
/// regardless of kernel, OLT size, scratch reuse, or streaming — are
/// bit-identical structure-for-structure; the verify matrix pins this.
/// Every node lies on at least one complete path whose total cost is
/// within `lattice_beam` of the best (non-coreachable nodes are
/// pruned), and the exact Viterbi path is always present.
#[derive(Debug, Clone)]
pub struct WordLattice {
    nodes: Vec<LatticeNode>,
    arcs: Vec<LatticeArc>,
    /// CSR offsets into `arcs` per node (length `nodes.len() + 1`).
    arc_start: Vec<u32>,
    /// Final nodes and their final weights.
    finals: Vec<(u32, f32)>,
    start: u32,
    best_cost: f32,
    num_frames: u32,
}

impl Default for WordLattice {
    fn default() -> Self {
        WordLattice::empty()
    }
}

/// Safety valve for the best-first path enumerations: total heap pops.
const EXPLORE_BUDGET: usize = 400_000;

/// Destination id of a tape record whose destination is a dead end.
const DEAD_END: u32 = u32::MAX;

/// A deduplicated tape record in node ids: the canonical arc list is a
/// sequence of these ordered by `(src, dst, word, cost)`.
#[derive(Debug, Clone, Copy)]
struct Row {
    src: u32,
    dst: u32,
    word: WordId,
    cost: f32,
}

/// The keys of one token population, interned in first-seen order: an
/// open-addressing table whose slots are tagged with the population they
/// were filled for, so moving to the next population clears nothing.
#[derive(Default)]
struct KeyTable {
    /// `(key, first-seen index, population tag)`; tag 0 is never used.
    slots: Vec<(u64, u32, u32)>,
    tag: u32,
    keys: Vec<u64>,
    order: Vec<(u64, u32)>,
}

impl KeyTable {
    /// Empties the table for a population of at most `max_keys` keys.
    fn clear(&mut self, max_keys: usize) {
        let want = (2 * max_keys).next_power_of_two().max(16);
        if self.slots.len() < want {
            self.slots = vec![(0, 0, 0); want];
            self.tag = 0;
        }
        self.tag += 1;
        self.keys.clear();
    }

    /// Where `key` sits: its first-seen index, or the free slot it
    /// would take.
    #[inline]
    fn find(&self, key: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let (k, local, tag) = self.slots[i];
            if tag != self.tag {
                return Err(i);
            }
            if k == key {
                return Ok(local);
            }
            i = (i + 1) & mask;
        }
    }

    /// The key's first-seen index, interning it if it is new.
    fn intern(&mut self, key: u64) -> u32 {
        self.find(key).unwrap_or_else(|slot| {
            let local = self.keys.len() as u32;
            self.slots[slot] = (key, local, self.tag);
            self.keys.push(key);
            local
        })
    }

    /// The key's first-seen index, if it was interned.
    fn get(&self, key: u64) -> Option<u32> {
        self.find(key).ok()
    }

    /// Appends the interned keys to `keys` in ascending order, and to
    /// `id_of` the id of each first-seen index: the population's base
    /// (`keys.len()` on entry) plus the key's rank.
    fn sort_into(&mut self, keys: &mut Vec<u64>, id_of: &mut Vec<u32>) {
        let lo = keys.len();
        self.order.clear();
        self.order
            .extend(self.keys.iter().zip(0u32..).map(|(&k, i)| (k, i)));
        self.order.sort_unstable_by_key(|&(k, _)| k);
        id_of.resize(lo + self.keys.len(), 0);
        for (&(k, i), id) in self.order.iter().zip(lo as u32..) {
            id_of[lo + i as usize] = id;
            keys.push(k);
        }
    }
}

impl WordLattice {
    /// The empty lattice (an incomplete decode).
    pub(crate) fn empty() -> Self {
        WordLattice {
            nodes: Vec::new(),
            arcs: Vec::new(),
            arc_start: vec![0],
            finals: Vec::new(),
            start: 0,
            best_cost: f32::INFINITY,
            num_frames: 0,
        }
    }

    /// Builds the pruned word lattice from a recorded expansion tape and
    /// the search's final token population.
    pub(crate) fn build<A: AmSource + ?Sized>(
        am: &A,
        tape: &Lattice,
        final_population: &TokenStore,
        lattice_beam: f32,
    ) -> WordLattice {
        debug_assert!(tape.is_recording(), "building a lattice without a tape");
        let t_final = tape.cur_pop;
        let pops = t_final as usize + 1;
        let seg = tape.segments();

        // Final (key, final weight) pairs from the last population.
        let mut final_keys: Vec<(u64, f32)> = Vec::new();
        for key in final_population.keys() {
            let am_state = (key >> 32) as u32;
            if let Some(fw) = am.final_weight(am_state) {
                final_keys.push((key, fw));
            }
        }

        // Node universe, numbered population by population: the tokens
        // of population `p` that relax something (the sources of its
        // segment's epsilon records and of the next segment's emitting
        // records), plus the start or the final keys. A destination
        // outside that set is a dead end — a token the next frame's beam
        // pruned, about half of all destinations: no complete path
        // crosses it, so no arc into it could survive the lattice beam.
        // Its records are dropped here. That changes nothing downstream:
        // a sink's removal keeps every other node's relative order,
        // forward score, Kahn position and backward fold, and an
        // infinite backward score never wins a tropical fold.
        //
        // Each population's keys are interned into a small table in
        // first-seen order, then sorted: a node's id is its population's
        // base plus its key's rank, so ids follow the canonical
        // (population, key) order. `ends` records every tape record's
        // (source, destination) in first-seen numbering, which `id_of`
        // maps to ids.
        let mut keys: Vec<u64> = Vec::new();
        let mut id_of: Vec<u32> = Vec::new();
        let mut base: Vec<u32> = Vec::with_capacity(pops + 1);
        let mut ends = vec![(0u32, DEAD_END); tape.tape.len()];
        let mut table = KeyTable::default();
        let (mut start, mut finals_id) = (0u32, Vec::with_capacity(final_keys.len()));
        for p in 0..pops {
            let lo = keys.len() as u32;
            base.push(lo);
            // The records leaving `p`: its segment's epsilon records and
            // the next segment's emitting records.
            let leaving = seg[p]..seg[(p + 2).min(pops)];
            table.clear(leaving.len() + 1 + final_keys.len());
            for i in leaving {
                let a = &tape.tape[i];
                if a.src_pop as usize == p {
                    ends[i].0 = lo + table.intern(a.src_key);
                }
            }
            if p == 0 {
                start = lo + table.intern(tape.start_key);
            }
            if p + 1 == pops {
                finals_id.extend(final_keys.iter().map(|&(k, fw)| (lo + table.intern(k), fw)));
            }
            let here = seg[p]..seg[p + 1];
            for (end, a) in ends[here.clone()].iter_mut().zip(&tape.tape[here]) {
                end.1 = table.get(a.dst_key).map_or(DEAD_END, |local| lo + local);
            }
            table.sort_into(&mut keys, &mut id_of);
        }
        base.push(keys.len() as u32);
        let n = keys.len();
        start = id_of[start as usize];
        for f in &mut finals_id {
            f.0 = id_of[f.0 as usize];
        }

        // Canonical arc list: records sorted by (src, dst, word, cost),
        // then deduplicated to the cheapest per (src, dst, word).
        // Duplicates arise whenever the closure re-expands an improved
        // token; the minimum is exactly the settled source cost plus the
        // arc cost, so the surviving record is independent of the order
        // the search emitted them in. With ids known, the records are
        // bucketed by source (a counting sort) and only each bucket — a
        // handful of records — is sorted.
        let live: Vec<Row> = tape
            .tape
            .iter()
            .zip(&ends)
            .filter(|&(_, &(_, dst))| dst != DEAD_END)
            .map(|(a, &(src, dst))| Row {
                src: id_of[src as usize],
                dst: id_of[dst as usize],
                word: a.word,
                cost: a.dst_cost,
            })
            .collect();
        drop(ends);
        let mut bucket = vec![0u32; n + 1];
        for r in &live {
            bucket[r.src as usize + 1] += 1;
        }
        for i in 0..n {
            bucket[i + 1] += bucket[i];
        }
        let mut rows = live.clone();
        let mut fill = bucket.clone();
        for r in live {
            rows[fill[r.src as usize] as usize] = r;
            fill[r.src as usize] += 1;
        }
        for w in bucket.windows(2).filter(|w| w[1] - w[0] > 1) {
            rows[w[0] as usize..w[1] as usize].sort_unstable_by(|a, b| {
                (a.dst, a.word)
                    .cmp(&(b.dst, b.word))
                    .then(a.cost.total_cmp(&b.cost))
            });
        }
        rows.dedup_by(|next, kept| {
            (next.src, next.dst, next.word) == (kept.src, kept.dst, kept.word)
        });

        // Exact tropical forward: a node's cost is the cheapest recorded
        // relaxation into it — bit-identical to the search token's cost,
        // because the search computed the same minimum over the same
        // multiset.
        let mut fv = vec![f32::INFINITY; n];
        fv[start as usize] = 0.0;
        for r in &rows {
            let d = r.dst as usize;
            fv[d] = TropicalWeight::from_cost(r.cost)
                .plus(TropicalWeight::from_cost(fv[d]))
                .value();
        }

        // Provisional arcs with weight w = dst_cost - forward(src); the
        // decomposition makes every path's arc-weight sum equal its
        // search cost (up to float re-association). Self-loops are
        // dropped: the strict-improvement relax predicate means the
        // search itself never takes them. The rows stay sorted by
        // source, so the CSR offsets follow directly.
        let mut parcs: Vec<Row> = Vec::with_capacity(rows.len());
        for r in &rows {
            let w = r.cost - fv[r.src as usize];
            if r.src != r.dst && w.is_finite() {
                parcs.push(Row { cost: w, ..*r });
            }
        }
        drop(rows);
        let mut pstart = vec![0u32; n + 1];
        for a in &parcs {
            pstart[a.src as usize + 1] += 1;
        }
        for i in 0..n {
            pstart[i + 1] += pstart[i];
        }
        let out = |u: u32| &parcs[pstart[u as usize] as usize..pstart[u as usize + 1] as usize];

        // Topological order: Kahn's algorithm, smallest node index
        // first. Emitting arcs only advance one population and ids are
        // population-major, so the global run is a concatenation of
        // per-population runs: a population's ready nodes live in a
        // bitset whose lowest set bit is the next node out (its emitting
        // targets are released by decrements but only become ready once
        // their own population's run starts). Any leftover nodes (an
        // epsilon cycle, which well-formed models do not produce, and
        // whatever it feeds) are appended in index order as a defensive
        // fallback; the enumeration budgets below keep everything
        // terminating regardless.
        let topo = {
            let mut indeg = vec![0u32; n];
            for a in &parcs {
                indeg[a.dst as usize] += 1;
            }
            let mut order = Vec::with_capacity(n);
            let mut ready = vec![0u64; n.div_ceil(64)];
            let set = |ready: &mut [u64], v: u32| ready[v as usize / 64] |= 1 << (v % 64);
            for p in 0..pops {
                let (lo, hi) = (base[p], base[p + 1]);
                for v in (lo..hi).filter(|&v| indeg[v as usize] == 0) {
                    set(&mut ready, v);
                }
                // Every ready node is at or above `low`.
                let mut low = lo;
                while low < hi {
                    let mut w = low as usize / 64;
                    let mut bits = ready[w] & (u64::MAX << (low % 64));
                    while bits == 0 && (w + 1) * 64 < hi as usize {
                        w += 1;
                        bits = ready[w];
                    }
                    if bits == 0 {
                        break;
                    }
                    let u = (w * 64) as u32 + bits.trailing_zeros();
                    ready[w] &= !(1 << (u % 64));
                    order.push(u);
                    low = u + 1;
                    for a in out(u) {
                        let d = a.dst as usize;
                        indeg[d] -= 1;
                        if indeg[d] == 0 && a.dst < hi {
                            set(&mut ready, a.dst);
                            low = low.min(a.dst);
                        }
                    }
                }
            }
            if order.len() < n {
                let mut placed = vec![false; n];
                for &u in &order {
                    placed[u as usize] = true;
                }
                order.extend((0..n as u32).filter(|&i| !placed[i as usize]));
            }
            order
        };

        // Tropical backward over the provisional lattice (reverse
        // topological, exact on a DAG).
        let mut bv = vec![f32::INFINITY; n];
        for &(d, fw) in &finals_id {
            bv[d as usize] = TropicalWeight::from_cost(fw)
                .plus(TropicalWeight::from_cost(bv[d as usize]))
                .value();
        }
        for &u in topo.iter().rev() {
            let mut acc = TropicalWeight::from_cost(bv[u as usize]);
            for a in out(u) {
                acc = TropicalWeight::from_cost(a.cost)
                    .times(TropicalWeight::from_cost(bv[a.dst as usize]))
                    .plus(acc);
            }
            bv[u as usize] = acc.value();
        }

        // Best complete cost: minimum over finals of forward + final
        // weight (the same fold the search's finish step performs).
        let mut best = TropicalWeight::zero();
        for &(d, fw) in &finals_id {
            best = TropicalWeight::from_cost(fv[d as usize])
                .times(TropicalWeight::from_cost(fw))
                .plus(best);
        }
        let best_cost = best.value();
        if !best_cost.is_finite() {
            return WordLattice::empty();
        }

        // Lattice-beam prune: keep an arc iff the best complete path
        // through it is within `lattice_beam` of the best. Every node a
        // kept arc touches then lies on such a path itself (the Viterbi
        // witness to/from the node survives arc-by-arc), so the pruned
        // lattice stays connected and coreachable by construction.
        let bound = best_cost + lattice_beam;
        let mut keep_node = vec![false; n];
        keep_node[start as usize] = true;
        let kept: Vec<&Row> = parcs
            .iter()
            .filter(|a| fv[a.src as usize] + a.cost + bv[a.dst as usize] <= bound)
            .collect();
        for a in &kept {
            keep_node[a.src as usize] = true;
            keep_node[a.dst as usize] = true;
        }
        for &(d, fw) in &finals_id {
            if fv[d as usize] + fw <= bound {
                keep_node[d as usize] = true;
            }
        }

        // Renumber (sorted order preserved) and assemble.
        let mut remap = vec![u32::MAX; n];
        let mut nodes: Vec<LatticeNode> = Vec::new();
        for p in 0..pops {
            for i in base[p] as usize..base[p + 1] as usize {
                if keep_node[i] {
                    remap[i] = nodes.len() as u32;
                    nodes.push(LatticeNode {
                        frame: p as u32,
                        key: keys[i],
                        forward: fv[i],
                        backward: bv[i],
                        log_forward: f32::INFINITY,
                        log_backward: f32::INFINITY,
                    });
                }
            }
        }
        let arcs: Vec<LatticeArc> = kept
            .iter()
            .map(|a| LatticeArc {
                from: remap[a.src as usize],
                to: remap[a.dst as usize],
                word: a.word,
                weight: a.cost,
                posterior: 0.0,
            })
            .collect();
        let mut finals: Vec<(u32, f32)> = finals_id
            .iter()
            .filter(|&&(d, fw)| keep_node[d as usize] && fv[d as usize] + fw <= bound)
            .map(|&(d, fw)| (remap[d as usize], fw))
            .collect();
        finals.sort_by_key(|&(d, _)| d);
        let m = nodes.len();
        let mut arc_start = vec![0u32; m + 1];
        for a in &arcs {
            arc_start[a.from as usize + 1] += 1;
        }
        for i in 0..m {
            arc_start[i + 1] += arc_start[i];
        }
        let mut lat = WordLattice {
            nodes,
            arcs,
            arc_start,
            finals,
            start: remap[start as usize],
            best_cost,
            num_frames: t_final,
        };
        lat.compute_posteriors(&topo, &remap);
        lat
    }

    /// Log-semiring forward/backward over the pruned lattice, filling
    /// `log_forward`/`log_backward` per node and `posterior` per arc.
    /// `topo`/`remap` carry the pre-prune topological order; the induced
    /// order on kept nodes is still topological.
    fn compute_posteriors(&mut self, topo: &[u32], remap: &[u32]) {
        let m = self.nodes.len();
        if m == 0 {
            return;
        }
        let order: Vec<u32> = topo
            .iter()
            .map(|&u| remap[u as usize])
            .filter(|&d| d != u32::MAX)
            .collect();
        let mut alpha = vec![LogWeight::zero(); m];
        alpha[self.start as usize] = LogWeight::one();
        for &u in &order {
            let a_u = alpha[u as usize];
            if a_u == LogWeight::zero() {
                continue;
            }
            let (lo, hi) = self.out_range(u);
            for a in &self.arcs[lo..hi] {
                alpha[a.to as usize] =
                    alpha[a.to as usize].plus(a_u.times(LogWeight::from_cost(a.weight)));
            }
        }
        let mut beta = vec![LogWeight::zero(); m];
        for &(d, fw) in &self.finals {
            beta[d as usize] = beta[d as usize].plus(LogWeight::from_cost(fw));
        }
        for &u in order.iter().rev() {
            let (lo, hi) = self.out_range(u);
            let mut acc = beta[u as usize];
            for a in &self.arcs[lo..hi] {
                acc = acc.plus(LogWeight::from_cost(a.weight).times(beta[a.to as usize]));
            }
            beta[u as usize] = acc;
        }
        let total = alpha[self.start as usize].times(beta[self.start as usize]);
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.log_forward = alpha[i].value();
            n.log_backward = beta[i].value();
        }
        for a in &mut self.arcs {
            let through = alpha[a.from as usize]
                .times(LogWeight::from_cost(a.weight))
                .times(beta[a.to as usize]);
            let p = (-(through.value() - total.value())).exp();
            a.posterior = p.clamp(0.0, 1.0);
        }
    }

    #[inline]
    fn out_range(&self, u: u32) -> (usize, usize) {
        (
            self.arc_start[u as usize] as usize,
            self.arc_start[u as usize + 1] as usize,
        )
    }

    /// Nodes, ordered by `(frame, key)`.
    pub fn nodes(&self) -> &[LatticeNode] {
        &self.nodes
    }

    /// Arcs, ordered by `(from, to, word)`.
    pub fn arcs(&self) -> &[LatticeArc] {
        &self.arcs
    }

    /// Final nodes and their final weights, ordered by node index.
    pub fn finals(&self) -> &[(u32, f32)] {
        &self.finals
    }

    /// Start node index.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Cost of the best complete path (`f32::INFINITY` when empty).
    pub fn best_cost(&self) -> f32 {
        self.best_cost
    }

    /// Number of frames the utterance spanned.
    pub fn num_frames(&self) -> u32 {
        self.num_frames
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Whether the lattice holds no complete hypothesis.
    pub fn is_empty(&self) -> bool {
        self.finals.is_empty()
    }

    /// Frame an arc's label was recognized at (the frame its expansion
    /// consumed; epsilon-closure arcs share the frame of the expansion
    /// that produced their population).
    pub fn arc_frame(&self, arc: &LatticeArc) -> u32 {
        self.nodes[arc.to as usize].frame.saturating_sub(1)
    }

    /// Largest `forward + weight + backward` slack over the best
    /// complete cost across all arcs — by construction at most the
    /// lattice beam the lattice was pruned with; the verify matrix
    /// asserts exactly that.
    pub fn max_path_slack(&self) -> f32 {
        let mut worst = 0.0f32;
        for a in &self.arcs {
            let through =
                self.nodes[a.from as usize].forward + a.weight + self.nodes[a.to as usize].backward;
            let slack = through - self.best_cost;
            if slack > worst {
                worst = slack;
            }
        }
        worst
    }

    /// Sum of arc posteriors over the emitting arcs that consume
    /// `frame` — ~1.0 for every frame of a well-formed lattice, since
    /// each complete path crosses each frame boundary exactly once.
    pub fn emitting_posterior_sum(&self, frame: u32) -> f64 {
        let mut sum = 0.0f64;
        for a in &self.arcs {
            let (f, t) = (
                self.nodes[a.from as usize].frame,
                self.nodes[a.to as usize].frame,
            );
            if t == f + 1 && f == frame {
                sum += f64::from(a.posterior);
            }
        }
        sum
    }

    /// The `n` cheapest distinct word sequences through the lattice,
    /// best first, with their path costs. Deterministic: paths are
    /// enumerated best-first (A* with the exact tropical backward score
    /// as heuristic) with ties broken by insertion order over the
    /// canonically sorted arc list.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    pub fn nbest(&self, n: usize) -> Vec<(Vec<WordId>, f32)> {
        assert!(n > 0, "nbest: n must be > 0");
        let cap = 8 * n + 32;
        let (paths, _) = self.explore(n, f64::INFINITY, EXPLORE_BUDGET, cap);
        paths
            .into_iter()
            .map(|(words, cost)| (words, cost as f32))
            .collect()
    }

    /// Every distinct word sequence whose best path cost is at most
    /// `bound`, with that cost, or `None` if the enumeration exceeded
    /// `budget` heap pops (an unpruned lattice can hold exponentially
    /// many paths). Used by the verify matrix's exhaustive comparisons.
    pub fn paths_within(&self, bound: f32, budget: usize) -> Option<BTreeMap<Vec<WordId>, f64>> {
        let (paths, complete) = self.explore(usize::MAX, f64::from(bound), budget, usize::MAX);
        if !complete {
            return None;
        }
        let mut out = BTreeMap::new();
        for (words, cost) in paths {
            out.entry(words).or_insert(cost);
        }
        Some(out)
    }

    /// The best path as per-word hypotheses: word, recognition frame,
    /// and lattice-posterior confidence.
    pub fn best_path_detail(&self) -> Vec<WordHyp> {
        let (paths, _) = self.explore_arcs(1, f64::INFINITY, EXPLORE_BUDGET, 64);
        let Some((arc_path, _)) = paths.into_iter().next() else {
            return Vec::new();
        };
        arc_path
            .iter()
            .filter_map(|&ai| {
                let a = &self.arcs[ai as usize];
                (a.word != 0).then(|| WordHyp {
                    word: a.word,
                    frame: self.arc_frame(a),
                    confidence: a.posterior,
                })
            })
            .collect()
    }

    /// Best-first path enumeration returning word sequences; see
    /// [`WordLattice::explore_arcs`].
    fn explore(
        &self,
        max_paths: usize,
        cost_bound: f64,
        budget: usize,
        per_node_cap: usize,
    ) -> (Vec<(Vec<WordId>, f64)>, bool) {
        let (paths, complete) = self.explore_arcs(max_paths, cost_bound, budget, per_node_cap);
        let out = paths
            .into_iter()
            .map(|(arc_path, cost)| {
                let words: Vec<WordId> = arc_path
                    .iter()
                    .map(|&ai| self.arcs[ai as usize].word)
                    .filter(|&w| w != 0)
                    .collect();
                (words, cost)
            })
            .collect();
        (out, complete)
    }

    /// Core best-first enumeration over arc paths. Returns up to
    /// `max_paths` paths with distinct word sequences, each as the arc
    /// index list and its total cost, plus whether the enumeration ran
    /// to natural completion (as opposed to hitting `budget`).
    ///
    /// Two partial paths reaching the same node with the same word
    /// prefix are merged, keeping the cheaper (their suffix sets are
    /// identical, so the costlier one can never yield a distinct
    /// sequence or a better cost) — without this, time-alignment
    /// variants of one word sequence crowd out genuinely different
    /// sequences and the search degenerates.
    ///
    /// Partial paths are never copied: each queued item points at the
    /// last step of its path in an append-only `(previous step, arc)`
    /// arena, and word prefixes are interned as `(parent prefix, word)`
    /// ids, so equal sequences share one id. Arc lists are materialized
    /// only for the paths returned.
    fn explore_arcs(
        &self,
        max_paths: usize,
        cost_bound: f64,
        budget: usize,
        per_node_cap: usize,
    ) -> (Vec<(Vec<u32>, f64)>, bool) {
        const SUPER_FINAL: u32 = u32::MAX;
        /// `Item::step` of a path with no arcs yet.
        const NO_STEP: u32 = u32::MAX;
        #[derive(Debug)]
        struct Item {
            est: f64,
            seq: u64,
            node: u32,
            g: f64,
            /// Last arena step of the path.
            step: u32,
            /// Interned word prefix of the path.
            prefix: u32,
        }
        impl PartialEq for Item {
            fn eq(&self, o: &Self) -> bool {
                self.est.total_cmp(&o.est).is_eq() && self.seq == o.seq
            }
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Item {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.est.total_cmp(&o.est).then(self.seq.cmp(&o.seq))
            }
        }
        let pair = |hi: u32, lo: u32| (u64::from(hi) << 32) | u64::from(lo);

        // The path arena: `(previous step, arc index)` per step.
        let mut steps: Vec<(u32, u32)> = Vec::new();
        // Each path found, as its last arena step and its cost.
        let mut found: Vec<(u32, f64)> = Vec::new();
        let complete = 'walk: {
            if self.finals.is_empty() {
                break 'walk true;
            }
            let mut final_weight = vec![f32::INFINITY; self.nodes.len()];
            for &(d, fw) in &self.finals {
                final_weight[d as usize] = final_weight[d as usize].min(fw);
            }
            let mut heap: BinaryHeap<Reverse<Item>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut pops = vec![0usize; self.nodes.len()];
            // Interned prefixes: (parent id, word) -> id, 0 being the empty
            // prefix; `seen[id]` marks sequences already returned.
            let mut prefixes: TokenMap<u64, u32> = TokenMap::default();
            let mut seen: Vec<bool> = vec![false];
            // Best g per (node, word prefix): the alignment-merge table.
            let mut best_prefix: TokenMap<u64, f64> = TokenMap::default();
            let start_est = f64::from(self.nodes[self.start as usize].backward);
            best_prefix.insert(pair(self.start, 0), 0.0);
            heap.push(Reverse(Item {
                est: start_est,
                seq,
                node: self.start,
                g: 0.0,
                step: NO_STEP,
                prefix: 0,
            }));
            let mut total_pops = 0usize;
            while let Some(Reverse(item)) = heap.pop() {
                if item.est > cost_bound {
                    break; // everything still queued is costlier
                }
                total_pops += 1;
                if total_pops > budget {
                    break 'walk false;
                }
                if item.node == SUPER_FINAL {
                    if !seen[item.prefix as usize] {
                        seen[item.prefix as usize] = true;
                        found.push((item.step, item.g));
                        if found.len() >= max_paths {
                            break 'walk true;
                        }
                    }
                    continue;
                }
                // A cheaper path already reached this node with this word
                // prefix: this one is a dominated alignment variant.
                if best_prefix
                    .get(&pair(item.node, item.prefix))
                    .is_some_and(|&g0| g0 < item.g)
                {
                    continue;
                }
                let u = item.node as usize;
                if pops[u] >= per_node_cap {
                    continue;
                }
                pops[u] += 1;
                let fw = final_weight[u];
                if fw.is_finite() {
                    let g = item.g + f64::from(fw);
                    seq += 1;
                    heap.push(Reverse(Item {
                        est: g,
                        seq,
                        node: SUPER_FINAL,
                        g,
                        ..item
                    }));
                }
                let (lo, hi) = self.out_range(item.node);
                for (off, a) in self.arcs[lo..hi].iter().enumerate() {
                    let g = item.g + f64::from(a.weight);
                    let est = g + f64::from(self.nodes[a.to as usize].backward);
                    if est > cost_bound {
                        continue;
                    }
                    let prefix = if a.word == 0 {
                        item.prefix
                    } else {
                        let next = seen.len() as u32;
                        let id = *prefixes.entry(pair(item.prefix, a.word)).or_insert(next);
                        if id == next {
                            seen.push(false);
                        }
                        id
                    };
                    match best_prefix.get(&pair(a.to, prefix)) {
                        Some(&g0) if g0 <= g => continue, // dominated
                        _ => {
                            best_prefix.insert(pair(a.to, prefix), g);
                        }
                    }
                    steps.push((item.step, (lo + off) as u32));
                    seq += 1;
                    heap.push(Reverse(Item {
                        est,
                        seq,
                        node: a.to,
                        g,
                        step: steps.len() as u32 - 1,
                        prefix,
                    }));
                }
            }
            true
        };
        let paths = found
            .into_iter()
            .map(|(mut step, g)| {
                let mut arcs = Vec::new();
                while step != NO_STEP {
                    let (prev, arc) = steps[step as usize];
                    arcs.push(arc);
                    step = prev;
                }
                arcs.reverse();
                (arcs, g)
            })
            .collect();
        (paths, complete)
    }

    /// Whether two lattices are bit-for-bit identical: same structure
    /// and identical float bits for every weight, score, and posterior.
    /// The verify matrix's determinism A/Bs compare with this.
    pub fn bit_identical(&self, other: &WordLattice) -> bool {
        self.start == other.start
            && self.num_frames == other.num_frames
            && self.best_cost.to_bits() == other.best_cost.to_bits()
            && self.nodes.len() == other.nodes.len()
            && self.arcs.len() == other.arcs.len()
            && self.finals.len() == other.finals.len()
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                a.frame == b.frame
                    && a.key == b.key
                    && a.forward.to_bits() == b.forward.to_bits()
                    && a.backward.to_bits() == b.backward.to_bits()
                    && a.log_forward.to_bits() == b.log_forward.to_bits()
                    && a.log_backward.to_bits() == b.log_backward.to_bits()
            })
            && self.arcs.iter().zip(&other.arcs).all(|(a, b)| {
                a.from == b.from
                    && a.to == b.to
                    && a.word == b.word
                    && a.weight.to_bits() == b.weight.to_bits()
                    && a.posterior.to_bits() == b.posterior.to_bits()
            })
            && self
                .finals
                .iter()
                .zip(&other.finals)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

/// The N-best list of a lattice-recording decode: up to `k` distinct
/// word sequences, best first. Entry 0 is the exact Viterbi result
/// (`result`, as [`crate::StreamSession::finalize_lattice`] returned
/// it); the rest are `lattice` paths, skipping the duplicate of the
/// 1-best sequence. Empty when the decode reached no final state.
///
/// This is the hypothesis list a two-pass rescorer consumes (the
/// paper's §6 contrasts one-pass search against lattice + rescore).
///
/// # Panics
/// Panics if `k == 0`.
pub fn nbest_list(
    result: &DecodeResult,
    lattice: &WordLattice,
    k: usize,
) -> Vec<(Vec<WordId>, f32)> {
    assert!(k > 0, "nbest_list: k must be positive");
    if !result.is_complete() {
        return Vec::new();
    }
    let mut out: Vec<(Vec<WordId>, f32)> = Vec::with_capacity(k);
    out.push((result.words.clone(), result.cost));
    if k > 1 {
        for (words, cost) in lattice.nbest(k) {
            if words == result.words {
                continue;
            }
            // Lattice arc weights are derived from the exact search
            // scores, but clamp anyway so the list stays sorted even
            // under f32 re-association.
            let floor = out.last().map_or(result.cost, |e| e.1);
            out.push((words, cost.max(floor)));
            if out.len() == k {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtrace_recovers_sequence() {
        let mut l = Lattice::new();
        let a = l.push(LATTICE_ROOT, 10, 0);
        let b = l.push(a, 20, 5);
        let c = l.push(b, 30, 9);
        assert_eq!(l.backtrace(c), vec![10, 20, 30]);
        assert_eq!(l.backtrace(a), vec![10]);
        assert_eq!(l.backtrace(LATTICE_ROOT), Vec::<WordId>::new());
        assert_eq!(l.backtrace_spanned(c), vec![(10, 0), (20, 5), (30, 9)]);
    }

    #[test]
    fn branches_share_prefixes() {
        let mut l = Lattice::new();
        let a = l.push(LATTICE_ROOT, 1, 0);
        let b1 = l.push(a, 2, 3);
        let b2 = l.push(a, 3, 3);
        assert_eq!(l.backtrace(b1), vec![1, 2]);
        assert_eq!(l.backtrace(b2), vec![1, 3]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    #[should_panic(expected = "dangling backpointer")]
    fn dangling_prev_panics() {
        let mut l = Lattice::new();
        l.push(5, 1, 0);
    }

    #[test]
    fn tape_records_only_while_recording() {
        let mut l = Lattice::new();
        l.record_start(42);
        l.advance_pop();
        l.record_emit(42, 7, 0, 1.0);
        assert!(l.tape.is_empty());
        assert_eq!(l.start_key, 0);
        l.clear();
        l.set_recording(true);
        l.record_start(42);
        l.advance_pop();
        l.record_emit(42, 7, 3, 1.0);
        l.record_eps(7, 9, 0, 1.5);
        assert_eq!(l.tape.len(), 2);
        assert_eq!(l.tape[0].src_pop, 0);
        assert_eq!(l.tape[0].dst_pop, 1);
        assert_eq!(l.tape[1].src_pop, 1);
        assert_eq!(l.tape[1].dst_pop, 1);
        // clear() drops the tape and switches recording back off.
        l.clear();
        assert!(l.tape.is_empty());
        assert!(!l.is_recording());
        assert_eq!(l.cur_pop, 0);
    }

    /// A minimal AM stub: every state final with weight 0.
    struct AllFinal;
    impl AmSource for AllFinal {
        fn start(&self) -> u32 {
            0
        }
        fn num_states(&self) -> usize {
            1 << 20
        }
        fn final_weight(&self, _s: u32) -> Option<f32> {
            Some(0.0)
        }
        fn state_addr(&self, _s: u32) -> u64 {
            0
        }
        fn for_each_arc(&self, _s: u32, _f: &mut dyn FnMut(crate::ArcVisit)) {}
    }

    fn key(am: u32, lm: u32) -> u64 {
        (u64::from(am) << 32) | u64::from(lm)
    }

    /// One step of a hand-built expansion tape.
    enum Op {
        /// Next frame: advance the token population.
        Frame,
        /// Emitting relaxation `(src, dst, word, dst_cost)`.
        Emit(u64, u64, WordId, f32),
        /// Epsilon relaxation `(src, dst, word, dst_cost)`.
        Eps(u64, u64, WordId, f32),
    }

    /// Builds a lattice from a hand-built tape seeded at `start`, with
    /// `finals` (insertion order) as the final token population.
    fn build_tape(start: u64, ops: &[Op], finals: &[u64], beam: f32) -> WordLattice {
        let mut tape = Lattice::new();
        tape.set_recording(true);
        tape.record_start(start);
        for op in ops {
            match *op {
                Op::Frame => tape.advance_pop(),
                Op::Emit(s, d, w, c) => tape.record_emit(s, d, w, c),
                Op::Eps(s, d, w, c) => tape.record_eps(s, d, w, c),
            }
        }
        let mut population = TokenStore::default();
        for &k in finals {
            population.insert(
                k,
                crate::search::Token {
                    cost: 0.0,
                    lat: LATTICE_ROOT,
                },
            );
        }
        WordLattice::build(&AllFinal, &tape, &population, beam)
    }

    /// Hand-built diamond: start splits into two one-frame hypotheses
    /// (words 1 and 2) that rejoin at a shared final token.
    fn diamond(beam: f32) -> WordLattice {
        build_tape(
            key(0, 0),
            &[
                Op::Frame,
                Op::Emit(key(0, 0), key(1, 1), 1, 1.0),
                Op::Emit(key(0, 0), key(2, 2), 2, 3.0),
                Op::Frame,
                Op::Emit(key(1, 1), key(3, 3), 0, 2.0),
                Op::Emit(key(2, 2), key(3, 3), 0, 4.0),
            ],
            &[key(3, 3)],
            beam,
        )
    }

    /// Every float bit and index of a lattice, for pinning hand-built
    /// cases exactly.
    fn dump(lat: &WordLattice) -> String {
        let mut out = format!(
            "start {} frames {} best {:#x}\n",
            lat.start(),
            lat.num_frames(),
            lat.best_cost().to_bits()
        );
        for n in lat.nodes() {
            out += &format!(
                "node {} {:#x} {:#x} {:#x} {:#x} {:#x}\n",
                n.frame,
                n.key,
                n.forward.to_bits(),
                n.backward.to_bits(),
                n.log_forward.to_bits(),
                n.log_backward.to_bits()
            );
        }
        for a in lat.arcs() {
            out += &format!(
                "arc {} {} {} {:#x} {:#x}\n",
                a.from,
                a.to,
                a.word,
                a.weight.to_bits(),
                a.posterior.to_bits()
            );
        }
        for &(n, fw) in lat.finals() {
            out += &format!("final {n} {:#x}\n", fw.to_bits());
        }
        for (words, cost) in lat.nbest(8) {
            out += &format!("nbest {words:?} {:#x}\n", cost.to_bits());
        }
        for h in lat.best_path_detail() {
            out += &format!("hyp {} {} {:#x}\n", h.word, h.frame, h.confidence.to_bits());
        }
        out
    }

    #[test]
    fn diamond_builds_exact_scores_and_nbest() {
        let lat = diamond(10.0);
        assert_eq!(lat.num_frames(), 2);
        assert_eq!(lat.num_nodes(), 4);
        assert_eq!(lat.num_arcs(), 4);
        assert_eq!(lat.best_cost(), 2.0);
        // Node forward costs are the recorded relaxation minima.
        let n3 = lat.nodes().iter().find(|n| n.key == key(3, 3)).unwrap();
        assert_eq!(n3.forward, 2.0);
        assert_eq!(n3.backward, 0.0);
        // Both paths, best first, deterministic.
        let nb = lat.nbest(5);
        assert_eq!(nb.len(), 2);
        assert_eq!(nb[0], (vec![1], 2.0));
        assert_eq!(nb[1], (vec![2], 4.0));
        // Path slack: worst arc is on the cost-4 path.
        assert!((lat.max_path_slack() - 2.0).abs() < 1e-6);
        // Posteriors: the two branches sum to ~1 on both frames.
        for f in 0..2 {
            assert!((lat.emitting_posterior_sum(f) - 1.0).abs() < 1e-4);
        }
        // The cheaper branch dominates the posterior mass.
        let a1 = lat.arcs().iter().find(|a| a.word == 1).unwrap();
        let a2 = lat.arcs().iter().find(|a| a.word == 2).unwrap();
        assert!(a1.posterior > a2.posterior);
        // Best-path detail carries the word, frame, and confidence.
        let detail = lat.best_path_detail();
        assert_eq!(detail.len(), 1);
        assert_eq!(detail[0].word, 1);
        assert_eq!(detail[0].frame, 0);
        assert!((detail[0].confidence - a1.posterior).abs() < 1e-6);
    }

    #[test]
    fn lattice_beam_prunes_the_costly_branch() {
        let lat = diamond(1.0);
        // The word-2 branch is 2.0 over the best path: pruned.
        assert_eq!(lat.nbest(5), vec![(vec![1], 2.0)]);
        assert_eq!(lat.num_arcs(), 2);
        assert!(lat.max_path_slack() <= 1.0);
        // Every kept frame's posterior mass is the single survivor.
        for f in 0..2 {
            assert!((lat.emitting_posterior_sum(f) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn paths_within_enumerates_and_bounds() {
        let lat = diamond(10.0);
        let all = lat.paths_within(10.0, 10_000).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[&vec![1u32]], 2.0);
        assert_eq!(all[&vec![2u32]], 4.0);
        let tight = lat.paths_within(3.0, 10_000).unwrap();
        assert_eq!(tight.len(), 1);
        // A zero budget reports incompleteness instead of lying.
        assert!(lat.paths_within(10.0, 0).is_none());
    }

    #[test]
    fn empty_lattice_is_sane() {
        let lat = WordLattice::empty();
        assert!(lat.is_empty());
        assert_eq!(lat.best_cost(), f32::INFINITY);
        assert_eq!(lat.nbest(3), Vec::<(Vec<WordId>, f32)>::new());
        assert!(lat.best_path_detail().is_empty());
        assert_eq!(lat.max_path_slack(), 0.0);
        assert!(lat.bit_identical(&WordLattice::empty()));
    }

    #[test]
    #[should_panic(expected = "n must be > 0")]
    fn nbest_zero_panics() {
        diamond(10.0).nbest(0);
    }

    #[test]
    fn bit_identical_detects_structural_difference() {
        let a = diamond(10.0);
        let b = diamond(1.0);
        assert!(a.bit_identical(&diamond(10.0)));
        assert!(!a.bit_identical(&b));
    }

    #[test]
    fn epsilon_cycle_falls_back_to_index_order() {
        // Frame 1 holds an epsilon cycle A -> B -> A. Kahn's order stalls
        // on it, so A, B and everything after them are appended in node
        // index order; the backward scores and posteriors below follow
        // from exactly that order (B is settled before A, so B's backward
        // score cannot see the cycle arc back to A).
        let (s, a, b, f) = (key(0, 0), key(1, 1), key(2, 2), key(3, 3));
        let lat = build_tape(
            s,
            &[
                Op::Frame,
                Op::Emit(s, a, 1, 1.0),
                Op::Emit(s, b, 2, 2.0),
                Op::Eps(a, b, 0, 1.5),
                Op::Eps(b, a, 3, 2.5),
                Op::Frame,
                Op::Emit(a, f, 0, 3.0),
                Op::Emit(b, f, 0, 3.5),
            ],
            &[f],
            10.0,
        );
        assert_eq!(
            dump(&lat),
            "start 0 frames 2 best 0x40400000\n\
             node 0 0x0 0x0 0x40400000 0x0 0x40147676\n\
             node 1 0x100000001 0x3f800000 0x40000000 0x3f3192ac 0x3fc35172\n\
             node 1 0x200000002 0x3fc00000 0x40000000 0x3f835172 0x40000000\n\
             node 2 0x300000003 0x40400000 0x0 0x40147676 0x0\n\
             arc 0 1 1 0x3f800000 0x3f504d16\n\
             arc 0 2 2 0x40000000 0x3e3ecba5\n\
             arc 1 2 0 0x3f000000 0x3ed5aa4f\n\
             arc 1 3 0 0x40000000 0x3f302322\n\
             arc 2 1 3 0x3f800000 0x3e955667\n\
             arc 2 3 0 0x40000000 0x3efcae99\n\
             final 3 0x0\n\
             nbest [1] 0x40400000\n\
             nbest [2] 0x40800000\n\
             nbest [1, 3] 0x40900000\n\
             nbest [2, 3] 0x40a00000\n\
             nbest [1, 3, 3] 0x40c00000\n\
             nbest [2, 3, 3] 0x40d00000\n\
             nbest [1, 3, 3, 3] 0x40f00000\n\
             nbest [2, 3, 3, 3] 0x41000000\n\
             hyp 1 0 0x3f504d16\n"
        );
    }

    #[test]
    fn source_only_node_is_numbered_but_pruned() {
        // X never receives a relaxation (nor is it the start), yet emits
        // into B; Y likewise only relaxes within frame 1. Neither has a
        // forward cost, so their arcs drop and they never reach the
        // lattice, but B's forward score still takes X's record.
        let (s, a, b, x, y, f) = (
            key(0, 0),
            key(1, 1),
            key(2, 2),
            key(0, 7),
            key(5, 5),
            key(3, 3),
        );
        let lat = build_tape(
            s,
            &[
                Op::Frame,
                Op::Emit(s, a, 1, 1.0),
                Op::Emit(x, b, 2, 0.5),
                Op::Emit(s, b, 2, 2.0),
                Op::Eps(y, a, 0, 0.25),
                Op::Frame,
                Op::Emit(a, f, 0, 3.0),
                Op::Emit(b, f, 4, 3.5),
            ],
            &[f],
            10.0,
        );
        assert_eq!(
            dump(&lat),
            "start 0 frames 2 best 0x40400000\n\
             node 0 0x0 0x0 0x40700000 0x0 0x405fe065\n\
             node 1 0x100000001 0x3e800000 0x40300000 0x3f800000 0x40300000\n\
             node 1 0x200000002 0x3f000000 0x40400000 0x40000000 0x40400000\n\
             node 2 0x300000003 0x40400000 0x0 0x405fe065 0x0\n\
             arc 0 1 1 0x3f800000 0x3f46fd20\n\
             arc 0 2 2 0x40000000 0x3e640b82\n\
             arc 1 3 0 0x40300000 0x3f46fd20\n\
             arc 2 3 4 0x40400000 0x3e640b82\n\
             final 3 0x0\n\
             nbest [1] 0x40700000\n\
             nbest [2, 4] 0x40a00000\n\
             hyp 1 0 0x3f46fd20\n"
        );
    }

    #[test]
    fn zero_frame_tape_is_the_seed_closure() {
        // No frame was expanded: the lattice is the seed closure alone,
        // with every closure token final.
        let (s, a, b) = (key(0, 0), key(1, 1), key(2, 2));
        let lat = build_tape(
            s,
            &[
                Op::Eps(s, a, 5, 1.0),
                Op::Eps(s, b, 6, 2.0),
                Op::Eps(a, b, 7, 1.5),
            ],
            &[s, a, b],
            10.0,
        );
        assert_eq!(
            dump(&lat),
            "start 0 frames 0 best 0x0\n\
             node 0 0x0 0x0 0x0 0x0 0xbf0bc713\n\
             node 0 0x100000001 0x3f800000 0x0 0x3f800000 0xbef2ba38\n\
             node 0 0x200000002 0x3fc00000 0x0 0x3f835172 0x0\n\
             arc 0 1 5 0x3f800000 0x3eaf4826\n\
             arc 0 2 6 0x40000000 0x3da08d18\n\
             arc 1 2 7 0x3f000000 0x3e045a1f\n\
             final 0 0x0\n\
             final 1 0x0\n\
             final 2 0x0\n\
             nbest [] 0x0\n\
             nbest [5] 0x3f800000\n\
             nbest [5, 7] 0x3fc00000\n\
             nbest [6] 0x40000000\n"
        );
    }

    #[test]
    fn final_tokens_without_outgoing_records() {
        // The final population's tokens only ever appear as destinations
        // (F, and H through a closure arc), and G sits in the population
        // without any record at all: it is numbered, has no forward cost
        // and is pruned.
        let (s, a, f, g, h) = (key(0, 0), key(1, 1), key(3, 3), key(2, 9), key(4, 4));
        let lat = build_tape(
            s,
            &[
                Op::Frame,
                Op::Emit(s, a, 1, 1.0),
                Op::Frame,
                Op::Emit(a, f, 0, 2.0),
                Op::Eps(f, h, 8, 2.5),
            ],
            &[h, g, f],
            10.0,
        );
        assert_eq!(
            dump(&lat),
            "start 0 frames 2 best 0x40000000\n\
             node 0 0x0 0x0 0x40000000 0x0 0x3fc35172\n\
             node 1 0x100000001 0x3f800000 0x3f800000 0x3f800000 0x3f06a2e4\n\
             node 2 0x300000003 0x40000000 0x0 0x40000000 0xbef2ba38\n\
             node 2 0x400000004 0x40200000 0x0 0x40200000 0x0\n\
             arc 0 1 1 0x3f800000 0x3f800000\n\
             arc 1 2 0 0x3f800000 0x3f800000\n\
             arc 2 3 8 0x3f000000 0x3ec14d03\n\
             final 2 0x0\n\
             final 3 0x0\n\
             nbest [1] 0x40000000\n\
             nbest [1, 8] 0x40200000\n\
             hyp 1 0 0x3f800000\n"
        );
    }
}
