//! Cross-query batched progressive sampling — the inference engine behind
//! every estimator entry point; a single query runs as a batch of one.
//!
//! [`progressive_sample`](crate::infer::progressive_sample) walks one query
//! at a time: every constrained column costs a full `S`-row forward pass,
//! even though (a) the first constrained column's input is the all-wildcard
//! zero row — identical for every sample of every query — and (b) after
//! sampling column `v`, many of the `S` rows share the same sampled code
//! and therefore the same model input.
//!
//! [`progressive_sample_batch`] removes both redundancies while producing
//! **bit-identical estimates** to the sequential walk under matched
//! per-query RNG seeds:
//!
//! * **Column rounds.** All queries advance in lock-step over virtual
//!   columns. At round `v`, every not-yet-finished query whose step `v` is
//!   constrained participates; queries with a wildcard at `v` skip the
//!   round entirely (per-query wildcard skipping, §4.6). Participants share
//!   one stacked `hidden()` forward and one `logits_col(v)` projection, so
//!   the `w_out` column slice and the weight traversals are paid once per
//!   round instead of once per query.
//! * **First-step memoization.** A query that has not sampled anything yet
//!   feeds the all-zero input, whose softmaxed logits are row-constant.
//!   Those queries read [`RawModel::first_step_probs`] — computed once per
//!   weight snapshot — and contribute **zero** rows to the stacked forward.
//! * **Prefix deduplication + dead-sample compaction.** Per query, sample
//!   rows are represented by an interned *prefix id* (the tuple of codes
//!   sampled so far). The forward at round `v` runs over distinct live
//!   prefixes only; rows sharing a prefix share one computed distribution.
//!   The prefix table is rebuilt from the pairs drawn each round, so
//!   prefixes referenced only by dead rows vanish. Correctness rests on the
//!   model's forward being row-independent: `hidden()` and `logits_col()`
//!   compute each output row from its input row alone, so deduplicating
//!   identical rows cannot change any value.
//!
//! Equivalence with the sequential walk holds because each query draws from
//! its own seeded RNG, and within a query the draw order is identical:
//! ascending constrained column, then ascending row index over live rows.
//!
//! All tensor traffic — the stacked forward, the per-round probability
//! matrix, and every query's prefix table — lives in a caller-owned
//! [`BatchScratch`], so a warmed scratch serves batches with zero tensor
//! allocations.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_tensor::Tensor;

use crate::encoding::VirtualSchema;
use crate::infer::sample_in_region;
use crate::model::{ModelScratch, RawModel};
use crate::vquery::{StepRegion, VirtualQuery};

/// Caller-owned buffers for [`progressive_sample_batch_with`]: the model
/// forward scratch, the stacked per-round input matrix, the prefix-table
/// rebuild buffer, and a pool of per-query prefix tensors that survives
/// across batches. Buffers grow to the largest batch seen and are reused.
#[derive(Debug, Default)]
pub struct BatchScratch {
    model: ModelScratch,
    /// Stacked distinct-prefix rows of every non-virgin round participant.
    stacked: Tensor,
    /// Rebuild target for prefix tables; swapped with each query's
    /// `prefix_rows` after a round, so the displaced buffer is recycled.
    spare: Tensor,
    /// Per-query-slot prefix tensors, taken at batch start and returned at
    /// batch end.
    prefix_pool: Vec<Tensor>,
    /// Query indices participating in the current round.
    round: Vec<usize>,
    /// Stacked-row offset per query (`usize::MAX` = not stacked).
    offsets: Vec<usize>,
    /// Prefix-id interner buffers, cleared per (query, round).
    intern: HashMap<(usize, u32), usize>,
    created: Vec<(usize, u32)>,
}

impl BatchScratch {
    /// Fresh, empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Numeric mode of the model forward pass driven through this scratch.
    /// Must match the mode the [`RawModel`] snapshot was built with.
    pub fn set_quant_mode(&mut self, mode: uae_tensor::QuantMode) {
        self.model.set_quant_mode(mode);
    }
}

/// Per-query sampler state between column rounds.
struct QueryState<'a> {
    vq: &'a VirtualQuery,
    rng: StdRng,
    last: usize,
    /// Distinct live sampled-prefix input rows (model-input encoding);
    /// borrowed from the scratch pool for the duration of the batch.
    prefix_rows: Tensor,
    /// Prefix id of each sample row; only meaningful while the row lives.
    row_prefix: Vec<usize>,
    p_hat: Vec<f64>,
    alive: Vec<bool>,
    /// Sampled hard codes per virtual column (split lo-steps look these up).
    sampled: Vec<Option<Vec<u32>>>,
    /// No code sampled yet: inputs are the all-wildcard zeros, so the
    /// memoized first-step distribution applies.
    virgin: bool,
    done: bool,
}

/// Estimate the selectivities of a batch of translated queries with `s`
/// progressive samples each, one RNG seed per query. Returns one value in
/// `[0, 1]` per query, bit-identical to running
/// [`crate::infer::progressive_sample`] per query with
/// `StdRng::seed_from_u64(seeds[i])`.
pub fn progressive_sample_batch(
    raw: &RawModel,
    schema: &VirtualSchema,
    vqs: &[VirtualQuery],
    s: usize,
    seeds: &[u64],
) -> Vec<f64> {
    let mut scratch = BatchScratch::new();
    progressive_sample_batch_with(raw, schema, vqs, s, seeds, &mut scratch)
}

/// [`progressive_sample_batch`] writing all tensor traffic into a
/// caller-owned [`BatchScratch`]. Bit-exact with the allocating path.
pub fn progressive_sample_batch_with(
    raw: &RawModel,
    schema: &VirtualSchema,
    vqs: &[VirtualQuery],
    s: usize,
    seeds: &[u64],
    scratch: &mut BatchScratch,
) -> Vec<f64> {
    assert_eq!(vqs.len(), seeds.len(), "one seed per query");
    let s = s.max(1);
    let width = schema.input_width();
    let BatchScratch { model, stacked, spare, prefix_pool, round, offsets, intern, created } =
        scratch;
    if prefix_pool.len() < vqs.len() {
        prefix_pool.resize_with(vqs.len(), Tensor::default);
    }
    if vqs.len() == 1 {
        // A single query never has more than `s` distinct live prefixes,
        // so every per-round buffer is bounded by `s` rows. Reserving that
        // bound up front gives a warm batch-of-one stream a capacity fixed
        // point; otherwise the deduped prefix count, which varies with the
        // seed, would creep the high-water mark call after call.
        for t in [&mut prefix_pool[0], &mut *spare, &mut *stacked] {
            t.reserve(s, width);
        }
        raw.reserve_rows(s, model);
    }
    let mut results = vec![0.0f64; vqs.len()];
    let mut states: Vec<Option<QueryState<'_>>> = Vec::with_capacity(vqs.len());
    let mut max_last = 0usize;
    for (i, vq) in vqs.iter().enumerate() {
        if vq.is_empty() {
            states.push(None);
            continue;
        }
        let Some(last) = vq.last_constrained() else {
            results[i] = 1.0; // no predicates
            states.push(None);
            continue;
        };
        max_last = max_last.max(last);
        let mut prefix_rows = std::mem::take(&mut prefix_pool[i]);
        prefix_rows.resize(1, width);
        prefix_rows.fill_zero();
        states.push(Some(QueryState {
            vq,
            rng: StdRng::seed_from_u64(seeds[i]),
            last,
            prefix_rows,
            row_prefix: vec![0; s],
            p_hat: vec![1.0; s],
            alive: vec![true; s],
            sampled: vec![None; schema.num_virtual()],
            virgin: true,
            done: false,
        }));
    }

    for v in 0..=max_last {
        if states.iter().all(Option::is_none) {
            break;
        }
        round.clear();
        round.extend(states.iter().enumerate().filter_map(|(i, st)| {
            let st = st.as_ref()?;
            (!st.done && v <= st.last && st.vq.step(v).is_constrained()).then_some(i)
        }));
        if round.is_empty() {
            continue;
        }

        // One stacked forward over the distinct live prefixes of every
        // non-virgin participant.
        offsets.clear();
        offsets.resize(states.len(), usize::MAX);
        let mut total_rows = 0usize;
        let mut any_virgin = false;
        for &i in round.iter() {
            let st = states[i].as_ref().expect("round member");
            if st.virgin {
                any_virgin = true;
                continue;
            }
            offsets[i] = total_rows;
            total_rows += st.prefix_rows.rows();
        }
        if total_rows > 0 {
            stacked.resize(total_rows, width);
            for &i in round.iter() {
                let st = states[i].as_ref().expect("round member");
                if st.virgin {
                    continue;
                }
                let dst_start = offsets[i] * width;
                let dst = &mut stacked.data_mut()[dst_start..dst_start + st.prefix_rows.len()];
                dst.copy_from_slice(st.prefix_rows.data());
            }
            raw.hidden_into(stacked, model);
            raw.logits_col_into(v, model);
            model.logits.softmax_rows_in_place();
        }
        let probs: Option<&Tensor> = (total_rows > 0).then_some(&model.logits);
        // Virgin participants all see the same memoized distribution.
        let first: Option<Arc<Vec<f32>>> = any_virgin.then(|| raw.first_step_probs(v));

        for &i in round.iter() {
            let st = states[i].as_mut().expect("round member");
            let offset = (offsets[i] != usize::MAX).then_some(offsets[i]);
            let first_row = first.as_ref().map(|a| a.as_slice());
            advance_query(raw, schema, st, v, probs, offset, first_row, spare, intern, created);
            if st.done {
                results[i] = st.p_hat.iter().sum::<f64>() / s as f64;
            }
        }
    }

    // Return the prefix tensors to the pool for the next batch.
    for (i, st) in states.into_iter().enumerate() {
        if let Some(st) = st {
            prefix_pool[i] = st.prefix_rows;
        }
    }
    results
}

/// Run one column round for one query, mirroring the per-step logic of
/// `progressive_sample` exactly (same kills, same p-hat updates, same RNG
/// consumption over live rows in ascending order).
#[allow(clippy::too_many_arguments)]
fn advance_query(
    raw: &RawModel,
    schema: &VirtualSchema,
    st: &mut QueryState<'_>,
    v: usize,
    probs: Option<&Tensor>,
    offset: Option<usize>,
    first: Option<&[f32]>,
    spare: &mut Tensor,
    intern: &mut HashMap<(usize, u32), usize>,
    created: &mut Vec<(usize, u32)>,
) {
    let s = st.p_hat.len();
    let domain = schema.codec(v).domain() as u32;
    let need_sample = v < st.last;
    let virgin = st.virgin;
    // Prefix-id interner for the codes drawn this round.
    intern.clear();
    created.clear();
    let mut codes = vec![0u32; s];

    let step = st.vq.step(v);
    if let StepRegion::Weighted(w) = step {
        // Fanout scaling: multiply by E[w(v) | z_<v] and importance-sample
        // from the reweighted conditional.
        // Range loop: `r` walks five parallel per-sample arrays at once.
        #[allow(clippy::needless_range_loop)]
        for r in 0..s {
            if !st.alive[r] {
                continue;
            }
            let row: &[f32] = if virgin {
                first.expect("first-step probs for virgin query")
            } else {
                let p = probs.expect("stacked probs for sampled query");
                p.row(offset.expect("stack offset") + st.row_prefix[r])
            };
            let p_w: f64 = row.iter().zip(w.iter()).map(|(&p, &wv)| p as f64 * wv).sum();
            if p_w <= 0.0 {
                st.p_hat[r] = 0.0;
                st.alive[r] = false;
                continue;
            }
            st.p_hat[r] *= p_w;
            if need_sample {
                let target: f64 = st.rng.random::<f64>() * p_w;
                let mut acc = 0.0f64;
                let mut code = domain - 1;
                for (c, (&p, &wv)) in row.iter().zip(w.iter()).enumerate() {
                    acc += p as f64 * wv;
                    if acc >= target {
                        code = c as u32;
                        break;
                    }
                }
                codes[r] = code;
                st.row_prefix[r] = intern_pair(intern, created, (st.row_prefix[r], code));
            }
        }
    } else {
        // Fixed regions are shared by every row; borrow them once instead
        // of cloning per row (split lo-regions depend on the sampled hi
        // code and stay per-row).
        let fixed_region = match step {
            StepRegion::Fixed(region) => Some(region),
            _ => None,
        };
        // Range loop: `r` walks five parallel per-sample arrays at once.
        #[allow(clippy::needless_range_loop)]
        for r in 0..s {
            if !st.alive[r] {
                continue;
            }
            let lo_region;
            let region = match (fixed_region, step) {
                (Some(region), _) => region,
                (None, StepRegion::LoOfSplit { hi_vcol, .. }) => {
                    let hi_code = st.sampled[*hi_vcol].as_ref().expect("hi sampled before lo")[r];
                    lo_region = st.vq.lo_region(v, hi_code, domain);
                    &lo_region
                }
                _ => unreachable!(),
            };
            let row: &[f32] = if virgin {
                first.expect("first-step probs for virgin query")
            } else {
                let p = probs.expect("stacked probs for sampled query");
                p.row(offset.expect("stack offset") + st.row_prefix[r])
            };
            let p_in: f64 = region.iter_codes().map(|c| row[c as usize] as f64).sum();
            if p_in <= 0.0 || region.is_empty() {
                st.p_hat[r] = 0.0;
                st.alive[r] = false;
                continue;
            }
            st.p_hat[r] *= p_in.min(1.0);
            if need_sample {
                let code = sample_in_region(row, region, p_in, &mut st.rng);
                codes[r] = code;
                st.row_prefix[r] = intern_pair(intern, created, (st.row_prefix[r], code));
            }
        }
    }

    if !need_sample {
        st.done = true; // v == last: the walk (and the estimate) is complete
        return;
    }
    st.sampled[v] = Some(codes);
    // Rebuild the prefix table from the pairs drawn this round into the
    // shared spare buffer, then swap it in. Prefixes referenced only by
    // dead rows are never interned, so they vanish here (dead-sample
    // compaction); the displaced buffer becomes the next rebuild target.
    let (bs, be) = schema.input_slice(v);
    spare.resize(created.len(), schema.input_width());
    for (id, &(parent, code)) in created.iter().enumerate() {
        let dst = spare.row_mut(id);
        dst.copy_from_slice(st.prefix_rows.row(parent));
        raw.encode_into(v, code, &mut dst[bs..be]);
    }
    std::mem::swap(&mut st.prefix_rows, spare);
    st.virgin = false;
    if created.is_empty() {
        // Every sample died; all later rounds would be no-ops with p̂ = 0.
        st.done = true;
    }
}

fn intern_pair(
    intern: &mut HashMap<(usize, u32), usize>,
    created: &mut Vec<(usize, u32)>,
    key: (usize, u32),
) -> usize {
    *intern.entry(key).or_insert_with(|| {
        created.push(key);
        created.len() - 1
    })
}
