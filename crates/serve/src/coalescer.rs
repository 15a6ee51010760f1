//! The admission queue: tickets requests in arrival order and coalesces
//! them per model into fixed-window [`SealedBatch`]es.
//!
//! The batch window is counted in **requests, not time**: a wall-clock
//! window would make batch composition depend on scheduling jitter and
//! break the repository's determinism contract. With a count-based
//! window, the sealed-batch sequence is a pure function of the admission
//! sequence — the property `tests/determinism.rs` checks across worker
//! thread counts.
//!
//! Admission is also where a request's pixels are copied, once: straight
//! into its model's pending [`RequestSlab`], which the sealed batch then
//! carries to the model's `predict_batch` unchanged.

use nc_dataset::model::EVAL_PRESENTATION_SEED_BASE;
use nc_dataset::RequestSlab;

/// A request's identity from admission to response: dense, monotone
/// admission order (ticket `n` is the `n`-th request the coalescer ever
/// admitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// The presentation seed a served item must replay: the same
/// `EVAL_PRESENTATION_SEED_BASE | item` convention positional offline
/// evaluation uses, keyed by the *item's* stream index rather than its
/// position in whatever batch it was coalesced into.
pub fn presentation_seed(item: u64) -> u64 {
    EVAL_PRESENTATION_SEED_BASE | item
}

/// One admitted request, waiting in or sealed into a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedRequest {
    /// Admission-order identity.
    pub ticket: Ticket,
    /// Index of the model snapshot the request addresses.
    pub model: usize,
    /// The item's stream index — the seed key (see
    /// [`presentation_seed`]) and, in conformance tests, the offline
    /// dataset position.
    pub item: u64,
    /// Absolute virtual-tick deadline (admission tick + the policy's
    /// `deadline_ticks`), or `None` when the server enforces none. The
    /// server checks it at seal and again at (possibly chaos-delayed)
    /// completion.
    pub deadline: Option<u64>,
}

/// A batch sealed for execution: one model, at most `window` requests,
/// in admission order, and their images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBatch {
    /// Seal-order sequence number, monotone across all models.
    pub seq: u64,
    /// Index of the model snapshot every request addresses.
    pub model: usize,
    /// The requests, in admission order.
    pub requests: Vec<CoalescedRequest>,
    /// The requests' images and presentation seeds: slab item `k` is
    /// request `k`'s pixels with seed `presentation_seed(item)`.
    pub slab: RequestSlab,
}

/// The admission queue. Not thread-safe by itself — the [`Server`]
/// guards it with its state mutex; keeping it lock-free makes the
/// determinism property directly testable.
///
/// [`Server`]: crate::Server
#[derive(Debug)]
pub struct Coalescer {
    window: usize,
    /// Each model's `(input_dim, num_classes)`, the shape of its slabs.
    shapes: Vec<(usize, usize)>,
    pending: Vec<Vec<CoalescedRequest>>,
    /// Each model's pending slab, item `k` being pending request `k`.
    slabs: Vec<RequestSlab>,
    sealed: Vec<SealedBatch>,
    next_ticket: u64,
    next_seq: u64,
}

impl Coalescer {
    /// An empty queue over one snapshot per `(input_dim, num_classes)`
    /// in `models`, sealing at `window` requests per batch (`window` is
    /// clamped to at least 1).
    pub fn new(models: &[(usize, usize)], window: usize) -> Coalescer {
        Coalescer {
            window: window.max(1),
            shapes: models.to_vec(),
            pending: models.iter().map(|_| Vec::new()).collect(),
            slabs: models
                .iter()
                .map(|&(input_dim, num_classes)| RequestSlab::new(input_dim, num_classes))
                .collect(),
            sealed: Vec::new(),
            next_ticket: 0,
            next_seq: 0,
        }
    }

    /// Admits one request for model index `model`, copying `pixels`
    /// and the item's [`presentation_seed`] into the model's pending
    /// slab, and seals that model's pending batch if it reaches the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range or `pixels` is not the model's
    /// `input_dim` long — the server validates both before admission.
    pub fn admit(
        &mut self,
        model: usize,
        item: u64,
        pixels: &[u8],
        deadline: Option<u64>,
    ) -> Ticket {
        let pushed = self.slabs[model].push(pixels, presentation_seed(item), 0);
        assert!(pushed.is_ok(), "pixels must be the model's input_dim long");
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.pending[model].push(CoalescedRequest {
            ticket,
            model,
            item,
            deadline,
        });
        if self.pending[model].len() >= self.window {
            self.seal(model);
        }
        ticket
    }

    fn seal(&mut self, model: usize) {
        if self.pending[model].is_empty() {
            return;
        }
        let (input_dim, num_classes) = self.shapes[model];
        let requests = std::mem::take(&mut self.pending[model]);
        let slab = std::mem::replace(
            &mut self.slabs[model],
            RequestSlab::new(input_dim, num_classes),
        );
        self.sealed.push(SealedBatch {
            seq: self.next_seq,
            model,
            requests,
            slab,
        });
        self.next_seq += 1;
    }

    /// Seals every non-empty partial batch, in model-index order — the
    /// deterministic stand-in for a batch-window timeout.
    pub fn flush(&mut self) {
        for model in 0..self.pending.len() {
            self.seal(model);
        }
    }

    /// Takes every sealed batch, in seal order.
    pub fn take_sealed(&mut self) -> Vec<SealedBatch> {
        std::mem::take(&mut self.sealed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_seals_exactly_on_the_count() {
        let mut c = Coalescer::new(&[(1, 1); 2], 3);
        for i in 0..5u64 {
            c.admit(0, i, &[0], None);
        }
        c.admit(1, 100, &[1], None);
        // Model 0 sealed once at 3; 2 + 1 requests still pending.
        assert_eq!(c.pending.iter().map(Vec::len).sum::<usize>(), 3);
        let sealed = c.take_sealed();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].seq, 0);
        assert_eq!(sealed[0].model, 0);
        assert_eq!(sealed[0].requests.len(), 3);
        assert_eq!(sealed[0].requests[2].ticket, Ticket(2));
    }

    #[test]
    fn flush_seals_partials_in_model_order() {
        let mut c = Coalescer::new(&[(0, 1); 3], 8);
        c.admit(2, 0, &[], None);
        c.admit(0, 1, &[], None);
        c.admit(2, 2, &[], None);
        c.flush();
        let sealed = c.take_sealed();
        assert_eq!(
            sealed.iter().map(|b| b.model).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(sealed[1].requests.len(), 2);
        assert!(c.pending.iter().all(Vec::is_empty));
        // Flushing an empty queue seals nothing.
        c.flush();
        assert!(c.take_sealed().is_empty());
    }

    #[test]
    fn tickets_are_dense_and_monotone_across_models() {
        let mut c = Coalescer::new(&[(0, 1); 4], 1);
        let tickets: Vec<u64> = (0..8).map(|i| c.admit(i % 4, 0, &[], None).0).collect();
        assert_eq!(tickets, (0..8).collect::<Vec<u64>>());
        assert_eq!(c.take_sealed().len(), 8);
    }

    #[test]
    fn zero_window_is_clamped_to_one() {
        let mut c = Coalescer::new(&[(0, 1)], 0);
        assert_eq!(c.window, 1);
        c.admit(0, 0, &[], None);
        assert_eq!(c.take_sealed().len(), 1);
    }

    #[test]
    fn deadlines_ride_through_sealing_untouched() {
        let mut c = Coalescer::new(&[(0, 1)], 2);
        c.admit(0, 0, &[], Some(7));
        c.admit(0, 1, &[], None);
        let sealed = c.take_sealed();
        assert_eq!(sealed[0].requests[0].deadline, Some(7));
        assert_eq!(sealed[0].requests[1].deadline, None);
    }

    #[test]
    fn presentation_seed_matches_the_offline_convention() {
        assert_eq!(presentation_seed(0), EVAL_PRESENTATION_SEED_BASE);
        assert_eq!(presentation_seed(41), EVAL_PRESENTATION_SEED_BASE | 41);
    }
}
