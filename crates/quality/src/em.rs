//! Dawid–Skene-style EM worker-quality estimation.
//!
//! A "one-coin" variant of Dawid & Skene (1979): each worker `w` is
//! modeled by a single accuracy `λ_w` (probability of answering
//! correctly, errors uniform over wrong labels). EM alternates:
//!
//! * **E-step** — posterior over each item's true class given current
//!   worker accuracies;
//! * **M-step** — re-estimate each worker's accuracy as the expected
//!   fraction of items they matched.
//!
//! This is the estimation family the paper's quality-control discussion
//! cites (Ipeirotis, Provost & Wang 2010; Karger, Oh & Shah 2011), and it
//! exactly matches the worker model of the paper's simulator (correct with
//! probability `λ_i`, else uniform wrong), so planted parameters are
//! recoverable — which the tests verify.

use std::collections::BTreeMap;

/// A (worker, item, label) observation matrix in sparse form.
#[derive(Debug, Clone, Default)]
pub struct DawidSkene {
    /// Observations: `(worker, item, label)`.
    obs: Vec<(u32, u32, u32)>,
    n_classes: u32,
}

/// EM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Maximum EM iterations.
    pub max_iters: u32,
    /// Stop when no item posterior changes by more than this.
    pub tol: f64,
    /// Beta-style smoothing pseudo-counts on worker accuracy.
    pub smoothing: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig { max_iters: 50, tol: 1e-6, smoothing: 1.0 }
    }
}

/// EM output.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// Consensus (MAP) label per item.
    pub labels: BTreeMap<u32, u32>,
    /// Estimated accuracy per worker.
    pub worker_accuracy: BTreeMap<u32, f64>,
    /// Iterations run.
    pub iterations: u32,
}

impl DawidSkene {
    /// New empty observation set over `n_classes` classes.
    pub fn new(n_classes: u32) -> Self {
        assert!(n_classes >= 2);
        DawidSkene { obs: Vec::new(), n_classes }
    }

    /// Record that `worker` labeled `item` as `label`.
    pub fn observe(&mut self, worker: u32, item: u32, label: u32) {
        assert!(label < self.n_classes, "label out of range");
        self.obs.push((worker, item, label));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// Run EM and return consensus labels plus worker accuracies.
    pub fn run(&self, cfg: &EmConfig) -> EmResult {
        let k = self.n_classes as usize;
        let items: Vec<u32> = {
            let mut v: Vec<u32> = self.obs.iter().map(|&(_, i, _)| i).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let workers: Vec<u32> = {
            let mut v: Vec<u32> = self.obs.iter().map(|&(w, _, _)| w).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let item_index: BTreeMap<u32, usize> =
            items.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        let worker_index: BTreeMap<u32, usize> =
            workers.iter().enumerate().map(|(i, &x)| (x, i)).collect();

        // Optimistic accuracy initialization (workers assumed decent):
        // starting the E-step from confident accuracies gives sharp item
        // posteriors and avoids the well-known soft fixed point that
        // vote-count initialization falls into when most workers are
        // barely better than chance.
        let mut post = vec![vec![1.0 / k as f64; k]; items.len()];
        let mut acc = vec![0.8f64; workers.len()];
        let mut iterations = 0;

        for it in 0..cfg.max_iters {
            iterations = it + 1;
            // E-step: item posteriors from worker accuracies.
            let mut delta: f64 = 0.0;
            let mut log_lik = vec![vec![0.0f64; k]; items.len()];
            for &(worker, item, label) in &self.obs {
                let wi = worker_index[&worker];
                let a = acc[wi];
                let wrong = (1.0 - a) / (k as f64 - 1.0);
                let ll = &mut log_lik[item_index[&item]];
                for (c, l) in ll.iter_mut().enumerate() {
                    *l += if c as u32 == label { a.ln() } else { wrong.ln() };
                }
            }
            for (p, ll) in post.iter_mut().zip(&log_lik) {
                let max = ll.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut s = 0.0;
                let mut newp = vec![0.0; k];
                for (np, &l) in newp.iter_mut().zip(ll) {
                    *np = (l - max).exp();
                    s += *np;
                }
                for (np, old) in newp.iter_mut().zip(p.iter()) {
                    *np /= s;
                    delta = delta.max((*np - old).abs());
                }
                *p = newp;
            }

            // M-step: worker accuracy = expected match rate against the
            // posterior consensus. Note this is the *soft* update: when
            // most of the pool is near chance the posteriors stay soft and
            // the estimates compress toward the middle, but their ordering
            // is preserved — which is all the downstream consumers
            // (vote weighting, quality-based maintenance) rely on. The
            // hard-assignment variant calibrates better in easy regimes
            // but can self-amplify a wrong consensus, so we keep soft.
            let mut match_w = vec![cfg.smoothing; workers.len()];
            let mut total_w = vec![2.0 * cfg.smoothing; workers.len()];
            for &(worker, item, label) in &self.obs {
                let wi = worker_index[&worker];
                let p_match = post[item_index[&item]][label as usize];
                match_w[wi] += p_match;
                total_w[wi] += 1.0;
            }
            for (a, (m, t)) in acc.iter_mut().zip(match_w.iter().zip(&total_w)) {
                // Clamp into (1/k, 1) so log-likelihoods stay finite and a
                // worker is never treated as worse than adversarial.
                *a = (m / t).clamp(1.0 / k as f64 + 1e-6, 1.0 - 1e-6);
            }

            if it > 0 && delta < cfg.tol {
                break;
            }
        }

        let labels = items
            .iter()
            .map(|&item| {
                let p = &post[item_index[&item]];
                let best = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c as u32)
                    .unwrap_or(0);
                (item, best)
            })
            .collect();
        let worker_accuracy = workers.iter().zip(&acc).map(|(&w, &a)| (w, a)).collect();
        EmResult { labels, worker_accuracy, iterations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_sim::rng::Rng;

    /// Plant a ground truth and simulate workers with known accuracies.
    fn planted(n_items: u32, n_classes: u32, accs: &[f64], seed: u64) -> (DawidSkene, Vec<u32>) {
        let mut rng = Rng::new(seed);
        let truth: Vec<u32> =
            (0..n_items).map(|_| rng.next_below(n_classes as u64) as u32).collect();
        let mut ds = DawidSkene::new(n_classes);
        for (w, &a) in accs.iter().enumerate() {
            for item in 0..n_items {
                let label = if rng.bernoulli(a) {
                    truth[item as usize]
                } else {
                    let wrong = rng.next_below(n_classes as u64 - 1) as u32;
                    if wrong >= truth[item as usize] {
                        wrong + 1
                    } else {
                        wrong
                    }
                };
                ds.observe(w as u32, item, label);
            }
        }
        (ds, truth)
    }

    #[test]
    fn recovers_planted_labels() {
        let (ds, truth) = planted(150, 3, &[0.9, 0.85, 0.8, 0.75, 0.7], 1);
        let res = ds.run(&EmConfig::default());
        let correct =
            truth.iter().enumerate().filter(|(i, &t)| res.labels[&(*i as u32)] == t).count();
        let acc = correct as f64 / truth.len() as f64;
        assert!(acc > 0.95, "consensus accuracy={acc}");
    }

    #[test]
    fn recovers_planted_worker_accuracies() {
        let planted_accs = [0.95, 0.8, 0.65];
        let (ds, _) = planted(400, 4, &planted_accs, 2);
        let res = ds.run(&EmConfig::default());
        for (w, &a) in planted_accs.iter().enumerate() {
            let est = res.worker_accuracy[&(w as u32)];
            assert!((est - a).abs() < 0.06, "worker {w}: est={est} planted={a}");
        }
        // Ordering preserved.
        assert!(res.worker_accuracy[&0] > res.worker_accuracy[&1]);
        assert!(res.worker_accuracy[&1] > res.worker_accuracy[&2]);
    }

    #[test]
    fn em_beats_majority_with_one_expert() {
        // One expert + four coin-flippers: majority vote is noisy, EM
        // should learn to trust the expert.
        let (ds, truth) = planted(300, 2, &[0.97, 0.55, 0.55, 0.55, 0.55], 3);
        let res = ds.run(&EmConfig::default());
        let em_correct =
            truth.iter().enumerate().filter(|(i, &t)| res.labels[&(*i as u32)] == t).count() as f64
                / truth.len() as f64;
        // Plain (unweighted) majority over the same votes, for comparison.
        let mut by_item: BTreeMap<u32, Vec<crate::voting::Vote>> = BTreeMap::new();
        // Re-derive votes from the observation set.
        for &(w, i, l) in &ds.obs {
            by_item.entry(i).or_default().push(crate::voting::Vote { worker: w, label: l });
        }
        let mv_correct = truth
            .iter()
            .enumerate()
            .filter(|(i, &t)| crate::voting::majority_vote(&by_item[&(*i as u32)]) == Some(t))
            .count() as f64
            / truth.len() as f64;
        assert!(em_correct > 0.85, "em accuracy={em_correct}");
        assert!(
            em_correct >= mv_correct - 0.02,
            "EM ({em_correct}) should not lose to majority ({mv_correct})"
        );
        // Soft EM compresses the absolute estimates in this near-chance
        // regime, but must still rank the expert clearly first.
        for w in 1..=4u32 {
            assert!(
                res.worker_accuracy[&0] > res.worker_accuracy[&w] + 0.05,
                "{:?}",
                res.worker_accuracy
            );
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let ds = DawidSkene::new(2);
        assert!(ds.is_empty());
        let res = ds.run(&EmConfig::default());
        assert!(res.labels.is_empty());
        assert!(res.worker_accuracy.is_empty());
    }

    #[test]
    fn converges_quickly_on_unanimous_data() {
        let mut ds = DawidSkene::new(2);
        for item in 0..20 {
            for w in 0..3 {
                ds.observe(w, item, 1);
            }
        }
        let res = ds.run(&EmConfig::default());
        assert!(res.iterations < 10, "iterations={}", res.iterations);
        assert!(res.labels.values().all(|&l| l == 1));
    }

    #[test]
    #[should_panic]
    fn observe_rejects_out_of_range() {
        let mut ds = DawidSkene::new(2);
        ds.observe(0, 0, 5);
    }

    // ------------------------------------------------------------------
    // Degenerate inputs: EM must stay finite and deterministic when the
    // observation matrix carries no disagreement signal at all.
    // ------------------------------------------------------------------

    #[test]
    fn degenerate_all_identical_answers_is_stable() {
        // Every worker gives the same label to every item: the confusion
        // signal is rank-one, a classic EM degeneracy. Consensus must be
        // that label, accuracies finite and clamped, and the whole result
        // identical on every run (deterministic tie-breaking, no NaNs).
        let mut ds = DawidSkene::new(3);
        for item in 0..12 {
            for w in 0..4 {
                ds.observe(w, item, 2);
            }
        }
        let a = ds.run(&EmConfig::default());
        let b = ds.run(&EmConfig::default());
        assert!(a.labels.values().all(|&l| l == 2));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
        for (&w, &acc) in &a.worker_accuracy {
            assert!(acc.is_finite() && (0.0..=1.0).contains(&acc), "worker {w}: {acc}");
            assert_eq!(acc, b.worker_accuracy[&w], "accuracy must be reproducible");
        }
    }

    #[test]
    fn single_worker_single_item_converges() {
        let mut ds = DawidSkene::new(2);
        ds.observe(0, 0, 1);
        let res = ds.run(&EmConfig::default());
        assert_eq!(res.labels[&0], 1);
        assert!(res.worker_accuracy[&0].is_finite());
        assert!(res.iterations <= EmConfig::default().max_iters);
    }

    #[test]
    fn perfectly_split_votes_break_ties_deterministically() {
        // Two workers, always contradicting each other: item posteriors
        // are exactly symmetric. The MAP label must still be chosen the
        // same way every run (argmax takes the lowest index on ties).
        let mut ds = DawidSkene::new(2);
        for item in 0..10 {
            ds.observe(0, item, 0);
            ds.observe(1, item, 1);
        }
        let a = ds.run(&EmConfig::default());
        let b = ds.run(&EmConfig::default());
        assert_eq!(a.labels, b.labels);
        // Symmetric evidence: both accuracies equal and finite.
        let w0 = a.worker_accuracy[&0];
        let w1 = a.worker_accuracy[&1];
        assert!(w0.is_finite() && w1.is_finite());
        assert!((w0 - w1).abs() < 1e-9, "symmetric workers must tie: {w0} vs {w1}");
    }
}
