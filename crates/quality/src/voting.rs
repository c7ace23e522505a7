//! Redundancy-based vote aggregation.

/// One worker's answer for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Identifier of the voting worker (opaque here; `WorkerId.0` upstream).
    pub worker: u32,
    /// The label the worker chose.
    pub label: u32,
}

/// Plurality vote over labels. Ties break toward the label that reached
/// its final count *first* (stable for streaming use: the earliest-leading
/// answer wins), which also makes the result invariant to label value.
///
/// Returns `None` on an empty vote set.
pub fn majority_vote(votes: &[Vote]) -> Option<u32> {
    // label -> (count, first index at which it took its final value)
    let mut tally: Vec<(u32, usize, usize)> = Vec::new();
    for (i, v) in votes.iter().enumerate() {
        match tally.iter_mut().find(|(l, _, _)| *l == v.label) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 = i;
            }
            None => tally.push((v.label, 1, i)),
        }
    }
    tally
        .into_iter()
        // Max count; ties -> earliest final update (smaller index wins),
        // then smaller label, purely for determinism.
        .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(b.0.cmp(&a.0)))
        .map(|(l, _, _)| l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(worker: u32, label: u32) -> Vote {
        Vote { worker, label }
    }

    #[test]
    fn simple_majority() {
        assert_eq!(majority_vote(&[v(0, 1), v(1, 1), v(2, 0)]), Some(1));
        assert_eq!(majority_vote(&[v(0, 2)]), Some(2));
        assert_eq!(majority_vote(&[]), None);
    }

    #[test]
    fn majority_invariant_to_permutation() {
        let votes = [v(0, 1), v(1, 1), v(2, 0), v(3, 1), v(4, 0)];
        let mut perm = votes;
        perm.reverse();
        assert_eq!(majority_vote(&votes), majority_vote(&perm));
        assert_eq!(majority_vote(&votes), Some(1));
    }

    #[test]
    fn tie_breaks_toward_earlier_leader() {
        // 0 and 1 each get two votes; label 0 completed its tally first.
        assert_eq!(majority_vote(&[v(0, 0), v(1, 0), v(2, 1), v(3, 1)]), Some(0));
        assert_eq!(majority_vote(&[v(0, 1), v(1, 1), v(2, 0), v(3, 0)]), Some(1));
    }

    // ------------------------------------------------------------------
    // Edge cases: empty ballots and exact ties must behave predictably —
    // the runner's complete_task leans on this determinism.
    // ------------------------------------------------------------------

    #[test]
    fn empty_ballots_never_invent_labels() {
        assert_eq!(majority_vote(&[]), None);
    }

    #[test]
    fn all_singleton_tie_picks_the_earliest_vote() {
        // Every label has exactly one vote: the first ballot cast wins,
        // regardless of label values or worker ids.
        assert_eq!(majority_vote(&[v(9, 3), v(1, 0), v(2, 2)]), Some(3));
        assert_eq!(majority_vote(&[v(0, 0), v(1, 3), v(2, 2)]), Some(0));
    }

    #[test]
    fn exact_tie_is_deterministic_across_repeats() {
        // A 2-2 tie resolves by earliest-final-count, identically on
        // every evaluation (no hidden iteration-order dependence).
        let votes = [v(0, 1), v(1, 0), v(2, 0), v(3, 1)];
        let first = majority_vote(&votes);
        for _ in 0..100 {
            assert_eq!(majority_vote(&votes), first);
        }
        assert_eq!(first, Some(0), "label 0 reached its final count at index 2 < 3");
    }

    #[test]
    fn exact_tie_is_label_value_invariant() {
        // Swapping which label value the earlier-finishing side uses must
        // track the position, not the numeric value.
        assert_eq!(majority_vote(&[v(0, 7), v(1, 7), v(2, 1), v(3, 1)]), Some(7));
        assert_eq!(majority_vote(&[v(0, 1), v(1, 1), v(2, 7), v(3, 7)]), Some(1));
    }
}
