//! How a block of phases shares its time: every phase gets a fixed
//! share of the block, and the phases are visited in interleaved rounds
//! so that a noisy second on a shared box is spread over every metric
//! instead of landing on one.

use std::time::Instant;

use crate::stats::Samples;

/// Rounds a block is split into.
pub const ROUNDS: usize = 50;

/// One timed phase of a block.
#[derive(Debug, Clone, Copy)]
pub struct Phase<P> {
    pub id: P,
    /// Relative share of the block's time.
    pub share: f64,
    /// Samples taken even when the share is too small for them.
    pub min_samples: usize,
}

/// Runs `phases` for about `budget_s` seconds and returns each phase's
/// samples, in the order given.
///
/// `sample(id)` takes one sample of phase `id` and returns its value, or
/// `None` if the operation failed.
///
/// In round `r` a phase samples until it has used `r + 1` rounds' worth
/// of its share, so a phase whose single sample costs several rounds'
/// worth sits out the rounds it has already paid for, and the block
/// ends on time whatever one sample costs.
pub fn run_block<P: Copy>(
    budget_s: f64,
    phases: &[Phase<P>],
    mut sample: impl FnMut(P) -> Option<f64>,
) -> Vec<Samples> {
    let total_share: f64 = phases.iter().map(|p| p.share).sum();
    let slices: Vec<f64> =
        phases.iter().map(|p| budget_s * p.share / total_share / ROUNDS as f64).collect();
    let mut used = vec![0.0f64; phases.len()];
    let mut out = vec![Samples::default(); phases.len()];
    let mut take = |i: usize, used: &mut [f64], out: &mut [Samples]| {
        let start = Instant::now();
        if let Some(v) = sample(phases[i].id) {
            out[i].push(v);
        }
        // The whole call counts against the share, checks included.
        used[i] += start.elapsed().as_secs_f64();
    };
    for round in 0..ROUNDS {
        for i in 0..phases.len() {
            while used[i] < (round + 1) as f64 * slices[i] {
                take(i, &mut used, &mut out);
            }
        }
    }
    for (i, phase) in phases.iter().enumerate() {
        // A failing operation yields no sample: bound the top-up.
        for _ in 0..phase.min_samples {
            if out[i].len() >= phase.min_samples {
                break;
            }
            take(i, &mut used, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cheap_phases_fill_their_share_and_dear_ones_get_the_minimum() {
        let phases = [
            Phase { id: 0usize, share: 1.0, min_samples: 3 },
            Phase { id: 1usize, share: 1.0, min_samples: 3 },
        ];
        let start = Instant::now();
        let mut order = Vec::new();
        let out = run_block(0.2, &phases, |id| {
            order.push(id);
            // Phase 1 costs four rounds' worth per sample.
            std::thread::sleep(Duration::from_millis(if id == 1 { 40 } else { 1 }));
            Some(1.0)
        });
        let elapsed = start.elapsed().as_secs_f64();
        assert!(out[0].len() >= 20, "cheap phase took {} samples", out[0].len());
        assert_eq!(out[1].len(), 3, "dear phase is topped up to its minimum");
        assert!(elapsed < 0.5, "block overran: {elapsed}s");
        // The dear phase is spread over the block, not bunched at its start.
        let last_dear = order.iter().rposition(|&id| id == 1).unwrap();
        let cheap_before = order[..last_dear].iter().filter(|&&id| id == 0).count();
        assert!(cheap_before >= 10, "only {cheap_before} cheap samples before the last dear one");
    }

    #[test]
    fn a_failing_phase_ends() {
        let phases = [Phase { id: (), share: 1.0, min_samples: 4 }];
        let mut calls = 0;
        let out = run_block(0.01, &phases, |()| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
            None
        });
        assert_eq!(out[0].len(), 0);
        assert!((4..40).contains(&calls));
    }
}
