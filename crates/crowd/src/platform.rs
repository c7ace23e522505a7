//! The simulated crowd platform.
//!
//! [`SimPlatform`] is the stochastic half of the reproduction: it
//! recruits workers and makes every platform-side random draw —
//! recruitment delays, worker profiles, latency inflation — and owns the
//! cost ledger. It keeps no per-worker state. Each arrival is handed out
//! as a [`Worker`] value (id, profile and an independent forked RNG
//! stream) that belongs to whoever holds the worker, so a departed
//! worker's state goes when its holder drops it. Because every worker
//! draws from its own stream, adding or removing one worker never
//! perturbs another worker's behaviour (critical for paired comparisons
//! like "same seed, maintenance on vs off").

use crate::payment::CostLedger;
use clamshell_sim::dist::{Exponential, Sample};
use clamshell_sim::json::ToJson;
use clamshell_sim::rng::Rng;
use clamshell_sim::time::SimDuration;
use clamshell_trace::{Population, WorkerProfile};

/// Opaque identifier of a recruited worker. Ordered, so collections keyed
/// by `WorkerId` iterate deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

/// Writes as the bare id.
impl ToJson for WorkerId {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Mechanism-level platform parameters (all from §6.1 of the paper unless
/// noted).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Dollars per minute paid to workers waiting in the retainer pool
    /// ($0.05).
    pub wait_pay_per_min: f64,
    /// Dollars per record labeled ($0.02).
    pub pay_per_record: f64,
    /// Cost of posting one recruitment task.
    pub recruitment_fee: f64,
    /// Qualification & training time once a worker accepts a retainer
    /// task, before they can receive real work (§2.1 phase 2).
    pub qualification: SimDuration,
    /// Overhead a worker pays when their in-flight assignment is
    /// terminated ("workers must click a dialog to finish the old task and
    /// be presented with a new one, which takes seconds", §6.3).
    pub termination_overhead: SimDuration,
    /// Whether terminated (partial) work is still paid — the paper always
    /// pays it ("it pays them for their partial work on the old task
    /// regardless", §4.1).
    pub pay_terminated_work: bool,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            wait_pay_per_min: clamshell_trace::calibration::pricing::WAIT_PER_MIN,
            pay_per_record: clamshell_trace::calibration::pricing::PER_RECORD,
            recruitment_fee: 0.05,
            qualification: SimDuration::from_secs(30),
            termination_overhead: SimDuration::from_secs(3),
            pay_terminated_work: true,
        }
    }
}

/// A recruited worker: their id, immutable generative profile and
/// private RNG stream. The record is a value owned by whoever holds the
/// worker; draws that need only the worker are methods here, so they
/// never touch the platform. It is deliberately not `Clone`: a copy
/// would replay the worker's stream.
#[derive(Debug)]
pub struct Worker {
    /// The worker's id, unique within one platform.
    pub id: WorkerId,
    /// The generative profile the worker's draws follow.
    pub profile: WorkerProfile,
    rng: Rng,
}

impl Worker {
    /// Sample the worker's answers for a task whose records have ground
    /// truth `truths`, each out of `n_classes`, appending into a
    /// caller-owned buffer (the runner's label arena) instead of
    /// allocating.
    pub fn sample_labels_into(&mut self, truths: &[u32], n_classes: u32, out: &mut Vec<u32>) {
        out.extend(truths.iter().map(|&t| self.profile.sample_label(t, n_classes, &mut self.rng)));
    }

    /// Sample how long the worker will tolerate waiting idle before
    /// abandoning the retainer pool (exponential around their patience).
    pub fn sample_patience(&mut self) -> SimDuration {
        let mean = self.profile.patience.as_secs_f64().max(1.0);
        SimDuration::from_secs_f64(Exponential::from_mean(mean).sample(&mut self.rng))
    }
}

/// The simulated crowd platform (see crate docs).
#[derive(Debug)]
pub struct SimPlatform {
    population: Population,
    config: PlatformConfig,
    /// Workers recruited so far; the next arrival's id.
    recruited: u32,
    rng: Rng,
    ledger: CostLedger,
    /// Platform-level fault injection (archetype overlays, latency
    /// inflation). `None` on the benign path: a fault-free platform is
    /// bit-identical to one built before faults existed.
    faults: Option<crate::faults::FaultState>,
}

impl SimPlatform {
    /// Create a platform over `population` with deterministic `seed`.
    pub fn new(population: Population, config: PlatformConfig, seed: u64) -> Self {
        SimPlatform {
            population,
            config,
            recruited: 0,
            rng: Rng::new(seed),
            ledger: CostLedger::new(),
            faults: None,
        }
    }

    /// Create a platform with platform-level fault injection layered on.
    /// Fault draws come from dedicated streams (see
    /// [`clamshell_sim::faults::fault_stream`]), so every benign draw —
    /// worker profiles, recruitment delays, per-worker behaviour — is
    /// identical to the fault-free platform under the same seed.
    pub fn with_faults(
        population: Population,
        config: PlatformConfig,
        seed: u64,
        faults: crate::faults::CrowdFaults,
    ) -> Self {
        let mut platform = Self::new(population, config, seed);
        if faults.is_active() {
            platform.faults = Some(crate::faults::FaultState::new(faults, seed));
        }
        platform
    }

    /// Platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Immutable view of the cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Number of workers ever recruited.
    pub fn workers_recruited(&self) -> usize {
        self.recruited as usize
    }

    /// Post a recruitment task: charges the posting fee and returns the
    /// sampled delay until a (new) worker accepts, *including* the
    /// qualification/training phase, after which the caller should invoke
    /// [`SimPlatform::worker_arrives`].
    pub fn start_recruitment(&mut self) -> SimDuration {
        self.ledger.charge_recruitment(self.config.recruitment_fee);
        self.population.sample_recruitment(&mut self.rng) + self.config.qualification
    }

    /// A recruited worker arrives: samples their profile and forks their
    /// RNG stream, returning the new [`Worker`]. With archetype faults
    /// active, the sampled profile may be rewritten into a spammer /
    /// adversarial / sleepy overlay — the base draw (and hence every
    /// *other* worker's profile) is untouched.
    pub fn worker_arrives(&mut self) -> Worker {
        let id = WorkerId(self.recruited);
        self.recruited += 1;
        let mut profile = self.population.sample_profile(&mut self.rng);
        if let Some(fs) = &mut self.faults {
            profile = fs.overlay_profile(profile);
        }
        // clamshell-lint: allow(D004) -- per-worker fork: WorkerIds are unique by construction and the label namespace is this platform's own stream
        let rng = self.rng.fork(id.0 as u64);
        Worker { id, profile, rng }
    }

    /// Sample how long worker `w` takes for a task grouping `ng` records.
    /// With latency-inflation faults active, the worker's own draw is
    /// multiplied by a heavy-tailed factor sampled from a dedicated fault
    /// stream (the worker's stream advances exactly as on the benign
    /// path).
    pub fn sample_task_duration(&mut self, w: &mut Worker, ng: u32) -> SimDuration {
        let secs = w.profile.sample_task_secs(ng, &mut w.rng);
        let mult = match &mut self.faults {
            Some(fs) => fs.duration_multiplier(),
            None => 1.0,
        };
        SimDuration::from_secs_f64(secs * mult)
    }

    /// Pay a worker for waiting `dur` in the retainer pool.
    pub fn pay_wait(&mut self, dur: SimDuration) {
        self.ledger.charge_wait(dur, self.config.wait_pay_per_min);
    }

    /// Pay for `records` labeled (completed work).
    pub fn pay_records(&mut self, records: u64) {
        self.ledger.charge_work(records, self.config.pay_per_record);
    }

    /// Pay for a terminated assignment's partial work (if configured).
    pub fn pay_terminated(&mut self, records: u64) {
        if self.config.pay_terminated_work {
            self.ledger.charge_work(records, self.config.pay_per_record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(seed: u64) -> SimPlatform {
        SimPlatform::new(Population::mturk_live(), PlatformConfig::default(), seed)
    }

    /// A worker with a fixed profile and a stream forked from `seed` by
    /// id, the way [`SimPlatform::worker_arrives`] forks one.
    fn fixed_worker(seed: u64, id: u32, mean: f64, accuracy: f64) -> Worker {
        Worker {
            id: WorkerId(id),
            profile: WorkerProfile::fixed(mean, 0.2, accuracy),
            rng: Rng::new(seed).fork(id as u64),
        }
    }

    #[test]
    fn recruitment_charges_fee_and_returns_delay() {
        let mut p = platform(1);
        let d = p.start_recruitment();
        assert!(d >= p.config().qualification);
        assert_eq!(p.ledger().recruit_micro, 50_000);
        let w = p.worker_arrives();
        assert_eq!(w.id, WorkerId(0));
        assert_eq!(p.workers_recruited(), 1);
    }

    #[test]
    fn worker_ids_are_sequential() {
        let mut p = platform(2);
        for i in 0..5 {
            p.start_recruitment();
            assert_eq!(p.worker_arrives().id, WorkerId(i));
        }
        assert_eq!(p.workers_recruited(), 5);
    }

    #[test]
    fn task_durations_track_worker_profile() {
        let mut p = platform(3);
        let mut fast = fixed_worker(3, 0, 2.0, 0.9);
        let mut slow = fixed_worker(3, 1, 20.0, 0.9);
        let n = 2000;
        let mut mean = |w: &mut Worker| {
            (0..n).map(|_| p.sample_task_duration(w, 1).as_secs_f64()).sum::<f64>() / n as f64
        };
        let fmean = mean(&mut fast);
        let smean = mean(&mut slow);
        assert!((fmean - 2.0).abs() < 0.1, "fmean={fmean}");
        assert!((smean - 20.0).abs() < 0.5, "smean={smean}");
    }

    #[test]
    fn labels_respect_accuracy() {
        let mut w = fixed_worker(4, 0, 2.0, 1.0);
        let truths = vec![0, 1, 2, 3];
        let mut out = vec![9];
        w.sample_labels_into(&truths, 4, &mut out);
        assert_eq!(out, [9, 0, 1, 2, 3], "answers are appended after existing contents");
    }

    #[test]
    fn worker_streams_are_independent() {
        // Worker 0's draws must be identical whether or not worker 1 ever
        // samples anything.
        let mut p = platform(7);
        let mut a1 = fixed_worker(7, 0, 5.0, 0.9);
        let seq1: Vec<u64> =
            (0..10).map(|_| p.sample_task_duration(&mut a1, 1).as_millis()).collect();
        let mut a2 = fixed_worker(7, 0, 5.0, 0.9);
        let mut b2 = fixed_worker(7, 1, 5.0, 0.9);
        for _ in 0..500 {
            p.sample_task_duration(&mut b2, 1); // interleave other worker's draws
        }
        let seq2: Vec<u64> =
            (0..10).map(|_| p.sample_task_duration(&mut a2, 1).as_millis()).collect();
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn payments_accumulate() {
        let mut p = platform(5);
        p.pay_wait(SimDuration::from_mins(1));
        p.pay_records(5);
        p.pay_terminated(5);
        // $0.05 + 5*$0.02 + 5*$0.02 = $0.25
        assert_eq!(p.ledger().total_micro(), 250_000);
    }

    #[test]
    fn terminated_pay_can_be_disabled() {
        let cfg = PlatformConfig { pay_terminated_work: false, ..Default::default() };
        let mut p = SimPlatform::new(Population::mturk_live(), cfg, 6);
        p.pay_terminated(5);
        assert_eq!(p.ledger().total_micro(), 0);
    }

    #[test]
    fn faults_never_perturb_benign_streams() {
        use crate::faults::{CrowdFaults, LatencyInflation};
        use clamshell_trace::ArchetypeMix;
        // A platform with a zero-rate archetype mix and zero-rate
        // inflation must replay the fault-free platform draw for draw:
        // fault decisions come from dedicated streams only.
        let run = |faults: Option<CrowdFaults>| {
            let pop = Population::mturk_live();
            let mut p = match faults {
                Some(f) => SimPlatform::with_faults(pop, PlatformConfig::default(), 21, f),
                None => SimPlatform::new(pop, PlatformConfig::default(), 21),
            };
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(p.start_recruitment().as_millis());
                let mut w = p.worker_arrives();
                out.extend((0..5).map(|_| p.sample_task_duration(&mut w, 3).as_millis()));
                out.push(w.sample_patience().as_millis());
            }
            out
        };
        let benign = run(None);
        let zero_rate = run(Some(CrowdFaults {
            archetypes: Some(ArchetypeMix::NONE),
            inflation: Some(LatencyInflation { prob: 0.0, mult_median: 8.0, mult_sigma: 0.5 }),
        }));
        assert_eq!(benign, zero_rate);
    }

    #[test]
    fn archetype_overlay_changes_only_affected_workers() {
        use crate::faults::CrowdFaults;
        use clamshell_trace::ArchetypeMix;
        // Same seed, with and without a spammer overlay: workers the mix
        // leaves benign must keep bit-identical profiles.
        let mk = |mix: Option<ArchetypeMix>| {
            let mut p = SimPlatform::with_faults(
                Population::mturk_live(),
                PlatformConfig::default(),
                33,
                CrowdFaults { archetypes: mix, inflation: None },
            );
            (0..40)
                .map(|_| {
                    p.start_recruitment();
                    p.worker_arrives().profile
                })
                .collect::<Vec<_>>()
        };
        let benign = mk(None);
        let mixed = mk(Some(ArchetypeMix::spammers(0.4)));
        let spammers = mixed.iter().zip(&benign).filter(|(m, b)| m != b).count();
        assert!(spammers > 5 && spammers < 35, "spammers={spammers}");
        for (m, b) in mixed.iter().zip(&benign) {
            if m == b {
                continue; // benign worker: untouched, as required
            }
            assert!(m.accuracy < 0.6, "overlaid worker is chance-level");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut p = platform(42);
            p.start_recruitment();
            let mut w = p.worker_arrives();
            (0..20).map(|_| p.sample_task_duration(&mut w, 5).as_millis()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
