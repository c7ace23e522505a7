//! Hot-loop microbenchmarks: the discrete-event core's event queue and
//! the per-assignment allocation profile of `core::runner`.
//!
//! Two queue implementations run the same *hold pattern* — the classic
//! priority-queue workload that matches the simulator (pop the earliest
//! event, schedule a replacement at `now + delta`, with a steady number
//! of pending events):
//!
//! * the shipping `clamshell_sim::EventQueue` (the adaptive two-list
//!   near/far event list — see `sim::events` module docs), and
//! * a reference `BinaryHeap<Scheduled>` queue — a faithful copy of the
//!   pre-overhaul implementation, kept here as the comparison model.
//!
//! Both deliver identical pop order (FIFO within a timestamp); only the
//! wall-clock differs. Running this bench in measure mode (`cargo bench
//! -p clamshell-bench --bench hotloop`) rewrites `BENCH_hotloop.json` at
//! the repository root with events/sec for both queues, the runner's
//! allocation counts, the streaming service mode's bounded-memory
//! profile (peak live heap of a retire-mode stream at 1k vs 100k tasks),
//! and the sharded executor's bounded-memory profile (peak live heap of
//! a checkpointed sweep at 10k vs 100k cells, fixed shard size), so the
//! perf trajectory is recorded in-tree. See README §
//! "Benchmarking & perf methodology" for how to read it.

use criterion::{black_box, criterion_group, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use clamshell_core::runner::run_batched;
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_sim::{EventQueue, SimDuration, SimTime};
use clamshell_trace::Population;

// ---------------------------------------------------------------------
// Counting allocator: measures the runner's per-run allocation profile.
// ---------------------------------------------------------------------

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes right now (allocations minus deallocations) and the high
/// watermark — the streaming bounded-memory row measures peak growth.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_live(size: u64) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: a thin pass-through to the System allocator — every method
// forwards its arguments unchanged, so System's layout/provenance
// contract is upheld verbatim; the counters are side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to System.alloc with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        note_live(layout.size() as u64);
        System.alloc(layout)
    }

    // SAFETY: delegates to System.dealloc with the caller's ptr/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to System.realloc with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_live(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return `(result, alloc_calls, alloc_bytes)` attributable
/// to it (single-threaded workloads only — the counters are global).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
    )
}

/// Run `f` and return `(result, peak_live_growth_bytes)`: how far the
/// live-byte high watermark rose above the live set at entry
/// (single-threaded workloads only — the counters are global).
fn peak_live_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base))
}

// ---------------------------------------------------------------------
// Reference model: the pre-overhaul BinaryHeap event queue.
// ---------------------------------------------------------------------

mod reference {
    //! Faithful copy of the `BinaryHeap<Scheduled>` queue this bench
    //! compares against; same FIFO-tie contract, std binary heap.

    use clamshell_sim::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    struct Scheduled<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The pre-overhaul deterministic future-event list.
    #[derive(Debug)]
    pub struct BinaryHeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> BinaryHeapQueue<E> {
        pub fn new() -> Self {
            BinaryHeapQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule(&mut self, at: SimTime, event: E) {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, event });
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let s = self.heap.pop()?;
            self.now = s.at;
            Some((s.at, s.event))
        }
    }
}

// ---------------------------------------------------------------------
// The hold-pattern workload, generic over the queue via two closures.
// ---------------------------------------------------------------------

/// Payload matching the runner's `Event` in size (a small Copy enum).
type Payload = u64;

/// Pseudo-random schedule deltas, identical for every queue under test.
fn deltas(n: usize) -> Vec<u64> {
    let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic: pi digits
    (0..n)
        .map(|_| {
            // xorshift64*; delta in [1, 4096] ms keeps the heap churning.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 52) + 1
        })
        .collect()
}

/// Drive `pending` held events through `transactions` pop+schedule
/// pairs on the shipping two-list queue; returns a checksum so the work
/// can't be optimized away.
fn hold_twolist(pending: usize, transactions: usize, deltas: &[u64]) -> u64 {
    let mut q: EventQueue<Payload> = EventQueue::with_capacity(pending);
    for (i, &d) in deltas.iter().take(pending).enumerate() {
        q.schedule(SimTime::from_millis(d), i as Payload);
    }
    let mut sum = 0u64;
    for t in 0..transactions {
        let (at, e) = q.pop().expect("hold pattern never drains");
        sum = sum.wrapping_add(e).wrapping_add(at.as_millis());
        let d = deltas[(t + e as usize) & (deltas.len() - 1)];
        q.schedule(q.now() + SimDuration::from_millis(d), e);
    }
    sum
}

/// The same workload on the reference `BinaryHeap` queue.
fn hold_binaryheap(pending: usize, transactions: usize, deltas: &[u64]) -> u64 {
    let mut q: reference::BinaryHeapQueue<Payload> = reference::BinaryHeapQueue::new();
    for (i, &d) in deltas.iter().take(pending).enumerate() {
        q.schedule(SimTime::from_millis(d), i as Payload);
    }
    let mut sum = 0u64;
    for t in 0..transactions {
        let (at, e) = q.pop().expect("hold pattern never drains");
        sum = sum.wrapping_add(e).wrapping_add(at.as_millis());
        let d = deltas[(t + e as usize) & (deltas.len() - 1)];
        q.schedule(q.now() + SimDuration::from_millis(d), e);
    }
    sum
}

/// Pending-event counts under test: pool-sized (what the runner really
/// holds) and two sweep-scale stress sizes (where the far list's O(1)
/// appends leave heap sift traffic further and further behind).
const HOLD_SIZES: [usize; 3] = [64, 4096, 16384];
const DELTA_POOL: usize = 1 << 14; // power of two: cheap masking

fn bench_queues(c: &mut Criterion) {
    let ds = deltas(DELTA_POOL);
    let mut g = c.benchmark_group("hotloop");
    for pending in HOLD_SIZES {
        let txns = 10_000usize;
        g.bench_function(format!("queue_twolist_hold/{pending}"), |b| {
            b.iter(|| black_box(hold_twolist(pending, txns, &ds)))
        });
        g.bench_function(format!("queue_binaryheap_hold/{pending}"), |b| {
            b.iter(|| black_box(hold_binaryheap(pending, txns, &ds)))
        });
    }
    g.finish();
}

/// End-to-end hot loop: one full 300-task SM+PM batch run (the `sweep`
/// bench's cell workload), plus its allocation profile — and the same
/// cell with observability on, so the instrumentation's overhead is
/// measured where it matters.
fn bench_runner(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotloop");
    g.bench_function("run_batched_300", |b| {
        b.iter(|| {
            let cfg = RunConfig { pool_size: 15, ng: 5, seed: 1, ..Default::default() }
                .with_straggler()
                .with_maintenance();
            black_box(run_batched(cfg, Population::mturk_live(), specs(300, 5), 15))
        })
    });
    g.bench_function("run_batched_300_obs", |b| {
        b.iter(|| {
            let cfg = RunConfig { pool_size: 15, ng: 5, seed: 1, ..Default::default() }
                .with_straggler()
                .with_maintenance()
                .with_obs();
            black_box(run_batched(cfg, Population::mturk_live(), specs(300, 5), 15))
        })
    });
    g.finish();
}

fn specs(n: usize, ng: usize) -> Vec<TaskSpec> {
    (0..n).map(|i| TaskSpec::new(vec![(i % 2) as u32; ng])).collect()
}

// ---------------------------------------------------------------------
// Baseline emission: BENCH_hotloop.json at the repository root.
// ---------------------------------------------------------------------

/// Measure `f` for roughly `budget_ms`, returning events/sec (one
/// pop+schedule transaction = one event delivered).
fn measure_events_per_sec(txns_per_call: usize, budget_ms: u64, mut f: impl FnMut() -> u64) -> f64 {
    // Warm-up.
    black_box(f());
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        black_box(f());
        calls += 1;
    }
    (calls * txns_per_call as u64) as f64 / start.elapsed().as_secs_f64()
}

fn emit_baseline() {
    let ds = deltas(DELTA_POOL);
    let txns = 10_000usize;
    let mut rows = String::new();
    let mut improvements: Vec<f64> = Vec::new();
    for (i, pending) in HOLD_SIZES.iter().copied().enumerate() {
        let ours = measure_events_per_sec(txns, 400, || hold_twolist(pending, txns, &ds));
        let bin = measure_events_per_sec(txns, 400, || hold_binaryheap(pending, txns, &ds));
        let speedup = ours / bin;
        improvements.push(speedup);
        eprintln!(
            "  baseline hold/{pending}: two-list {ours:.0} ev/s vs BinaryHeap {bin:.0} ev/s \
             ({speedup:.2}x)"
        );
        rows.push_str(&format!(
            "    {{\"pending\": {pending}, \"two_list_events_per_sec\": {ours:.0}, \
             \"binary_heap_events_per_sec\": {bin:.0}, \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < HOLD_SIZES.len() { "," } else { "" }
        ));
    }

    // Allocation profile + wall time of one 300-task SM+PM run.
    let cfg = || {
        RunConfig { pool_size: 15, ng: 5, seed: 1, ..Default::default() }
            .with_straggler()
            .with_maintenance()
    };
    // Warm-up, then measured run.
    let _ = run_batched(cfg(), Population::mturk_live(), specs(300, 5), 15);
    let t0 = Instant::now();
    let (report, allocs, bytes) =
        count_allocs(|| run_batched(cfg(), Population::mturk_live(), specs(300, 5), 15));
    let run_secs = t0.elapsed().as_secs_f64();
    let labels = report.labels_produced();
    eprintln!(
        "  baseline run_batched_300: {run_secs:.4}s, {allocs} allocs ({bytes} B), \
         {labels} labels"
    );

    // Observability overhead: the same cell with the metrics registry +
    // flight recorder on, averaged over a few runs (the cell is fast
    // enough that a single measurement is noise-dominated). The
    // disabled path is re-measured the same way so the ratio compares
    // like with like.
    const OBS_REPS: u32 = 5;
    let measure_cell = |mk: &dyn Fn() -> RunConfig| {
        let _ = run_batched(mk(), Population::mturk_live(), specs(300, 5), 15);
        let t0 = Instant::now();
        for _ in 0..OBS_REPS {
            black_box(run_batched(mk(), Population::mturk_live(), specs(300, 5), 15));
        }
        t0.elapsed().as_secs_f64() / OBS_REPS as f64
    };
    let disabled_secs = measure_cell(&|| cfg());
    let enabled_secs = measure_cell(&|| cfg().with_obs());
    let obs_ratio = enabled_secs / disabled_secs;
    let obs_events = run_batched(cfg().with_obs(), Population::mturk_live(), specs(300, 5), 15)
        .obs
        .expect("instrumented run carries a report")
        .recorded;
    eprintln!(
        "  baseline obs_overhead: disabled {disabled_secs:.4}s vs enabled {enabled_secs:.4}s \
         ({obs_ratio:.3}x, {obs_events} events recorded)"
    );

    // Streaming bounded-memory profile: peak live heap of a retire-mode
    // service run must not scale with stream length (the service-mode
    // contract; `crates/stream/tests/bounded_memory.rs` enforces the
    // same bound in CI). Measured on the per-task work floor — single
    // records, quorum 1 — so stream-length scaling dominates.
    let stream_peak = |n_tasks: usize| {
        let cfg = clamshell_core::RunConfig {
            pool_size: 4,
            ng: 1,
            n_classes: 2,
            quorum: 1,
            seed: 1,
            ..Default::default()
        };
        let knobs = clamshell_stream::StreamConfig {
            rate_per_sec: 5.0,
            checkpoint_every: 10_000,
            retire: true,
        };
        let (outcome, peak) = peak_live_growth(|| {
            clamshell_stream::run_stream(
                cfg,
                Population::mturk_live(),
                clamshell_stream::source::alternating(1),
                n_tasks,
                50,
                &knobs,
            )
        });
        assert_eq!(outcome.checkpoints.last().map(|c| c.completed), Some(n_tasks as u64));
        peak
    };
    let _ = stream_peak(200); // warm-up: fault lazy tables out of the measurement
    let stream_peak_1k = stream_peak(1_000);
    let stream_peak_100k = stream_peak(100_000);
    let stream_growth = stream_peak_100k as f64 / stream_peak_1k as f64;
    eprintln!(
        "  baseline stream_memory: peak live {stream_peak_1k} B at 1k tasks vs \
         {stream_peak_100k} B at 100k tasks ({stream_growth:.2}x for 100x the stream)"
    );

    // Sharded mega-sweep bounded-memory profile: peak live heap of a
    // sharded sweep must track its blocks of cells, not the grid — 10x
    // the cells at a fixed shard size may grow the peak only by
    // allocator noise (the append-only manifest holds no per-shard
    // state). The helper threads allocate through the same global
    // counters, so the peak is a true whole-process high watermark.
    let shard_peak = |n_cells: usize, shard_size: usize| {
        let seeds: Vec<u64> = (1..=(n_cells / 2) as u64).collect();
        let grid = clamshell_sweep::Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs(4, 2),
            4,
        )
        .seeds(&seeds)
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("nosm", |c| c.straggler = None);
        let mut agg = clamshell_sweep::MetricsAggregator::new(
            grid.n_scenarios(),
            clamshell_sweep::Metric::standard(),
        );
        let manifest = std::env::temp_dir().join(format!("clamshell_bench_shard_{n_cells}.jsonl"));
        let _ = std::fs::remove_file(&manifest);
        let opts = clamshell_sweep::ShardOptions {
            shard_size,
            manifest: manifest.clone(),
            resume: false,
            threads: Some(4),
        };
        let (out, peak) = peak_live_growth(|| {
            clamshell_sweep::run_sharded(
                &grid,
                &mut agg,
                &opts,
                &clamshell_sweep::CancelToken::new(),
                None,
            )
            .expect("sharded bench sweep")
        });
        assert!(out.is_complete(), "sharded bench sweep ran to completion");
        let _ = std::fs::remove_file(&manifest);
        peak
    };
    const SHARD: usize = 1024;
    let _ = shard_peak(200, SHARD); // warm-up: fault lazy tables outside the measurement
    let shard_peak_10k = shard_peak(10_000, SHARD);
    let shard_peak_100k = shard_peak(100_000, SHARD);
    let shard_growth = shard_peak_100k as f64 / shard_peak_10k as f64;
    eprintln!(
        "  baseline sharded_sweep: peak live {shard_peak_10k} B at 10k cells vs \
         {shard_peak_100k} B at 100k cells, shard {SHARD} ({shard_growth:.2}x for 10x the grid)"
    );

    let json = format!(
        "{{\n  \"bench\": \"hotloop\",\n  \"workload\": \"hold pattern: pop earliest event + \
         schedule replacement at now+delta, fixed pending count; runner row is one 300-task \
         SM+PM run_batched cell\",\n  \"queue_hold\": [\n{rows}  ],\n  \"runner\": {{\n    \
         \"tasks\": 300, \"wall_secs\": {run_secs:.4}, \"alloc_calls\": {allocs}, \
         \"alloc_bytes\": {bytes}, \"labels\": {labels}\n  }},\n  \"obs_overhead\": {{\n    \
         \"disabled_secs\": {disabled_secs:.4}, \"enabled_secs\": {enabled_secs:.4}, \
         \"ratio\": {obs_ratio:.3}, \"events_recorded\": {obs_events}\n  }},\n  \
         \"stream_memory\": {{\n    \"peak_live_bytes_1k_tasks\": {stream_peak_1k}, \
         \"peak_live_bytes_100k_tasks\": {stream_peak_100k}, \"growth\": {stream_growth:.3}\n  \
         }},\n  \"sharded_sweep\": {{\n    \"shard_size\": {SHARD}, \
         \"peak_live_bytes_10k_cells\": {shard_peak_10k}, \
         \"peak_live_bytes_100k_cells\": {shard_peak_100k}, \"growth\": {shard_growth:.3}\n  \
         }},\n  \"hardware\": \
         \"{threads}-core container (std::thread::available_parallelism); wall-clock \
         measurement via the vendored criterion shim — absolute numbers are indicative, \
         ratios are the signal\",\n  \"generated_by\": \"cargo bench -p clamshell-bench \
         --bench hotloop\"\n}}\n",
        threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    // Regression guards run BEFORE the write, so a regressed (or
    // noise-glitched) run aborts without clobbering the committed
    // baseline. The pool-sized row rides closer to the heap (both
    // structures are L1-resident there), so it gets a parity guard; the
    // sweep-scale rows carry the >= 20% acceptance bar.
    for (&pending, &speedup) in HOLD_SIZES.iter().zip(&improvements) {
        let floor = if pending >= 4096 { 1.2 } else { 0.95 };
        assert!(
            speedup >= floor,
            "two-list queue vs BinaryHeap at pending={pending}: {speedup:.2}x < {floor}x \
             (committed BENCH_hotloop.json left untouched)"
        );
    }
    // Instrumentation must stay cheap: an enabled run may cost at most
    // 50% over disabled (generous for container noise; the steady-state
    // overhead is a branch per instrumentation point plus ring pushes).
    assert!(
        obs_ratio <= 1.5,
        "observability overhead {obs_ratio:.3}x exceeds 1.5x \
         (committed BENCH_hotloop.json left untouched)"
    );
    // Service-mode memory must be stream-length invariant: 100x the
    // tasks may grow the peak live set only by allocator noise and the
    // (interval-bounded) checkpoint vector.
    assert!(
        stream_growth <= 4.0,
        "retire-mode stream peak grew {stream_growth:.2}x from 1k to 100k tasks \
         (committed BENCH_hotloop.json left untouched)"
    );
    // Sharded sweeps must stay shard-bounded: 10x the grid at a fixed
    // shard size may not grow the peak live set materially.
    assert!(
        shard_growth <= 4.0,
        "sharded sweep peak grew {shard_growth:.2}x from 10k to 100k cells \
         (committed BENCH_hotloop.json left untouched)"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotloop.json");
    std::fs::write(path, json).expect("write BENCH_hotloop.json");
    eprintln!("  baseline written to {path}");
}

criterion_group!(benches, bench_queues, bench_runner);

fn main() {
    benches();
    // Only rewrite the committed baseline in measure mode; `cargo test`
    // smoke runs must not touch the tree.
    if std::env::args().any(|a| a == "--bench") {
        emit_baseline();
    }
}
