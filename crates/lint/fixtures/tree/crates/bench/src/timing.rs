//! Bench-crate fixture: `crates/bench` gets no wall-clock exemption
//! (timing belongs in `perf/`), so D002 fires here.

pub fn stopwatch() -> std::time::Instant {
    std::time::Instant::now()
}
