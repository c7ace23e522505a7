//! The traced per-layer run. This binary alone installs the counting
//! allocator, so the `perf` binary's end-to-end numbers stay untraced.

use clamshell_perf::alloc::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(clamshell_perf::layers::main(&args));
}
