//! Sharded mega-sweeps: bounded-memory execution with checkpoint/resume.
//!
//! A million-cell grid cannot be materialized as one job list — the
//! specs, configs, and population handles of every cell would sit in
//! memory for the whole sweep. [`run_sharded`] instead walks the grid in
//! bounded chunks ([`Grid::jobs_range`]), runs each chunk on the
//! process-wide [`WorkerPool`](crate::persistent::WorkerPool), and folds
//! results into one cumulative [`MetricsAggregator`] **in global
//! job-index order**, so peak live memory is `O(shard)` while the final
//! statistics are bit-identical to an unsharded (or fully serial) run.
//!
//! ## Why the fold is sequential, not merge-based
//!
//! Parallel-Welford [`merge`](MetricsAggregator::merge) is
//! mathematically exact but **not bit-identical** to pushing the same
//! values one at a time (floating-point rounding differs). Per-shard
//! aggregators merged at the end would therefore drift from the
//! unsharded reference by a few ULPs — enough to break the workspace's
//! byte-identity contract. The sharded executor sidesteps this entirely:
//! shards run in index order, the reorder buffer inside the pool
//! delivers each shard's reports in index order, and every report is
//! pushed into the *same* cumulative aggregator. Sharding (and thread
//! count, and resume) then cannot change a single bit of the result.
//!
//! ## The shard manifest
//!
//! After each completed shard the cumulative aggregator state is
//! checkpointed to a JSONL manifest (integer-only, like the
//! `clamshell-stream` checkpoints: floats travel as IEEE-754 bit
//! patterns, so the file is byte-stable across platforms):
//!
//! ```text
//! {"v":1,"grid":<shape-fp>,"shard_size":S,"n_jobs":J,"words":W}
//! {"shard":0,"lo":0,"hi":S,"cells":[<W u64 words>],"fp":<chain-fp>}
//! {"shard":1,"lo":S,"hi":2S,"cells":[...],"fp":<chain-fp>}
//! ```
//!
//! `cells` is the **cumulative** [`MetricsAggregator::snapshot_words`]
//! after folding shards `0..=i`, so resume needs only the last line.
//! `fp` is an FNV-1a chain over the previous line's `fp` and the line's
//! own fields, so tampering anywhere breaks the chain.
//!
//! The file is append-only. A fresh sweep creates it with the header,
//! `sync_data`s it, and fsyncs the parent directory once so the new
//! entry survives power loss. Each completed shard then appends its line
//! in a single `write` followed by `sync_data`, so a checkpoint costs
//! `O(shard)` I/O, not a rewrite of every earlier line. A kill can only
//! tear the *final* line, which then lacks its trailing `\n`; resume
//! treats that shard as never recorded, truncates the file back to the
//! last newline, and appends from there, so the finished file is byte-
//! identical to an uninterrupted run's. A complete (newline-terminated)
//! line that fails validation is still [`ShardError::Corrupt`].
//!
//! On resume the header is validated against the live grid
//! ([`Grid::shape_fingerprint`], shard size, job count, snapshot shape),
//! the chain is re-verified, the aggregator is restored bit-exactly from
//! the last checkpoint, and execution continues at the first unrecorded
//! shard. A kill *mid-shard* loses only that shard's partial folds: the
//! restore overwrites the aggregator, so nothing is double-counted.

use crate::aggregate::{Aggregator, MetricsAggregator, SnapshotShapeError};
use crate::grid::{Grid, GridError};
use crate::job::Job;
use crate::persistent;
use crate::progress::{CancelToken, ProgressFn};
use crate::threads;
use clamshell_obs::Fnv;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Manifest schema version written and accepted by this build.
pub const MANIFEST_VERSION: u64 = 1;

/// How to run a sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Cells per shard (must be ≥ 1). Peak job memory is proportional
    /// to this; the checkpoint granularity equals it.
    pub shard_size: usize,
    /// Manifest path. One line is appended and synced after every
    /// completed shard.
    pub manifest: PathBuf,
    /// Resume from `manifest` if it exists (a missing file starts a
    /// fresh sweep, since a kill can land before the first checkpoint).
    /// When `false`, any existing manifest is overwritten.
    pub resume: bool,
    /// Worker threads; `None` resolves via [`threads::resolve`].
    pub threads: Option<usize>,
}

/// What a sharded sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Jobs folded into the aggregate, including shards restored from
    /// the manifest.
    pub completed: usize,
    /// Total cells in the grid.
    pub total: usize,
    /// Whether the sweep stopped on a [`CancelToken`].
    pub cancelled: bool,
    /// Shards recorded in the manifest when the sweep returned.
    pub shards_completed: usize,
    /// Total shards in the plan.
    pub n_shards: usize,
    /// Shards restored from the manifest instead of executed.
    pub resumed_shards: usize,
}

impl ShardOutcome {
    /// Did every cell complete?
    pub fn is_complete(&self) -> bool {
        self.completed == self.total && !self.cancelled
    }
}

/// Why a sharded sweep could not run (or resume).
#[derive(Debug)]
pub enum ShardError {
    /// The grid itself is structurally invalid.
    Grid(GridError),
    /// `shard_size` was zero.
    ZeroShardSize,
    /// The aggregator's scenario-row count does not match the grid's.
    AggregatorShape {
        /// Scenario rows the grid enumerates.
        grid_scenarios: usize,
        /// Scenario rows the aggregator was built with.
        agg_scenarios: usize,
    },
    /// A manifest checkpoint did not fit the aggregator shape.
    Snapshot(SnapshotShapeError),
    /// Reading or writing the manifest failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The manifest exists but is not a well-formed chain.
    Corrupt {
        /// The manifest path.
        path: PathBuf,
        /// 1-based line number of the first bad line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The manifest is well-formed but describes a different sweep.
    Incompatible {
        /// Which header field disagreed.
        field: &'static str,
        /// The manifest's value.
        manifest: u64,
        /// The value the live grid/options require.
        expected: u64,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Grid(e) => write!(f, "invalid grid: {e}"),
            ShardError::ZeroShardSize => write!(f, "shard size must be at least 1"),
            ShardError::AggregatorShape { grid_scenarios, agg_scenarios } => write!(
                f,
                "aggregator has {agg_scenarios} scenario rows but the grid enumerates \
                 {grid_scenarios}"
            ),
            ShardError::Snapshot(e) => write!(f, "manifest checkpoint mismatch: {e}"),
            ShardError::Io { path, source } => {
                write!(f, "manifest I/O on {}: {source}", path.display())
            }
            ShardError::Corrupt { path, line, reason } => {
                write!(f, "corrupt manifest {} line {line}: {reason}", path.display())
            }
            ShardError::Incompatible { field, manifest, expected } => write!(
                f,
                "manifest is from a different sweep: {field} is {manifest}, this sweep \
                 needs {expected}"
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Grid(e) => Some(e),
            ShardError::Snapshot(e) => Some(e),
            ShardError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<GridError> for ShardError {
    fn from(e: GridError) -> Self {
        ShardError::Grid(e)
    }
}

impl From<SnapshotShapeError> for ShardError {
    fn from(e: SnapshotShapeError) -> Self {
        ShardError::Snapshot(e)
    }
}

/// Validated header fields shared by the writer and the resume parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    grid: u64,
    shard_size: u64,
    n_jobs: u64,
    words: u64,
}

impl Header {
    fn render(&self) -> String {
        format!(
            "{{\"v\":{MANIFEST_VERSION},\"grid\":{},\"shard_size\":{},\"n_jobs\":{},\"words\":{}}}",
            self.grid, self.shard_size, self.n_jobs, self.words
        )
    }

    /// Chain seed: the fingerprint every shard line's chain starts from.
    fn chain_seed(&self) -> u64 {
        let mut h = Fnv::new();
        for word in [MANIFEST_VERSION, self.grid, self.shard_size, self.n_jobs, self.words] {
            h.write(&word.to_le_bytes());
        }
        h.finish()
    }
}

/// One link of the manifest's fingerprint chain.
fn chain_fp(prev: u64, shard: u64, lo: u64, hi: u64, cells: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for word in [prev, shard, lo, hi] {
        h.write(&word.to_le_bytes());
    }
    for &c in cells {
        h.write(&c.to_le_bytes());
    }
    h.finish()
}

fn render_shard_line(shard: u64, lo: u64, hi: u64, cells: &[u64], fp: u64) -> String {
    let mut body = String::with_capacity(cells.len() * 12 + 64);
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&c.to_string());
    }
    format!("{{\"shard\":{shard},\"lo\":{lo},\"hi\":{hi},\"cells\":[{body}],\"fp\":{fp}}}")
}

/// Scan `line` for `"key":<digits>` and parse the integer.
fn take_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scan `line` for `"key":[<digits>,…]` and parse the integer array.
fn take_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let close = rest.find(']')?;
    let body = &rest[..close];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|tok| tok.parse().ok()).collect()
}

fn io_err(path: &Path, source: std::io::Error) -> ShardError {
    ShardError::Io { path: path.to_path_buf(), source }
}

fn corrupt(path: &Path, line: usize, reason: impl Into<String>) -> ShardError {
    ShardError::Corrupt { path: path.to_path_buf(), line, reason: reason.into() }
}

/// Fsync the directory holding `path`, so a newly created file's
/// directory entry is as durable as its data. Only Unix can open a
/// directory as a file; elsewhere this is a no-op.
fn sync_parent_dir(path: &Path) -> Result<(), ShardError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if cfg!(unix) {
        File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err(dir, e))?;
    }
    Ok(())
}

/// The manifest, open for appending after its last complete line.
struct Manifest<'a> {
    file: File,
    path: &'a Path,
}

impl<'a> Manifest<'a> {
    /// Create (or truncate) `path` holding only the header: a fresh
    /// sweep claims the path at once, so a kill before the first
    /// checkpoint resumes as "0 shards done" instead of tripping over a
    /// stale manifest.
    fn create(path: &'a Path, header: &Header) -> Result<Self, ShardError> {
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let mut manifest = Manifest { file, path };
        manifest.append(header.render())?;
        sync_parent_dir(path)?;
        Ok(manifest)
    }

    /// Open an existing manifest, validate it against `header`, and cut
    /// a torn final line back to the last newline. `None` when not even
    /// the header line was completed.
    fn resume(path: &'a Path, header: &Header) -> Result<Option<(Self, Resumed)>, ShardError> {
        let file =
            OpenOptions::new().read(true).append(true).open(path).map_err(|e| io_err(path, e))?;
        let Some(resumed) = parse_manifest(&file, path, header)? else {
            return Ok(None);
        };
        let len = file.metadata().map_err(|e| io_err(path, e))?.len();
        if len > resumed.end {
            file.set_len(resumed.end)
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err(path, e))?;
        }
        Ok(Some((Manifest { file, path }, resumed)))
    }

    /// Append `line` and its newline in a single `write`, then
    /// `sync_data`: the checkpoint is durable once this returns.
    fn append(&mut self, mut line: String) -> Result<(), ShardError> {
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(self.path, e))
    }
}

/// What a validated manifest resumes from.
struct Resumed {
    /// Shard lines recorded.
    shards: usize,
    /// Fingerprint of the last recorded line (chain seed if none).
    fp: u64,
    /// Cumulative snapshot of the last recorded shard, if any.
    last_cells: Option<Vec<u64>>,
    /// Byte length of the complete lines; anything after is a torn tail.
    end: u64,
}

/// Read the next line into `buf`. `true` for a complete line (its `\n`
/// stripped); `false` at end of file or at a torn final line, which is
/// left in `buf` without a newline.
fn read_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    path: &Path,
) -> Result<bool, ShardError> {
    buf.clear();
    reader.read_until(b'\n', buf).map_err(|e| io_err(path, e))?;
    let complete = buf.last() == Some(&b'\n');
    if complete {
        buf.pop();
    }
    Ok(complete)
}

/// Parse and fully validate the manifest in `file` against `header`,
/// one line at a time, keeping only the last checkpoint. `None` when the
/// header line itself is torn: a fresh sweep was killed while claiming
/// the path, which only a prefix of this sweep's own header can show.
fn parse_manifest(
    file: &File,
    path: &Path,
    header: &Header,
) -> Result<Option<Resumed>, ShardError> {
    let mut reader = BufReader::new(file);
    let mut buf = Vec::new();
    if !read_line(&mut reader, &mut buf, path)? {
        return if header.render().as_bytes().starts_with(&buf) {
            Ok(None)
        } else {
            Err(corrupt(path, 1, "torn header"))
        };
    }
    let mut end = buf.len() as u64 + 1;
    let first = std::str::from_utf8(&buf).map_err(|_| corrupt(path, 1, "not UTF-8"))?;
    let version = take_u64(first, "v").ok_or_else(|| corrupt(path, 1, "header missing \"v\""))?;
    if version != MANIFEST_VERSION {
        return Err(ShardError::Incompatible {
            field: "v",
            manifest: version,
            expected: MANIFEST_VERSION,
        });
    }
    for (field, expected) in [
        ("grid", header.grid),
        ("shard_size", header.shard_size),
        ("n_jobs", header.n_jobs),
        ("words", header.words),
    ] {
        let got = take_u64(first, field)
            .ok_or_else(|| corrupt(path, 1, format!("header missing {field:?}")))?;
        if got != expected {
            return Err(ShardError::Incompatible { field, manifest: got, expected });
        }
    }

    let mut fp = header.chain_seed();
    let mut shards = 0;
    let mut last_cells: Option<Vec<u64>> = None;
    let mut lineno = 1;
    while read_line(&mut reader, &mut buf, path)? {
        lineno += 1;
        end += buf.len() as u64 + 1;
        let line = std::str::from_utf8(&buf).map_err(|_| corrupt(path, lineno, "not UTF-8"))?;
        if line.is_empty() {
            continue;
        }
        let shard =
            take_u64(line, "shard").ok_or_else(|| corrupt(path, lineno, "missing \"shard\""))?;
        if shard != shards as u64 {
            return Err(corrupt(
                path,
                lineno,
                format!("expected shard {shards} but found {shard}"),
            ));
        }
        let lo = take_u64(line, "lo").ok_or_else(|| corrupt(path, lineno, "missing \"lo\""))?;
        let hi = take_u64(line, "hi").ok_or_else(|| corrupt(path, lineno, "missing \"hi\""))?;
        let want_lo = shard * header.shard_size;
        let want_hi = (want_lo + header.shard_size).min(header.n_jobs);
        if lo != want_lo || hi != want_hi {
            return Err(corrupt(
                path,
                lineno,
                format!("shard {shard} covers {lo}..{hi}, expected {want_lo}..{want_hi}"),
            ));
        }
        let cells = take_u64_array(line, "cells")
            .ok_or_else(|| corrupt(path, lineno, "missing or malformed \"cells\""))?;
        if cells.len() as u64 != header.words {
            return Err(corrupt(
                path,
                lineno,
                format!("{} snapshot words, header promises {}", cells.len(), header.words),
            ));
        }
        let got_fp = take_u64(line, "fp").ok_or_else(|| corrupt(path, lineno, "missing \"fp\""))?;
        let want_fp = chain_fp(fp, shard, lo, hi, &cells);
        if got_fp != want_fp {
            return Err(corrupt(path, lineno, "fingerprint chain broken"));
        }
        fp = got_fp;
        shards += 1;
        last_cells = Some(cells);
    }
    Ok(Some(Resumed { shards, fp, last_cells, end }))
}

/// Run `grid` in shards of `opts.shard_size` cells, folding every report
/// into `agg` in global job-index order and checkpointing the cumulative
/// aggregate to `opts.manifest` after each shard.
///
/// `agg` must be freshly constructed for the grid (resume overwrites it
/// bit-exactly from the manifest; a fresh run folds on top of whatever
/// it holds). The final aggregate is **bit-identical** to an unsharded
/// [`Grid::run_streaming`] — and to a serial fold — at any shard size,
/// thread count, or kill/resume split; the module docs explain why the
/// fold is sequential rather than merge-based.
///
/// On cancellation the shard in flight is not recorded: `agg` may hold
/// partial folds past the last checkpoint, and a subsequent resume
/// restores from the manifest so nothing is double-counted.
pub fn run_sharded(
    grid: &Grid,
    agg: &mut MetricsAggregator,
    opts: &ShardOptions,
    cancel: &CancelToken,
    mut progress: Option<ProgressFn<'_>>,
) -> Result<ShardOutcome, ShardError> {
    grid.validate()?;
    if opts.shard_size == 0 {
        return Err(ShardError::ZeroShardSize);
    }
    if agg.n_scenarios() != grid.n_scenarios() {
        return Err(ShardError::AggregatorShape {
            grid_scenarios: grid.n_scenarios(),
            agg_scenarios: agg.n_scenarios(),
        });
    }
    let n_jobs = grid.n_jobs();
    let n_shards = n_jobs.div_ceil(opts.shard_size);
    let header = Header {
        grid: grid.shape_fingerprint(),
        shard_size: opts.shard_size as u64,
        n_jobs: n_jobs as u64,
        words: (grid.n_scenarios() * agg.n_metrics() * 3) as u64,
    };

    let resumed = if opts.resume && opts.manifest.exists() {
        Manifest::resume(&opts.manifest, &header)?
    } else {
        None
    };
    let (mut manifest, resumed_shards, mut fp) = match resumed {
        Some((manifest, resumed)) => {
            if let Some(cells) = &resumed.last_cells {
                agg.restore_words(cells)?;
            }
            (manifest, resumed.shards, resumed.fp)
        }
        None => (Manifest::create(&opts.manifest, &header)?, 0, header.chain_seed()),
    };
    let mut shards_completed = resumed_shards;
    let threads = threads::resolve(opts.threads);

    let mut completed = (resumed_shards * opts.shard_size).min(n_jobs);
    let mut cancelled = false;
    for shard in resumed_shards..n_shards {
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let lo = shard * opts.shard_size;
        let hi = (lo + opts.shard_size).min(n_jobs);
        let status = {
            // Re-home the per-shard progress callback to global job
            // counts so callers see one monotone (done, n_jobs) stream.
            let mut wrapped;
            let shard_progress: Option<ProgressFn<'_>> = match progress.as_mut() {
                Some(p) => {
                    wrapped = |done: usize, _total: usize| p(lo + done, n_jobs);
                    Some(&mut wrapped)
                }
                None => None,
            };
            persistent::execute_streaming_pooled(
                persistent::WorkerPool::global(),
                grid.jobs_range(lo, hi),
                threads,
                cancel,
                shard_progress,
                |_, _, job: Job| job.run(),
                &mut |local, report| agg.consume(&grid.meta(lo + local), &report),
            )
        };
        completed = lo + status.completed;
        if status.cancelled || status.completed < hi - lo {
            cancelled = true;
            break;
        }
        let cells = agg.snapshot_words();
        fp = chain_fp(fp, shard as u64, lo as u64, hi as u64, &cells);
        manifest.append(render_shard_line(shard as u64, lo as u64, hi as u64, &cells, fp))?;
        shards_completed += 1;
    }

    Ok(ShardOutcome {
        completed,
        total: n_jobs,
        cancelled,
        shards_completed,
        n_shards,
        resumed_shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Metric;
    use clamshell_core::task::TaskSpec;
    use clamshell_core::RunConfig;
    use clamshell_trace::Population;

    fn grid() -> Grid {
        let specs: Vec<TaskSpec> = (0..4).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
        Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            specs,
            4,
        )
        .seeds(&[1, 2, 3])
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("nosm", |c| c.straggler = None)
    }

    fn fresh_agg(g: &Grid) -> MetricsAggregator {
        MetricsAggregator::new(g.n_scenarios(), Metric::standard())
    }

    fn manifest_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clamshell_shard_{tag}.jsonl"))
    }

    /// The unsharded serial reference fold.
    fn reference_words(g: &Grid) -> Vec<u64> {
        let mut agg = fresh_agg(g);
        let status = g.run_streaming(Some(1), &mut agg);
        assert!(status.is_complete());
        agg.snapshot_words()
    }

    #[test]
    fn sharded_matches_unsharded_bit_for_bit() {
        let g = grid();
        let reference = reference_words(&g);
        for shard_size in [1, 2, 4, 64] {
            for threads in [1, 4] {
                let path = manifest_path(&format!("exact_{shard_size}_{threads}"));
                let opts = ShardOptions {
                    shard_size,
                    manifest: path.clone(),
                    resume: false,
                    threads: Some(threads),
                };
                let mut agg = fresh_agg(&g);
                let out = run_sharded(&g, &mut agg, &opts, &CancelToken::new(), None).unwrap();
                assert!(out.is_complete(), "s={shard_size} t={threads}: {out:?}");
                assert_eq!(out.completed, g.n_jobs());
                assert_eq!(out.n_shards, g.n_jobs().div_ceil(shard_size));
                assert_eq!(out.shards_completed, out.n_shards);
                assert_eq!(
                    agg.snapshot_words(),
                    reference,
                    "shard_size {shard_size}, {threads} threads"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    fn progress_reports_global_job_counts() {
        let g = grid();
        let path = manifest_path("progress");
        let opts =
            ShardOptions { shard_size: 2, manifest: path.clone(), resume: false, threads: Some(2) };
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut agg = fresh_agg(&g);
        let out = run_sharded(
            &g,
            &mut agg,
            &opts,
            &CancelToken::new(),
            Some(&mut |done, total| seen.push((done, total))),
        )
        .unwrap();
        assert!(out.is_complete());
        let expected: Vec<(usize, usize)> = (1..=g.n_jobs()).map(|d| (d, g.n_jobs())).collect();
        assert_eq!(seen, expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let g = grid();
        let reference = reference_words(&g);
        // Cancel after every possible number of delivered jobs; each
        // interrupted sweep must resume to the exact reference bits.
        for kill_after in 1..=g.n_jobs() {
            let path = manifest_path(&format!("resume_{kill_after}"));
            let opts = ShardOptions {
                shard_size: 2,
                manifest: path.clone(),
                resume: false,
                threads: Some(2),
            };
            let cancel = CancelToken::new();
            let cancel_ref = &cancel;
            let mut agg = fresh_agg(&g);
            let out = run_sharded(
                &g,
                &mut agg,
                &opts,
                &cancel,
                Some(&mut |done, _| {
                    if done == kill_after {
                        cancel_ref.cancel();
                    }
                }),
            )
            .unwrap();
            if out.is_complete() {
                // Cancel landed after the last delivery; nothing to resume.
                assert_eq!(agg.snapshot_words(), reference);
                let _ = std::fs::remove_file(&path);
                continue;
            }
            assert!(out.cancelled);

            // Second process: fresh aggregator, resume from the manifest.
            let opts = ShardOptions { resume: true, ..opts };
            let mut resumed = fresh_agg(&g);
            let out2 = run_sharded(&g, &mut resumed, &opts, &CancelToken::new(), None).unwrap();
            assert!(out2.is_complete(), "kill@{kill_after}: {out2:?}");
            assert_eq!(out2.resumed_shards, out.shards_completed, "kill@{kill_after}");
            assert_eq!(resumed.snapshot_words(), reference, "kill@{kill_after}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn resume_of_a_finished_sweep_runs_nothing() {
        let g = grid();
        let path = manifest_path("noop");
        let opts =
            ShardOptions { shard_size: 2, manifest: path.clone(), resume: false, threads: Some(1) };
        let mut agg = fresh_agg(&g);
        run_sharded(&g, &mut agg, &opts, &CancelToken::new(), None).unwrap();
        let words = agg.snapshot_words();

        let opts = ShardOptions { resume: true, ..opts };
        let mut again = fresh_agg(&g);
        let out = run_sharded(&g, &mut again, &opts, &CancelToken::new(), None).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.resumed_shards, out.n_shards);
        assert_eq!(again.snapshot_words(), words);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_missing_manifest_starts_fresh() {
        let g = grid();
        let path = manifest_path("fresh_resume");
        let _ = std::fs::remove_file(&path);
        let opts =
            ShardOptions { shard_size: 4, manifest: path.clone(), resume: true, threads: Some(1) };
        let mut agg = fresh_agg(&g);
        let out = run_sharded(&g, &mut agg, &opts, &CancelToken::new(), None).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.resumed_shards, 0);
        assert_eq!(agg.snapshot_words(), reference_words(&g));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_run_overwrites_a_stale_manifest() {
        let g = grid();
        let path = manifest_path("stale");
        std::fs::write(&path, "not a manifest at all\n").unwrap();
        let opts =
            ShardOptions { shard_size: 4, manifest: path.clone(), resume: false, threads: Some(1) };
        let mut agg = fresh_agg(&g);
        let out = run_sharded(&g, &mut agg, &opts, &CancelToken::new(), None).unwrap();
        assert!(out.is_complete());
        assert_eq!(agg.snapshot_words(), reference_words(&g));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_an_incompatible_manifest() {
        let g = grid();
        let path = manifest_path("incompat");
        let opts =
            ShardOptions { shard_size: 2, manifest: path.clone(), resume: false, threads: Some(1) };
        run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap();

        // Different shard size.
        let wrong_size = ShardOptions { shard_size: 3, resume: true, ..opts.clone() };
        let err = run_sharded(&g, &mut fresh_agg(&g), &wrong_size, &CancelToken::new(), None)
            .unwrap_err();
        assert!(matches!(err, ShardError::Incompatible { field: "shard_size", .. }), "{err}");

        // Different grid shape (extra seed).
        let bigger = grid().seeds(&[1, 2, 3, 4]);
        let resume = ShardOptions { resume: true, ..opts };
        let err = run_sharded(&bigger, &mut fresh_agg(&bigger), &resume, &CancelToken::new(), None)
            .unwrap_err();
        assert!(matches!(err, ShardError::Incompatible { field: "grid", .. }), "{err}");
        assert!(err.to_string().contains("different sweep"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_tampered_chain() {
        let g = grid();
        let path = manifest_path("tamper");
        let opts =
            ShardOptions { shard_size: 2, manifest: path.clone(), resume: false, threads: Some(1) };
        run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap();

        // Flip one digit inside the second line's cells array.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let at = lines[2].find("\"cells\":[").unwrap() + "\"cells\":[".len();
        let mut tampered = lines[2].clone();
        let old = tampered.as_bytes()[at];
        let new = if old == b'9' { '8' } else { '9' };
        tampered.replace_range(at..at + 1, &new.to_string());
        lines[2] = tampered;
        std::fs::write(&path, lines.join("\n")).unwrap();

        let resume = ShardOptions { resume: true, ..opts };
        let err =
            run_sharded(&g, &mut fresh_agg(&g), &resume, &CancelToken::new(), None).unwrap_err();
        match err {
            ShardError::Corrupt { line, ref reason, .. } => {
                assert_eq!(line, 3);
                assert!(reason.contains("chain"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_to_a_checkpoint_boundary_still_resumes() {
        // A manifest cut at a newline (a kill between two appends, or a
        // prefix restored from backup) is a valid chain of the shards it
        // holds, and resuming appends the rest byte for byte.
        let g = grid();
        let reference = reference_words(&g);
        let path = manifest_path("prefix");
        let opts =
            ShardOptions { shard_size: 2, manifest: path.clone(), resume: false, threads: Some(1) };
        run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap();

        let full = std::fs::read_to_string(&path).unwrap();
        let prefix: Vec<&str> = full.lines().take(2).collect(); // header + shard 0
        std::fs::write(&path, format!("{}\n", prefix.join("\n"))).unwrap();

        let resume = ShardOptions { resume: true, ..opts };
        let mut agg = fresh_agg(&g);
        let out = run_sharded(&g, &mut agg, &resume, &CancelToken::new(), None).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.resumed_shards, 1);
        assert_eq!(agg.snapshot_words(), reference);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        let _ = std::fs::remove_file(&path);
    }

    /// Run `g` to completion at shard size 2 and return the manifest bytes.
    fn finished_manifest(g: &Grid, path: &Path) -> Vec<u8> {
        let opts = ShardOptions {
            shard_size: 2,
            manifest: path.to_path_buf(),
            resume: false,
            threads: Some(1),
        };
        let out = run_sharded(g, &mut fresh_agg(g), &opts, &CancelToken::new(), None).unwrap();
        assert!(out.is_complete());
        std::fs::read(path).unwrap()
    }

    /// Write `bytes` as the manifest, resume, and check the fold and the
    /// finished file against the uninterrupted run.
    fn resume_from(g: &Grid, path: &Path, bytes: &[u8], full: &[u8], reference: &[u64]) -> usize {
        std::fs::write(path, bytes).unwrap();
        let opts = ShardOptions {
            shard_size: 2,
            manifest: path.to_path_buf(),
            resume: true,
            threads: Some(1),
        };
        let mut agg = fresh_agg(g);
        let out = run_sharded(g, &mut agg, &opts, &CancelToken::new(), None).unwrap();
        let cut = bytes.len();
        assert!(out.is_complete(), "cut at byte {cut}: {out:?}");
        assert_eq!(agg.snapshot_words(), reference, "cut at byte {cut}");
        assert!(std::fs::read(path).unwrap() == full, "cut at byte {cut}: manifest differs");
        out.resumed_shards
    }

    #[test]
    fn a_torn_final_line_at_any_byte_resumes_to_the_uninterrupted_manifest() {
        let g = grid();
        let reference = reference_words(&g);
        let path = manifest_path("torn_tail");
        let full = finished_manifest(&g, &path);
        let n_shards = g.n_jobs().div_ceil(2);
        let last_start = full[..full.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        for cut in last_start..full.len() {
            let resumed = resume_from(&g, &path, &full[..cut], &full, &reference);
            assert_eq!(resumed, n_shards - 1, "cut at byte {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_header_restarts_the_sweep() {
        // A kill while a fresh sweep claims the path can leave an empty
        // file or a prefix of the header; resume then starts over.
        let g = grid();
        let reference = reference_words(&g);
        let path = manifest_path("torn_header");
        let full = finished_manifest(&g, &path);
        let header_end = full.iter().position(|&b| b == b'\n').unwrap();
        for cut in 0..=header_end {
            assert_eq!(resume_from(&g, &path, &full[..cut], &full, &reference), 0);
        }

        // A torn first line that is not this sweep's header is foreign.
        std::fs::write(&path, "not a manifest").unwrap();
        let opts =
            ShardOptions { shard_size: 2, manifest: path.clone(), resume: true, threads: Some(1) };
        let err =
            run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap_err();
        assert!(matches!(err, ShardError::Corrupt { line: 1, .. }), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "not a manifest");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_cut_line_followed_by_a_complete_line_is_corrupt() {
        // Only the final line can be torn by a kill. A cut line that a
        // newline-terminated line follows is damage, not a torn tail.
        let g = grid();
        let path = manifest_path("mid_tear");
        let full = String::from_utf8(finished_manifest(&g, &path)).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();
        lines[2] = &lines[2][..lines[2].len() / 2];
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let opts =
            ShardOptions { shard_size: 2, manifest: path.clone(), resume: true, threads: Some(1) };
        let err =
            run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap_err();
        match err {
            ShardError::Corrupt { line, .. } => assert_eq!(line, 3),
            other => panic!("expected Corrupt, got {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn structural_errors_are_typed() {
        let g = grid();
        let path = manifest_path("typed");
        let zero =
            ShardOptions { shard_size: 0, manifest: path.clone(), resume: false, threads: Some(1) };
        let err =
            run_sharded(&g, &mut fresh_agg(&g), &zero, &CancelToken::new(), None).unwrap_err();
        assert!(matches!(err, ShardError::ZeroShardSize));

        let opts = ShardOptions { shard_size: 2, ..zero };
        let mut wrong_shape = MetricsAggregator::new(g.n_scenarios() + 1, Metric::standard());
        let err = run_sharded(&g, &mut wrong_shape, &opts, &CancelToken::new(), None).unwrap_err();
        assert!(matches!(err, ShardError::AggregatorShape { .. }), "{err}");

        let empty = Grid::new(
            RunConfig { pool_size: 4, ng: 2, ..Default::default() },
            Population::mturk_live(),
            vec![TaskSpec::new(vec![0; 2])],
            1,
        )
        .seeds(&[]);
        let err = run_sharded(
            &empty,
            &mut MetricsAggregator::new(1, Metric::standard()),
            &opts,
            &CancelToken::new(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ShardError::Grid(GridError::EmptySeedAxis)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifest_is_integer_only_jsonl() {
        let g = grid();
        let path = manifest_path("schema");
        let opts =
            ShardOptions { shard_size: 4, manifest: path.clone(), resume: false, threads: Some(1) };
        run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains('.'), "floats must travel as bit patterns: {text}");
        assert!(text.lines().count() >= 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "JSONL framing: {line}");
        }
        assert!(text.starts_with(&format!("{{\"v\":{MANIFEST_VERSION},")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn field_scanners_parse_and_reject() {
        let line = "{\"shard\":3,\"lo\":6,\"hi\":9,\"cells\":[1,2,3],\"fp\":42}";
        assert_eq!(take_u64(line, "shard"), Some(3));
        assert_eq!(take_u64(line, "fp"), Some(42));
        assert_eq!(take_u64(line, "nope"), None);
        assert_eq!(take_u64("{\"shard\":}", "shard"), None);
        assert_eq!(take_u64_array(line, "cells"), Some(vec![1, 2, 3]));
        assert_eq!(take_u64_array("{\"cells\":[]}", "cells"), Some(vec![]));
        assert_eq!(take_u64_array("{\"cells\":[1,x]}", "cells"), None);
        assert_eq!(take_u64_array(line, "nope"), None);
    }
}
