//! Sharded mega-sweeps: bounded-memory execution with checkpoint/resume.
//!
//! A million-cell grid cannot be materialized as one job list — the
//! specs, configs, and population handles of every cell would sit in
//! memory for the whole sweep. [`run_sharded`] instead walks the grid in
//! small blocks of at most 64 cells ([`Grid::jobs_range`]), never more
//! than one shard per block, and folds every report into one cumulative
//! [`MetricsAggregator`] **in global job-index order**, so peak live
//! memory is bounded by the threads' blocks, not the grid or the shard,
//! while the final statistics are bit-identical to an unsharded (or
//! fully serial) run.
//!
//! ## Shards are checkpoint boundaries, not barriers
//!
//! Everything after the resumed prefix runs as one windowed pass of the
//! crate's one executor, the [block pipeline](crate::pool), with the
//! fold as its sink. The calling thread is worker 0: it runs blocks,
//! folds every report in index order, and appends a shard's checkpoint
//! as soon as the fold crosses that shard's end. `threads - 1` scoped
//! helpers, spawned once per sweep, run blocks too and hand each
//! block's reports back in one message. Blocks never cross a shard
//! boundary, and no thread waits at one, so one thread's checkpoint sync
//! overlaps the others' simulation; at one thread the sweep is a plain
//! serial loop that folds each report as it is produced.
//!
//! No block is claimed `4 × threads` or more blocks past the first one
//! not yet folded, so at most that many blocks of reports wait to be
//! folded, whatever the shard size and however the threads interleave.
//!
//! ## Why the fold is sequential, not merge-based
//!
//! A parallel-Welford merge of two accumulators is mathematically
//! exact but **not bit-identical** to pushing the same values one at a
//! time (floating-point rounding differs). Per-shard aggregators merged
//! at the end would therefore drift from the
//! unsharded reference by a few ULPs — enough to break the workspace's
//! byte-identity contract. The fold sidesteps this entirely: the
//! pipeline delivers reports in index order, and every report is pushed
//! into the *same* cumulative aggregator on the calling thread. Sharding
//! (and thread count, and resume) then cannot change a single bit of
//! the result.
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
//! in a single `write`, so a checkpoint costs `O(shard)` I/O, not a
//! rewrite of every earlier line.
//!
//! `sync_data` is group-committed by cell count: it runs once the lines
//! written since the last sync cover 1,024 cells, when a resume opens the
//! file, and whenever [`run_sharded`] returns `Ok`, completed or
//! cancelled. A shard of 1,024 cells or more therefore syncs every line;
//! the default 32-cell shard syncs every 32 lines. The durability
//! contract:
//!
//! - **A kill** (SIGKILL, a panic, `abort`) loses nothing that was
//!   written: the bytes sit in the page cache, which outlives the
//!   process. It can only tear the line being written.
//! - **An OS crash or power loss** keeps at least the prefix up to the
//!   last sync. It may drop the checkpoints of up to 1,024 cells plus a
//!   torn line after that prefix, and resume re-runs those cells.
//!
//! Either way only the *final* line can be torn, and it then lacks its
//! trailing `\n`; resume treats that shard as never recorded, truncates
//! the file back to the last newline, and appends from there, so the
//! finished file (and the aggregate) is byte-identical to an
//! uninterrupted run's. Resume reads each complete (newline-terminated)
//! line in one strict pass that accepts only what the writer renders:
//! the keys in the writer's order, canonical decimal integers (no sign,
//! no leading zero, no overflow), and nothing after the closing `}`. A
//! line that fails that read (stray bytes, a `+` sign, a leading zero, a
//! blank line) or the validation below is [`ShardError::Corrupt`]:
//! resuming past it could not finish byte-identical.
//!
//! On resume the header is validated against the live grid
//! ([`Grid::shape_fingerprint`], shard size, job count, snapshot shape),
//! the chain is re-verified, the aggregator is restored bit-exactly from
//! the last checkpoint, and execution continues at the first unrecorded
//! shard. A kill *mid-shard* loses only that shard's partial folds: the
//! restore overwrites the aggregator, so nothing is double-counted.

use crate::aggregate::{Aggregator, MetricsAggregator, SnapshotShapeError};
use crate::grid::{Grid, GridError};
use crate::pool::Plan;
use crate::progress::{CancelToken, ProgressFn};
use crate::threads;
use clamshell_core::metrics::RunReport;
use clamshell_obs::Fnv;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// Manifest schema version written and accepted by this build.
pub const MANIFEST_VERSION: u64 = 1;

/// How to run a sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Cells per shard (must be ≥ 1): the checkpoint granularity. Peak
    /// memory does not grow with it: cells are materialized, run and
    /// folded in blocks of at most 64, never more than one shard each.
    pub shard_size: usize,
    /// Manifest path. One line is appended after every completed shard.
    /// Lines are synced in groups of at least 1,024 cells and when the
    /// sweep returns, so a power loss can cost up to 1,024 cells of
    /// checkpoints, which resume re-runs; a kill costs none.
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
            h.write_u64(word);
        }
        h.finish()
    }
}

/// One link of the manifest's fingerprint chain.
fn chain_fp(prev: u64, shard: u64, lo: u64, hi: u64, cells: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for word in [prev, shard, lo, hi] {
        h.write_u64(word);
    }
    for &c in cells {
        h.write_u64(c);
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

/// A strict reader of one manifest line. It accepts only what the
/// writer renders: the literal keys in the writer's order, canonical
/// decimal `u64`s (no sign, no leading zero, no overflow), and nothing
/// after the closing `}`. A line it reads to the end is therefore the
/// line this build would write for its fields.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    /// Consume the literal `lit`.
    fn lit(&mut self, lit: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(lit.as_bytes())?;
        Some(())
    }

    /// Consume the literal `key`, then a canonical decimal `u64`.
    fn u64_after(&mut self, key: &str) -> Option<u64> {
        self.lit(key)?;
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if digits.is_empty() || (digits[0] == b'0' && len > 1) {
            return None;
        }
        self.0 = rest;
        digits.iter().try_fold(0u64, |n, &d| n.checked_mul(10)?.checked_add(u64::from(d - b'0')))
    }

    /// Consume the literal `lit`, which must end the line.
    fn end(self, lit: &str) -> Option<()> {
        (self.0 == lit.as_bytes()).then_some(())
    }

    /// Read a whole header line after its version field.
    fn header_rest(mut self) -> Option<Header> {
        let header = Header {
            grid: self.u64_after(",\"grid\":")?,
            shard_size: self.u64_after(",\"shard_size\":")?,
            n_jobs: self.u64_after(",\"n_jobs\":")?,
            words: self.u64_after(",\"words\":")?,
        };
        self.end("}")?;
        Some(header)
    }

    /// Read a whole shard line as `(shard, lo, hi, cells, fp)`.
    fn shard_line(mut self) -> Option<(u64, u64, u64, Vec<u64>, u64)> {
        let shard = self.u64_after("{\"shard\":")?;
        let lo = self.u64_after(",\"lo\":")?;
        let hi = self.u64_after(",\"hi\":")?;
        self.lit(",\"cells\":[")?;
        let mut cells = Vec::new();
        while self.lit("]").is_none() {
            cells.push(self.u64_after(if cells.is_empty() { "" } else { "," })?);
        }
        let fp = self.u64_after(",\"fp\":")?;
        self.end("}")?;
        Some((shard, lo, hi, cells, fp))
    }
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

/// Group-commit threshold: [`Manifest::append`] syncs once the lines
/// written since the last sync cover this many cells, so between appends
/// fewer than this many cells of checkpoints are ever unsynced. Counted
/// in cells, never by the wall clock, so when a sweep syncs is a pure
/// function of its shape.
const SYNC_CELLS: usize = 1024;

/// The manifest, open for appending after its last complete line.
///
/// Each line goes to the kernel in one `write`, but `sync_data` is
/// group-committed: it runs after the header, after a resume opens the
/// file, once the unsynced lines cover [`SYNC_CELLS`] cells, and in
/// [`Manifest::sync`] when the sweep returns.
struct Manifest<'a> {
    file: File,
    path: &'a Path,
    /// Bytes written: the end of the last complete line.
    written: u64,
    /// Bytes known durable: the file length at the last `sync_data`.
    synced: u64,
    /// Cells covered by the lines in `synced..written`.
    unsynced_cells: usize,
}

impl<'a> Manifest<'a> {
    /// Create (or truncate) `path` holding only the header: a fresh
    /// sweep claims the path at once, so a kill before the first
    /// checkpoint resumes as "0 shards done" instead of tripping over a
    /// stale manifest.
    fn create(path: &'a Path, header: &Header) -> Result<Self, ShardError> {
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let mut manifest = Manifest { file, path, written: 0, synced: 0, unsynced_cells: 0 };
        manifest.write_line(header.render())?;
        manifest.sync()?;
        sync_parent_dir(path)?;
        Ok(manifest)
    }

    /// Open an existing manifest, validate it against `header`, cut a
    /// torn final line back to the last newline, and sync. The sync
    /// always runs: a killed process may have left up to [`SYNC_CELLS`]
    /// cells of lines unsynced, and this one's count does not cover
    /// them. `None` when not even the header line was completed.
    fn resume(path: &'a Path, header: &Header) -> Result<Option<(Self, Resumed)>, ShardError> {
        let file =
            OpenOptions::new().read(true).append(true).open(path).map_err(|e| io_err(path, e))?;
        let Some(resumed) = parse_manifest(&file, path, header)? else {
            return Ok(None);
        };
        let len = file.metadata().map_err(|e| io_err(path, e))?.len();
        if len > resumed.end {
            file.set_len(resumed.end).map_err(|e| io_err(path, e))?;
        }
        let mut manifest =
            Manifest { file, path, written: resumed.end, synced: 0, unsynced_cells: 0 };
        manifest.sync()?;
        Ok(Some((manifest, resumed)))
    }

    /// Append a checkpoint line covering `cells` cells, then sync if the
    /// unsynced lines now cover at least [`SYNC_CELLS`] cells.
    fn append(&mut self, line: String, cells: usize) -> Result<(), ShardError> {
        self.write_line(line)?;
        self.unsynced_cells += cells;
        if self.unsynced_cells >= SYNC_CELLS {
            self.sync()?;
        }
        #[cfg(test)]
        tests::note(self);
        Ok(())
    }

    /// Write `line` and its newline in a single `write`, so a crash can
    /// only tear the final line.
    fn write_line(&mut self, mut line: String) -> Result<(), ShardError> {
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(|e| io_err(self.path, e))?;
        self.written += line.len() as u64;
        Ok(())
    }

    /// Make every written line durable, if any is not yet.
    fn sync(&mut self) -> Result<(), ShardError> {
        if self.synced < self.written {
            self.file.sync_data().map_err(|e| io_err(self.path, e))?;
            self.synced = self.written;
            self.unsynced_cells = 0;
        }
        #[cfg(test)]
        tests::note(self);
        Ok(())
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
    let mut first = Cursor(&buf);
    let version = first.u64_after("{\"v\":").ok_or_else(|| corrupt(path, 1, "malformed header"))?;
    if version != MANIFEST_VERSION {
        return Err(ShardError::Incompatible {
            field: "v",
            manifest: version,
            expected: MANIFEST_VERSION,
        });
    }
    let found = first.header_rest().ok_or_else(|| corrupt(path, 1, "malformed header"))?;
    for (field, manifest, expected) in [
        ("grid", found.grid, header.grid),
        ("shard_size", found.shard_size, header.shard_size),
        ("n_jobs", found.n_jobs, header.n_jobs),
        ("words", found.words, header.words),
    ] {
        if manifest != expected {
            return Err(ShardError::Incompatible { field, manifest, expected });
        }
    }

    let mut fp = header.chain_seed();
    let mut shards = 0;
    let mut last_cells: Option<Vec<u64>> = None;
    let mut lineno = 1;
    while read_line(&mut reader, &mut buf, path)? {
        lineno += 1;
        end += buf.len() as u64 + 1;
        let (shard, lo, hi, cells, got_fp) = Cursor(&buf)
            .shard_line()
            .ok_or_else(|| corrupt(path, lineno, "malformed shard line"))?;
        if shard != shards as u64 {
            return Err(corrupt(
                path,
                lineno,
                format!("expected shard {shards} but found {shard}"),
            ));
        }
        let want_lo = shard * header.shard_size;
        let want_hi = (want_lo + header.shard_size).min(header.n_jobs);
        if lo != want_lo || hi != want_hi {
            return Err(corrupt(
                path,
                lineno,
                format!("shard {shard} covers {lo}..{hi}, expected {want_lo}..{want_hi}"),
            ));
        }
        if cells.len() as u64 != header.words {
            return Err(corrupt(
                path,
                lineno,
                format!("{} snapshot words, header promises {}", cells.len(), header.words),
            ));
        }
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

/// The calling thread's fold: every report into the one cumulative
/// aggregator in global job-index order, with a checkpoint appended as
/// soon as the fold crosses a shard's end.
struct Fold<'a, 'p> {
    grid: &'a Grid,
    agg: &'a mut MetricsAggregator,
    manifest: Manifest<'a>,
    progress: Option<ProgressFn<'p>>,
    shard_size: usize,
    n_jobs: usize,
    /// Cells folded, so also the index of the next cell to fold.
    done: usize,
    /// Shard lines in the manifest.
    shards: usize,
    /// Fingerprint of the last shard line.
    fp: u64,
}

impl Fold<'_, '_> {
    fn push(&mut self, report: &RunReport) -> Result<(), ShardError> {
        self.agg.consume(&self.grid.meta(self.done), report);
        self.done += 1;
        if self.done.is_multiple_of(self.shard_size) || self.done == self.n_jobs {
            let (shard, lo, hi) =
                (self.shards as u64, (self.shards * self.shard_size) as u64, self.done as u64);
            let cells = self.agg.snapshot_words();
            self.fp = chain_fp(self.fp, shard, lo, hi, &cells);
            self.manifest
                .append(render_shard_line(shard, lo, hi, &cells, self.fp), (hi - lo) as usize)?;
            self.shards += 1;
        }
        if let Some(p) = self.progress.as_mut() {
            p(self.done, self.n_jobs);
        }
        Ok(())
    }
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
/// `progress` is called as `(folded, n_jobs)` after every cell, on the
/// calling thread, once any checkpoint that cell completes is written.
/// That checkpoint survives a kill at once, and a power loss once the
/// group commit described in the module docs has synced it; every
/// checkpoint is synced by the time this returns `Ok`.
/// A cancellation stops the fold at once: `completed` counts the folds,
/// and `shards_completed` the shard lines on disk. `agg` may hold folds
/// past the last checkpoint; a resume restores from the manifest, so
/// nothing is double-counted.
pub fn run_sharded(
    grid: &Grid,
    agg: &mut MetricsAggregator,
    opts: &ShardOptions,
    cancel: &CancelToken,
    progress: Option<ProgressFn<'_>>,
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
    let (manifest, resumed_shards, fp) = match resumed {
        Some((manifest, resumed)) => {
            if let Some(cells) = &resumed.last_cells {
                agg.restore_words(cells)?;
            }
            (manifest, resumed.shards, resumed.fp)
        }
        None => (Manifest::create(&opts.manifest, &header)?, 0, header.chain_seed()),
    };
    let start = (resumed_shards * opts.shard_size).min(n_jobs);
    let mut fold = Fold {
        grid,
        agg,
        manifest,
        progress,
        shard_size: opts.shard_size,
        n_jobs,
        done: start,
        shards: resumed_shards,
        fp,
    };
    let plan = Plan {
        start,
        end: n_jobs,
        shard: opts.shard_size,
        threads: threads::resolve(opts.threads),
    };
    let flow = if cancel.is_cancelled() {
        ControlFlow::Continue(())
    } else {
        grid.execute(plan, true, &mut |_, report| match fold.push(&report) {
            Err(e) => ControlFlow::Break(Some(e)),
            Ok(()) if cancel.is_cancelled() => ControlFlow::Break(None),
            Ok(()) => ControlFlow::Continue(()),
        })
    };
    if let ControlFlow::Break(Some(e)) = flow {
        return Err(e);
    }
    fold.manifest.sync()?;

    Ok(ShardOutcome {
        completed: fold.done,
        total: n_jobs,
        cancelled: fold.done < n_jobs,
        shards_completed: fold.shards,
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
    use std::cell::RefCell;

    thread_local! {
        /// `(written, synced)` of every manifest this thread appended to
        /// or synced, after each append and each sync. The fold runs on
        /// the thread that calls `run_sharded`, so a test sees its own.
        static SYNC_LOG: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn note(manifest: &Manifest<'_>) {
        SYNC_LOG.with(|log| log.borrow_mut().push((manifest.written, manifest.synced)));
    }

    fn take_sync_log() -> Vec<(u64, u64)> {
        SYNC_LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }

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

    /// Cells folded into `agg`, summed over its scenario rows.
    fn folds(agg: &MetricsAggregator) -> usize {
        let metric = agg.metrics()[0].name;
        (0..agg.n_scenarios()).map(|s| agg.stats(s, metric).count() as usize).sum()
    }

    /// Newline-terminated shard lines in the manifest at `path`.
    fn shard_lines(path: &Path) -> usize {
        let bytes = std::fs::read(path).unwrap();
        bytes.iter().filter(|&&b| b == b'\n').count().saturating_sub(1)
    }

    #[test]
    fn sharded_matches_unsharded_bit_for_bit() {
        let g = grid();
        let reference = reference_words(&g);
        for shard_size in [1, 2, 4, 64] {
            let mut first_manifest: Option<Vec<u8>> = None;
            for threads in [1, 2, 4] {
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
                let manifest = std::fs::read(&path).unwrap();
                let first = first_manifest.get_or_insert_with(|| manifest.clone());
                assert!(
                    *first == manifest,
                    "shard_size {shard_size}: the manifest at {threads} threads differs from 1 thread's"
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
        // Cancel after every possible number of delivered jobs, at shard
        // sizes that do and do not divide the grid; each interrupted
        // sweep must leave exactly its folds counted and its checkpoints
        // on disk, and resume to the exact reference bits.
        for threads in [1, 2, 4] {
            for shard_size in [2, 4] {
                for kill_after in 1..=g.n_jobs() {
                    let case = format!("t={threads} s={shard_size} kill@{kill_after}");
                    let path =
                        manifest_path(&format!("resume_{threads}_{shard_size}_{kill_after}"));
                    let opts = ShardOptions {
                        shard_size,
                        manifest: path.clone(),
                        resume: false,
                        threads: Some(threads),
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
                    assert_eq!(out.completed, folds(&agg), "{case}: {out:?}");
                    assert_eq!(out.shards_completed, shard_lines(&path), "{case}: {out:?}");
                    if out.is_complete() {
                        // Cancel landed after the last delivery; nothing
                        // to resume.
                        assert_eq!(agg.snapshot_words(), reference, "{case}");
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    assert!(out.cancelled, "{case}");
                    assert_eq!(out.completed, kill_after, "{case}");

                    // Second process: fresh aggregator, resume from the
                    // manifest.
                    let opts = ShardOptions { resume: true, ..opts };
                    let mut resumed = fresh_agg(&g);
                    let out2 =
                        run_sharded(&g, &mut resumed, &opts, &CancelToken::new(), None).unwrap();
                    assert!(out2.is_complete(), "{case}: {out2:?}");
                    assert_eq!(out2.resumed_shards, out.shards_completed, "{case}");
                    assert_eq!(resumed.snapshot_words(), reference, "{case}");
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }

    #[test]
    fn a_panicking_cell_propagates_at_every_width() {
        // Whichever thread runs the bad cell, its peers must not wait on
        // a frontier that will never move: the panic reaches the caller.
        let g = grid().scenario("boom", |_| panic!("bad cell"));
        for threads in [1, 2, 4] {
            let path = manifest_path(&format!("panic_{threads}"));
            let opts = ShardOptions {
                shard_size: 1,
                manifest: path.clone(),
                resume: false,
                threads: Some(threads),
            };
            let mut agg = fresh_agg(&g);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_sharded(&g, &mut agg, &opts, &CancelToken::new(), None)
            }));
            assert!(run.is_err(), "{threads} threads");
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
    fn resume_rejects_non_canonical_lines() {
        // Each edit keeps every field's value, so only the strict read
        // can catch it; resuming past it would leave a finished manifest
        // that differs from the uninterrupted one.
        type Edit = fn(&mut Vec<String>);
        let edits: [(&str, Edit, usize); 7] = [
            ("junk after line 3", |lines| lines[2].push_str("junk"), 3),
            (
                "a plus sign in line 4's cells",
                |lines| {
                    let at = lines[3].find("\"cells\":[").unwrap() + "\"cells\":[".len();
                    lines[3].insert(at, '+');
                },
                4,
            ),
            (
                "a leading zero in the header",
                |lines| lines[0] = lines[0].replacen("\"v\":1,", "\"v\":01,", 1),
                1,
            ),
            ("a blank line before line 3", |lines| lines.insert(2, String::new()), 3),
            (
                "an overflowing cell word in line 2",
                |lines| {
                    let at = lines[1].find("\"cells\":[").unwrap() + "\"cells\":[".len();
                    let len = lines[1][at..].find([',', ']']).unwrap();
                    lines[1].replace_range(at..at + len, "18446744073709551616");
                },
                2,
            ),
            (
                "a space after a colon in line 3",
                |lines| lines[2] = lines[2].replacen("\"hi\":", "\"hi\": ", 1),
                3,
            ),
            (
                "\"lo\" and \"hi\" swapped in line 4",
                |lines| lines[3] = lines[3].replacen("\"lo\":4,\"hi\":6,", "\"hi\":6,\"lo\":4,", 1),
                4,
            ),
        ];
        let g = grid();
        let path = manifest_path("canonical");
        let full = String::from_utf8(finished_manifest(&g, &path)).unwrap();
        for (what, edit, want_line) in edits {
            let mut lines: Vec<String> = full.lines().map(String::from).collect();
            edit(&mut lines);
            let edited = format!("{}\n", lines.join("\n"));
            assert_ne!(edited, full, "{what}: the edit changed nothing");
            std::fs::write(&path, &edited).unwrap();
            let opts = ShardOptions {
                shard_size: 2,
                manifest: path.clone(),
                resume: true,
                threads: Some(1),
            };
            let err =
                run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap_err();
            match err {
                ShardError::Corrupt { line, .. } => assert_eq!(line, want_line, "{what}: {err}"),
                other => panic!("{what}: expected Corrupt, got {other}"),
            }
            assert_eq!(std::fs::read_to_string(&path).unwrap(), edited, "{what}: file touched");
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

    /// Cells checkpointed by `full` up to each line end, keyed by the
    /// byte offset past that line's newline: the line's `hi`, or 0 for
    /// the header and for the empty file.
    fn cells_by_offset(full: &[u8]) -> std::collections::HashMap<u64, u64> {
        let mut at = 0;
        let lines = std::str::from_utf8(full).unwrap().split_inclusive('\n').map(|line| {
            at += line.len() as u64;
            let line = line.strip_suffix('\n').unwrap_or(line);
            (at, Cursor(line.as_bytes()).shard_line().map_or(0, |(_, _, hi, _, _)| hi))
        });
        std::iter::once((0, 0)).chain(lines).collect()
    }

    /// Check one run's sync log against `full`, the uninterrupted
    /// manifest, of which the file is a prefix at every point of the
    /// run. After every append the unsynced lines cover fewer than
    /// `SYNC_CELLS` cells, and none when a shard alone reaches it; when
    /// `run_sharded` has returned `Ok`, the file on disk is all synced.
    /// Returns the synced lengths the run passed through.
    fn check_sync_log(path: &Path, full: &[u8], shard_size: usize, case: &str) -> Vec<u64> {
        let log = take_sync_log();
        let cells = cells_by_offset(full);
        for &(written, synced) in &log {
            let unsynced = cells[&written] - cells[&synced];
            assert!(unsynced < SYNC_CELLS as u64, "{case}: {unsynced} cells unsynced");
            if shard_size >= SYNC_CELLS {
                assert_eq!(written, synced, "{case}: a large shard's line went unsynced");
            }
        }
        let len = std::fs::metadata(path).unwrap().len();
        assert_eq!(log.last(), Some(&(len, len)), "{case}: returned with unsynced lines");
        log.into_iter().map(|(_, synced)| synced).collect()
    }

    #[test]
    fn power_loss_after_any_sync_resumes_to_the_uninterrupted_manifest() {
        // 2 × 1,550 = 3,100 one-task cells: over 3 × SYNC_CELLS, and
        // divided by no tested shard size but 1.
        let seeds: Vec<u64> = (1..=1550).collect();
        let g = Grid::new(
            RunConfig { pool_size: 1, ng: 1, ..Default::default() },
            Population::mturk_live(),
            vec![TaskSpec::new(vec![0])],
            1,
        )
        .seeds(&seeds)
        .scenario("sm", |c| c.straggler = Some(Default::default()))
        .scenario("nosm", |c| c.straggler = None);
        let n_jobs = g.n_jobs();
        let reference = reference_words(&g);
        for shard_size in [1, 32, 1000, 2048] {
            for threads in [1, 2] {
                let case = format!("s={shard_size} t={threads}");
                let path = manifest_path(&format!("power_{shard_size}_{threads}"));
                let opts = ShardOptions {
                    shard_size,
                    manifest: path.clone(),
                    resume: false,
                    threads: Some(threads),
                };
                take_sync_log();
                run_sharded(&g, &mut fresh_agg(&g), &opts, &CancelToken::new(), None).unwrap();
                let full = std::fs::read(&path).unwrap();
                let mut synced = check_sync_log(&path, &full, shard_size, &case);

                // A cancelled sweep returns fully synced too, and resumes.
                let cancel = CancelToken::new();
                let cancel_ref = &cancel;
                let out = run_sharded(
                    &g,
                    &mut fresh_agg(&g),
                    &opts,
                    &cancel,
                    Some(&mut |done, _| {
                        if done == n_jobs / 2 + 7 {
                            cancel_ref.cancel();
                        }
                    }),
                )
                .unwrap();
                assert!(out.cancelled, "{case}");
                check_sync_log(&path, &full, shard_size, &format!("{case} cancelled"));
                let resume = ShardOptions { resume: true, ..opts.clone() };
                let mut agg = fresh_agg(&g);
                run_sharded(&g, &mut agg, &resume, &CancelToken::new(), None).unwrap();
                check_sync_log(&path, &full, shard_size, &format!("{case} resumed"));
                assert_eq!(agg.snapshot_words(), reference, "{case} resumed");
                assert!(std::fs::read(&path).unwrap() == full, "{case} resumed");

                // Lose power with the file at each synced length the
                // uninterrupted run reached, alternately cut clean and
                // with a torn prefix of the next line after it.
                synced.sort_unstable();
                synced.dedup();
                for (i, &at) in synced.iter().enumerate() {
                    let at = at as usize;
                    let mut cut = at;
                    if i % 2 == 1 && at < full.len() {
                        let line = full[at..].iter().position(|&b| b == b'\n').unwrap();
                        cut += 1 + (at * 7919) % line;
                    }
                    let lost = format!("{case} lost power at {at}+{}", cut - at);
                    std::fs::write(&path, &full[..cut]).unwrap();
                    let mut agg = fresh_agg(&g);
                    let out =
                        run_sharded(&g, &mut agg, &resume, &CancelToken::new(), None).unwrap();
                    check_sync_log(&path, &full, shard_size, &lost);
                    let lines = full[..at].iter().filter(|&&b| b == b'\n').count();
                    assert!(out.is_complete(), "{lost}: {out:?}");
                    assert_eq!(out.resumed_shards, lines.saturating_sub(1), "{lost}");
                    assert_eq!(agg.snapshot_words(), reference, "{lost}");
                    assert!(std::fs::read(&path).unwrap() == full, "{lost}: manifest differs");
                }
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    fn field_scanners_parse_and_reject() {
        let line = b"{\"shard\":3,\"lo\":6,\"hi\":9,\"cells\":[1,2,3],\"fp\":42}";
        assert_eq!(Cursor(line).shard_line(), Some((3, 6, 9, vec![1, 2, 3], 42)));
        let empty = b"{\"shard\":0,\"lo\":0,\"hi\":0,\"cells\":[],\"fp\":0}";
        assert_eq!(Cursor(empty).shard_line(), Some((0, 0, 0, vec![], 0)));
        for bad in ["[1,x]", "[1,]", "[,1]", "[01]", "[+1]", "[1 ]", "[18446744073709551616]"] {
            let line = format!("{{\"shard\":0,\"lo\":0,\"hi\":0,\"cells\":{bad},\"fp\":0}}");
            assert_eq!(Cursor(line.as_bytes()).shard_line(), None, "{bad}");
        }
        let max = format!("{{\"shard\":0,\"lo\":0,\"hi\":0,\"cells\":[{}],\"fp\":0}}", u64::MAX);
        assert_eq!(Cursor(max.as_bytes()).shard_line(), Some((0, 0, 0, vec![u64::MAX], 0)));
        assert_eq!(Cursor(&line[..line.len() - 1]).shard_line(), None);
        assert_eq!(Cursor(b"{\"shard\":}").shard_line(), None);
        let header = Header { grid: 7, shard_size: 2, n_jobs: 6, words: 3 };
        let text = header.render();
        let mut c = Cursor(text.as_bytes());
        assert_eq!(c.u64_after("{\"v\":"), Some(MANIFEST_VERSION));
        assert_eq!(c.header_rest(), Some(header));
        let trailing = format!("{text} ");
        let mut c = Cursor(trailing.as_bytes());
        c.u64_after("{\"v\":");
        assert_eq!(c.header_rest(), None);
    }
}
