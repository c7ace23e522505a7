//! JSONL trace rendering and the FNV-1a trace fingerprint.
//!
//! The wire format is deliberately hand-rolled: every line is rendered
//! field-by-field in a fixed order, so the bytes are a function of the
//! event stream alone — no map-iteration or float-formatting ambiguity.
//! That makes the rendered trace (and its fingerprint) a golden artifact
//! that must be byte-identical across thread counts.
//!
//! Schema, version 1. Each `(scenario, seed)` section is one header line
//! followed by one line per retained event:
//!
//! ```text
//! {"v":1,"stream":"clamshell-trace","scenario":"<name>","seed":<n>,
//!  "events":<n>,"recorded":<n>,"dropped":<n>,"fingerprint":"fnv1a:<16 hex>"}
//! {"v":1,"seq":<n>,"at_ms":<n>,"ev":"<event-name>",...variant fields}
//! ```
//!
//! Event lines come from one table-driven byte renderer,
//! [`render_event_into`]: the fixed prefix, then one `,"key":value` pair
//! per entry of [`TraceKind::field_keys`] zipped with
//! [`TraceKind::field_values`] — the same payload [`fingerprint_events`]
//! hashes — with integers written by a digit loop rather than
//! `core::fmt`. A new event kind is one `field_values` arm plus one
//! `field_keys` row. Callers that export many sections
//! ([`render_section_into`]) append to one reused `Vec<u8>`; the
//! `String` forms ([`render_event`], `ObsReport::render_jsonl`) wrap
//! that same path.
//!
//! Versioning contract: existing fields never change meaning or order;
//! additions bump `TRACE_SCHEMA_VERSION`.

use clamshell_sim::json;

use crate::recorder::TraceEvent;
#[cfg(doc)]
use crate::recorder::TraceKind;

/// Bump on any change to line shape or field order.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// `PRIME^k` for `k` in `0..=8`.
    const PRIME_POW: [u64; 9] = {
        let mut pow = [1u64; 9];
        let mut k = 1;
        while k < pow.len() {
            pow[k] = pow[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        pow
    };

    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Hash `v` as 8 little-endian bytes: the same bits as
    /// `self.write(&v.to_le_bytes())`. Hashing a zero byte only
    /// multiplies the state by `PRIME`, so the zero high bytes of `v`
    /// fold into one multiply by `PRIME^k`.
    pub fn write_u64(&mut self, v: u64) {
        let zero_high = (v.leading_zeros() / 8) as usize;
        let mut h = self.0;
        let mut rest = v;
        for _ in zero_high..8 {
            h = (h ^ (rest & 0xff)).wrapping_mul(Self::PRIME);
            rest >>= 8;
        }
        self.0 = h.wrapping_mul(Self::PRIME_POW[zero_high]);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `"fnv1a:<16 lowercase hex digits>"` — the committed/logged form.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("fnv1a:{fp:016x}")
}

/// Capacity hint for one event line: the traced workload's lines
/// average about 85 bytes.
const LINE_HINT: usize = 96;

/// Append the decimal digits of `v`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Append one event line (no trailing newline) to `out`.
pub fn render_event_into(out: &mut Vec<u8>, event: &TraceEvent) {
    out.extend_from_slice(b"{\"v\":");
    push_u64(out, TRACE_SCHEMA_VERSION.into());
    out.extend_from_slice(b",\"seq\":");
    push_u64(out, event.seq);
    out.extend_from_slice(b",\"at_ms\":");
    push_u64(out, event.at_ms);
    out.extend_from_slice(b",\"ev\":\"");
    out.extend_from_slice(event.kind.event_name().as_str().as_bytes());
    out.push(b'"');
    let (values, n) = event.kind.field_values();
    for (key, &value) in event.kind.field_keys().iter().zip(&values[..n]) {
        out.extend_from_slice(b",\"");
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(b"\":");
        push_u64(out, value);
    }
    out.push(b'}');
}

/// Render one event line (no trailing newline).
pub fn render_event(event: &TraceEvent) -> String {
    let mut line = Vec::with_capacity(LINE_HINT);
    render_event_into(&mut line, event);
    String::from_utf8(line).expect("trace lines are ASCII")
}

/// Append one newline-terminated JSONL section to `out`: the
/// [`render_header`] line, then one line per event.
pub fn render_section_into<'a>(
    out: &mut Vec<u8>,
    scenario: &str,
    seed: u64,
    events: impl ExactSizeIterator<Item = &'a TraceEvent>,
    recorded: u64,
    dropped: u64,
    fingerprint: u64,
) {
    let header = render_header(scenario, seed, events.len(), recorded, dropped, fingerprint);
    out.reserve(header.len() + 1 + LINE_HINT * events.len());
    out.extend_from_slice(header.as_bytes());
    out.push(b'\n');
    for event in events {
        render_event_into(out, event);
        out.push(b'\n');
    }
}

/// FNV-1a over every event's fixed-width encoding: `seq` and `at_ms` as
/// LE `u64`, the kind index as one byte, then the variant's payload
/// (see [`TraceKind::field_values`]) as LE `u64`s in render order.
///
/// This hashes exactly the fields the rendered JSONL line is built from
/// — [`render_event_into`] writes the kind's name and
/// [`TraceKind::field_keys`] around these values — but skips the
/// per-event rendering, keeping `into_report` off the formatting path
/// (the whole-run overhead guard in the `hotloop` bench depends on
/// this). Equal fingerprints imply byte-identical traces only for a
/// fixed renderer; the renderer's own bytes are pinned separately, by
/// the literal lines in this module's tests and the scenarios crate's
/// `trace_jsonl_fnv` golden.
pub fn fingerprint_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> u64 {
    let mut fnv = Fnv::new();
    for event in events {
        fnv.write_u64(event.seq);
        fnv.write_u64(event.at_ms);
        fnv.write(&[event.kind.index() as u8]);
        let (values, n) = event.kind.field_values();
        for &value in &values[..n] {
            fnv.write_u64(value);
        }
    }
    fnv.finish()
}

/// Render the section header line (no trailing newline). Scenario names
/// are plain slugs, but the name is escaped regardless, so the line is
/// always well-formed JSON.
pub fn render_header(
    scenario: &str,
    seed: u64,
    events: usize,
    recorded: u64,
    dropped: u64,
    fingerprint: u64,
) -> String {
    format!(
        "{{\"v\":{},\"stream\":\"clamshell-trace\",\"scenario\":{},\"seed\":{},\"events\":{},\"recorded\":{},\"dropped\":{},\"fingerprint\":\"{}\"}}",
        TRACE_SCHEMA_VERSION,
        json::to_string(scenario),
        seed,
        events,
        recorded,
        dropped,
        fingerprint_hex(fingerprint)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceKind;

    /// Minimal structural check for the flat (non-nested) objects this
    /// renderer emits: balanced outer braces, well-paired quotes, and
    /// `"key":value` comma separation. The workspace has no JSON parser,
    /// so the CI schema validation uses python3; this keeps a sanity net
    /// inside the crate too.
    fn assert_flat_json_object(line: &str) {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        let body = &line[1..line.len() - 1];
        let mut in_str = false;
        let mut escaped = false;
        let mut pairs = Vec::new();
        let mut start = 0;
        for (i, c) in body.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                ',' if !in_str => {
                    pairs.push(&body[start..i]);
                    start = i + 1;
                }
                '{' | '}' if !in_str => panic!("nested object in flat line: {line}"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string: {line}");
        pairs.push(&body[start..]);
        for pair in pairs {
            let (key, value) = pair.split_once(':').expect("key:value pair");
            assert!(
                key.starts_with('"') && key.ends_with('"') && key.len() >= 3,
                "bad key in {line}"
            );
            let is_num = value.bytes().all(|b| b.is_ascii_digit()) && !value.is_empty();
            let is_str = value.starts_with('"') && value.ends_with('"') && value.len() >= 2;
            assert!(is_num || is_str, "bad value {value:?} in {line}");
        }
    }

    /// One event of every kind, in [`TraceKind::index`] order, with
    /// every `u32` field set to `w` and every `u64` field to `t`.
    fn all_kinds(w: u32, t: u64) -> [TraceKind; TraceKind::COUNT] {
        [
            TraceKind::Checkout { worker: w, waited_ms: t },
            TraceKind::Dispatch { worker: w, task: w, assignment: w },
            TraceKind::AssignmentDone { worker: w, task: w, assignment: w, span_ms: t },
            TraceKind::Walkout { worker: w, task: w, assignment: w },
            TraceKind::ReserveTimeout { worker: w },
            TraceKind::StaleRetired { worker: w },
            TraceKind::MaintenanceEvict { worker: w },
            TraceKind::OutageDefer { resume_ms: t },
            TraceKind::OutageResume,
            TraceKind::PoolJoin { worker: w, occupancy: t },
            TraceKind::PoolLeave { worker: w, occupancy: t },
        ]
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::new();
        a.write(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv::new();
        foobar.write(b"foobar");
        assert_eq!(foobar.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn write_u64_matches_bytewise_write() {
        let mut values = vec![0, 1, 0xff, 0x100, u64::MAX];
        values.extend((0..64).map(|k| 1u64 << k));
        // A splitmix64 sweep: every byte width, dense and sparse.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            values.push(z);
            values.push(z >> (z % 64));
        }
        for v in values {
            let mut bytewise = Fnv::new();
            bytewise.write(b"prefix");
            let mut wordwise = bytewise.clone();
            bytewise.write(&v.to_le_bytes());
            wordwise.write_u64(v);
            assert_eq!(wordwise.finish(), bytewise.finish(), "v = {v:#x}");
        }
    }

    #[test]
    fn field_keys_align_with_field_values() {
        for (i, kind) in all_kinds(1, 2).into_iter().enumerate() {
            assert_eq!(kind.index(), i, "all_kinds covers every kind once");
            assert_eq!(kind.field_keys().len(), kind.field_values().1, "{kind:?}");
        }
    }

    #[test]
    fn event_lines_are_stable() {
        let e = TraceEvent {
            seq: 7,
            at_ms: 1250,
            kind: TraceKind::AssignmentDone { worker: 3, task: 11, assignment: 42, span_ms: 900 },
        };
        assert_eq!(
            render_event(&e),
            "{\"v\":1,\"seq\":7,\"at_ms\":1250,\"ev\":\"assignment_done\",\"worker\":3,\"task\":11,\"assignment\":42,\"span_ms\":900}"
        );
        let bare = TraceEvent { seq: 0, at_ms: 0, kind: TraceKind::OutageResume };
        assert_eq!(render_event(&bare), "{\"v\":1,\"seq\":0,\"at_ms\":0,\"ev\":\"outage_resume\"}");
    }

    #[test]
    fn every_kind_renders_pinned_bytes_at_zero_and_max_width() {
        // Recorded from the original `write!`-based renderer: the
        // narrowest and widest value of every field, for every kind.
        let zero = [
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"checkout","worker":0,"waited_ms":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"dispatch","worker":0,"task":0,"assignment":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"assignment_done","worker":0,"task":0,"assignment":0,"span_ms":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"walkout","worker":0,"task":0,"assignment":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"reserve_timeout","worker":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"stale_retired","worker":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"maintenance_evict","worker":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"outage_defer","resume_ms":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"outage_resume"}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"pool_join","worker":0,"occupancy":0}"#,
            r#"{"v":1,"seq":0,"at_ms":0,"ev":"pool_leave","worker":0,"occupancy":0}"#,
        ];
        let max = [
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"checkout","worker":4294967295,"waited_ms":18446744073709551615}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"dispatch","worker":4294967295,"task":4294967295,"assignment":4294967295}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"assignment_done","worker":4294967295,"task":4294967295,"assignment":4294967295,"span_ms":18446744073709551615}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"walkout","worker":4294967295,"task":4294967295,"assignment":4294967295}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"reserve_timeout","worker":4294967295}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"stale_retired","worker":4294967295}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"maintenance_evict","worker":4294967295}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"outage_defer","resume_ms":18446744073709551615}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"outage_resume"}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"pool_join","worker":4294967295,"occupancy":18446744073709551615}"#,
            r#"{"v":1,"seq":18446744073709551615,"at_ms":18446744073709551615,"ev":"pool_leave","worker":4294967295,"occupancy":18446744073709551615}"#,
        ];
        for (w, t, expected) in [(0, 0, zero), (u32::MAX, u64::MAX, max)] {
            for (kind, line) in all_kinds(w, t).into_iter().zip(expected) {
                assert_eq!(render_event(&TraceEvent { seq: t, at_ms: t, kind }), line);
            }
        }
    }

    #[test]
    fn every_line_parses_as_json() {
        for (i, kind) in all_kinds(1, 5).into_iter().enumerate() {
            let line = render_event(&TraceEvent { seq: i as u64, at_ms: 10 * i as u64, kind });
            assert_flat_json_object(&line);
            assert!(line.starts_with("{\"v\":1,\"seq\":"), "{line}");
            assert!(line.contains(",\"at_ms\":"), "{line}");
            assert!(line.contains(",\"ev\":\""), "{line}");
        }
        let header = render_header("blackout", 42, 10, 12, 2, 0xdead_beef);
        assert_flat_json_object(&header);
        assert!(header.contains("\"fingerprint\":\"fnv1a:00000000deadbeef\""));
    }

    #[test]
    fn fingerprint_tracks_event_bytes() {
        let a = TraceEvent { seq: 0, at_ms: 1, kind: TraceKind::ReserveTimeout { worker: 5 } };
        let b = TraceEvent { seq: 1, at_ms: 2, kind: TraceKind::ReserveTimeout { worker: 6 } };
        let fp_ab = fingerprint_events([&a, &b]);
        let fp_ba = fingerprint_events([&b, &a]);
        assert_ne!(fp_ab, fp_ba, "fingerprint must be order-sensitive");
        assert_eq!(fp_ab, fingerprint_events(vec![&a, &b]));
        // Same payload, different kind: the kind index byte must keep
        // the encodings distinct.
        let join =
            TraceEvent { seq: 0, at_ms: 1, kind: TraceKind::PoolJoin { worker: 5, occupancy: 2 } };
        let leave = TraceEvent { kind: TraceKind::PoolLeave { worker: 5, occupancy: 2 }, ..join };
        assert_ne!(fingerprint_events([&join]), fingerprint_events([&leave]));
    }
}
