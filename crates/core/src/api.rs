//! The unified construction and consumption façade: one builder
//! ([`DetectorConfig`]), one driving handle ([`Session`]), one streaming
//! output contract ([`ReportSink`]).
//!
//! The paper's detector is *online*: races are "signalled, never fatal"
//! (§IV-D). A production runtime therefore wants a **stream** of reports —
//! printed, counted, aggregated, forwarded — not an unbounded in-memory
//! log sliced after the fact. This module is that streaming layer, plus the
//! single place every construction knob lives:
//!
//! ```text
//!   DetectorConfig ──build()──▶ Box<dyn Detector>
//!        │                           │
//!        └──session()──▶ Session ────┤ observe(op) ─▶ ReportSink::accept
//!                           │        └ finish()     ─▶ ReportSink::on_flush
//!                           └ RaceSummary (bounded, O(areas) memory)
//! ```
//!
//! * [`DetectorConfig`] — every knob of every detector in one
//!   serialisable value. [`DetectorConfig::to_json`]
//!   / [`DetectorConfig::from_json`] round-trip the exact configuration so
//!   bench JSON rows and CI can record and replay it.
//! * [`Session`] — owns the detector plus a pluggable [`ReportSink`] trait
//!   object and a running [`RaceSummary`]. Reports stream out as they are
//!   detected; the session itself retains only the bounded aggregate.
//! * Shipped sinks: [`VecSink`] (keeps everything),
//!   [`CountingSink`], [`SummarySink`], [`ChannelSink`], [`DedupSink`].
//!
//! # Lifecycle
//!
//! ```
//! use dsm::GlobalAddr;
//! use race_core::api::{CountingSink, DetectorConfig};
//! use race_core::{DetectorKind, DsmOp, OpKind};
//!
//! // Fig 5a: two unsynchronised puts to the same word of P1's memory.
//! let put = |op_id, actor: usize| DsmOp {
//!     op_id,
//!     actor,
//!     kind: OpKind::Put {
//!         src: GlobalAddr::private(actor, 0).range(8),
//!         dst: GlobalAddr::public(1, 0).range(8),
//!     },
//! };
//!
//! let config = DetectorConfig::new(DetectorKind::Dual, 3);
//! let mut session = config.session_with(Box::new(CountingSink::default()));
//! session.observe(&put(0, 0), &[]);
//! session.observe(&put(1, 2), &[]);
//! let (summary, _sink) = session.finish();
//! assert_eq!(summary.total, 1); // exactly one write-write race streamed out
//! ```

use std::collections::BTreeMap;
use std::sync::mpsc::Sender;

use crate::clockstore::Granularity;
use crate::detector::{Detector, DetectorKind};
use crate::event::{DsmOp, Event, LockId};
use crate::hb::HbDetector;
use crate::json;
use crate::report::{dedup_keys, DedupKeys, RaceReport};
use crate::summary::RaceSummary;

// ---------------------------------------------------------------------------
// Report sinks
// ---------------------------------------------------------------------------

/// Where detected races go, as they are detected.
///
/// Detectors emit through a sink on the hot path instead of appending to an
/// internal grow-forever log; what a report *costs* is therefore the sink's
/// decision — [`VecSink`] keeps everything, [`SummarySink`] aggregates in
/// O(areas) memory, [`CountingSink`] keeps two integers. Sinks are `Send`
/// so a [`Session`] can cross threads with its detector.
pub trait ReportSink: Send {
    /// One report, by reference. Implementations that retain the report
    /// clone it; aggregating sinks just read it.
    fn on_report(&mut self, report: &RaceReport);

    /// One report, by value — the detectors' entry point. The default
    /// forwards to [`ReportSink::on_report`] and drops the value; sinks
    /// that store reports override it to keep the ownership transfer
    /// clone-free (this is what keeps the [`VecSink`] path byte- and
    /// cost-identical to the old direct log append).
    fn accept(&mut self, report: RaceReport) {
        self.on_report(&report);
    }

    /// Every report of one operation, by value and in detection order;
    /// `reports` comes back empty with its capacity kept. The default hands
    /// them to [`ReportSink::accept`] one by one; a sink that can take the
    /// whole run at once ([`VecSink`]: one append) overrides it.
    fn accept_all(&mut self, reports: &mut Vec<RaceReport>) {
        for report in reports.drain(..) {
            self.accept(report);
        }
    }

    /// End-of-stream notification with the session's bounded aggregate.
    /// Called once by [`Session::finish`]; defaults to a no-op.
    fn on_flush(&mut self, summary: &RaceSummary) {
        let _ = summary;
    }

    /// The retained reports, for sinks that keep them ([`VecSink`] — and
    /// [`DedupSink`] when its inner sink does). Aggregating sinks return
    /// the empty slice; this is the `reports()`-as-convenience contract of
    /// the façade.
    fn reports(&self) -> &[RaceReport] {
        &[]
    }

    /// Move the retained reports out of the sink, leaving it holding none:
    /// how the owner of a finished session takes the report stream by value
    /// instead of copying [`ReportSink::reports`]. The default copies (a
    /// sink that retains nothing returns the empty `Vec`); [`VecSink`] and
    /// the wrappers around it hand their storage over.
    fn take_reports(&mut self) -> Vec<RaceReport> {
        self.reports().to_vec()
    }

    /// Serialize sink state that must survive a [`Session::checkpoint`] /
    /// [`Session::restore`] cycle. Most sinks are either stateless or
    /// re-derivable and return `None` (the default); [`DedupSink`]
    /// persists its seen-key window so a restored session does not
    /// re-forward races the interrupted one already reported.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state produced by [`ReportSink::snapshot_state`]. Returns
    /// true when the state was understood and applied; the default ignores
    /// it (false).
    fn restore_state(&mut self, state: &[u8]) -> bool {
        let _ = state;
        false
    }
}

/// The keep-everything sink.
#[derive(Debug, Default)]
pub struct VecSink {
    reports: Vec<RaceReport>,
}

impl VecSink {
    /// An empty log.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The reports accumulated so far.
    pub fn as_slice(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Consume the sink, keeping its reports.
    pub fn into_reports(self) -> Vec<RaceReport> {
        self.reports
    }

    /// Number of reports held.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when no report was retained.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

impl ReportSink for VecSink {
    fn on_report(&mut self, report: &RaceReport) {
        self.reports.push(report.clone());
    }

    fn accept(&mut self, report: RaceReport) {
        self.reports.push(report); // by value: no clone on the hot path
    }

    fn accept_all(&mut self, reports: &mut Vec<RaceReport>) {
        self.reports.append(reports);
    }

    fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    fn take_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }
}

/// A sink that keeps two counters and nothing else: the cheapest possible
/// consumer, for overhead baselines and liveness probes.
#[derive(Debug, Default)]
pub struct CountingSink {
    total: usize,
    true_races: usize,
}

impl CountingSink {
    /// Reports seen, including read-read false positives.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Reports whose class is a true race under the paper's definition.
    pub fn true_races(&self) -> usize {
        self.true_races
    }
}

impl ReportSink for CountingSink {
    fn on_report(&mut self, report: &RaceReport) {
        self.total += 1;
        if report.class.is_true_race() {
            self.true_races += 1;
        }
    }
}

/// Streams reports into a [`RaceSummary`]: memory grows with the number of
/// distinct classes, areas and process pairs — never with the number of
/// reports. The bounded-memory choice for long-running services.
#[derive(Debug, Default)]
pub struct SummarySink {
    summary: RaceSummary,
}

impl SummarySink {
    /// The aggregate so far.
    pub fn summary(&self) -> &RaceSummary {
        &self.summary
    }
}

impl ReportSink for SummarySink {
    fn on_report(&mut self, report: &RaceReport) {
        self.summary.add(report);
    }

    /// An operation's reports folded in by runs ([`RaceSummary::add_all`]).
    fn accept_all(&mut self, reports: &mut Vec<RaceReport>) {
        self.summary.add_all(reports);
        reports.clear();
    }
}

/// Forwards every report into an [`std::sync::mpsc`] channel — the bridge
/// to a logger thread, a UI, or a remote exporter. A hung-up receiver never
/// fails the detection path (races are signalled, never fatal); dropped
/// sends are counted instead.
#[derive(Debug)]
pub struct ChannelSink {
    tx: Sender<RaceReport>,
    dropped: usize,
}

impl ChannelSink {
    /// Wrap the sending half of a channel.
    pub fn new(tx: Sender<RaceReport>) -> Self {
        ChannelSink { tx, dropped: 0 }
    }

    /// Reports lost to a disconnected receiver.
    pub fn dropped(&self) -> usize {
        self.dropped
    }
}

impl ReportSink for ChannelSink {
    fn on_report(&mut self, report: &RaceReport) {
        if self.tx.send(report.clone()).is_err() {
            self.dropped += 1;
        }
    }

    fn accept(&mut self, report: RaceReport) {
        if self.tx.send(report).is_err() {
            self.dropped += 1;
        }
    }
}

/// Deduplicates by unordered access pair before forwarding to an inner
/// sink — the streaming form of [`crate::report::dedup_reports`], so one
/// logical race crossing several granularity blocks reaches the inner sink
/// once.
///
/// Memory is **bounded**: the seen-key set holds at most
/// [`DedupSink::DEFAULT_CAPACITY`] distinct pairs (configurable via
/// [`DedupSink::with_capacity`]); beyond that the *oldest* key is evicted
/// first-in-first-out and counted in [`DedupSink::evictions`]. An evicted
/// pair that races again reaches the inner sink a second time — for a
/// week-long session, a rare duplicate beats an unbounded key set (the
/// same trade the paper makes for the bounded area histories).
pub struct DedupSink {
    inner: Box<dyn ReportSink>,
    seen: DedupKeys,
    /// Insertion order of `seen`, for FIFO eviction at the bound.
    order: std::collections::VecDeque<(u64, u64)>,
    capacity: usize,
    evictions: u64,
}

impl DedupSink {
    /// Default bound on distinct seen keys (~16 MiB of key memory at the
    /// worst case) — far above any single run in this workspace, small
    /// enough that an always-on service session cannot grow without limit.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Wrap `inner`, forwarding only first occurrences, with the default
    /// key-memory bound.
    pub fn new(inner: Box<dyn ReportSink>) -> Self {
        Self::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// Wrap `inner` with an explicit bound on distinct seen keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (a zero-key dedup would forward nothing
    /// deterministically useful).
    pub fn with_capacity(inner: Box<dyn ReportSink>, capacity: usize) -> Self {
        assert!(capacity > 0, "dedup capacity must be at least 1");
        DedupSink {
            inner,
            seen: dedup_keys(0),
            order: std::collections::VecDeque::new(),
            capacity,
            evictions: 0,
        }
    }

    /// Distinct keys currently held (never exceeds the capacity).
    pub fn seen_keys(&self) -> usize {
        self.seen.len()
    }

    /// Keys evicted to honour the bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Consume the wrapper, returning the inner sink.
    pub fn into_inner(self) -> Box<dyn ReportSink> {
        self.inner
    }

    /// Record `key` as seen; true when it is new. Evicts the oldest key
    /// first when the set is at capacity.
    fn remember(&mut self, key: (u64, u64)) -> bool {
        if self.seen.contains(&key) {
            return false;
        }
        if self.seen.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.seen.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.seen.insert(key);
        self.order.push_back(key);
        true
    }
}

impl ReportSink for DedupSink {
    fn on_report(&mut self, report: &RaceReport) {
        if self.remember(report.dedup_key()) {
            self.inner.on_report(report);
        }
    }

    fn accept(&mut self, report: RaceReport) {
        if self.remember(report.dedup_key()) {
            self.inner.accept(report);
        }
    }

    fn on_flush(&mut self, summary: &RaceSummary) {
        self.inner.on_flush(summary);
    }

    fn reports(&self) -> &[RaceReport] {
        self.inner.reports()
    }

    fn take_reports(&mut self) -> Vec<RaceReport> {
        self.inner.take_reports()
    }

    /// Persist the dedup window: eviction counter plus the seen keys in
    /// insertion order (the `seen` set is re-derived on restore).
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut buf = Vec::with_capacity(16 + self.order.len() * 16);
        buf.extend_from_slice(&self.evictions.to_le_bytes());
        buf.extend_from_slice(&(self.order.len() as u64).to_le_bytes());
        for (a, b) in &self.order {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
        }
        Some(buf)
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        let u64_at = |at: usize| -> Option<u64> {
            let bytes: [u8; 8] = state.get(at..at + 8)?.try_into().ok()?;
            Some(u64::from_le_bytes(bytes))
        };
        let Some(evictions) = u64_at(0) else {
            return false;
        };
        let Some(len) = u64_at(8) else { return false };
        if state.len() as u64 != len.saturating_mul(16).saturating_add(16) {
            return false;
        }
        self.seen.clear();
        self.order.clear();
        for i in 0..len as usize {
            let key = (
                #[expect(
                    clippy::expect_used,
                    reason = "the enclosing decoder verified `len` covers every 16-byte record before the loop; u64_at cannot fail inside it."
                )]
                u64_at(16 + i * 16).expect("length checked"),
                #[expect(
                    clippy::expect_used,
                    reason = "same bounds proof as the previous record field."
                )]
                u64_at(24 + i * 16).expect("length checked"),
            );
            // `remember` re-applies the FIFO bound, so a blob recorded
            // under a larger capacity cannot overfill this sink.
            self.remember(key);
        }
        self.evictions = evictions;
        true
    }
}

/// The session-internal tee: every report feeds the bounded summary *and*
/// the user sink, in one pass, with the ownership transfer preserved.
struct Tee<'a> {
    summary: &'a mut RaceSummary,
    sink: &'a mut dyn ReportSink,
}

impl ReportSink for Tee<'_> {
    fn on_report(&mut self, report: &RaceReport) {
        self.summary.add(report);
        self.sink.on_report(report);
    }

    fn accept(&mut self, report: RaceReport) {
        self.summary.add(&report);
        self.sink.accept(report);
    }

    fn accept_all(&mut self, reports: &mut Vec<RaceReport>) {
        self.summary.add_all(reports);
        self.sink.accept_all(reports);
    }
}

// ---------------------------------------------------------------------------
// DetectorConfig
// ---------------------------------------------------------------------------

/// Every construction knob of every detector in one declarative,
/// JSON-round-trippable value — the single thing a backend, bench row or
/// CI job needs to record to make a detection run reproducible.
///
/// Build a bare detector with [`DetectorConfig::build`], or (preferred) a
/// streaming [`Session`] with [`DetectorConfig::session`] /
/// [`DetectorConfig::session_with`].
///
/// ```
/// use race_core::api::DetectorConfig;
/// use race_core::{DetectorKind, Granularity};
///
/// let config = DetectorConfig::new(DetectorKind::Dual, 8)
///     .with_granularity(Granularity::CACHE_LINE);
/// let reparsed = DetectorConfig::from_json(&config.to_json()).unwrap();
/// assert_eq!(config, reparsed);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Which detector runs.
    pub kind: DetectorKind,
    /// Number of processes observed.
    pub n: usize,
    /// Clock granularity (one `(V, W)` pair per block).
    pub granularity: Granularity,
}

impl DetectorConfig {
    /// A configuration for `kind` over `n` processes with the defaults
    /// every scattered constructor used: WORD granularity.
    pub fn new(kind: DetectorKind, n: usize) -> Self {
        DetectorConfig {
            kind,
            n,
            granularity: Granularity::WORD,
        }
    }

    /// Set the process count (backends call this to keep the embedded
    /// config in sync with their own `n`).
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Set the clock granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Build the configured detector: an [`HbDetector`] in the kind's
    /// [`crate::hb::HbMode`] for the clock-based kinds, the lockset or
    /// vanilla baseline otherwise.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn build(&self) -> Box<dyn Detector> {
        assert!(self.n > 0, "at least one process");
        match self.kind.hb_mode() {
            Some(mode) => Box::new(HbDetector::new(self.n, self.granularity, mode)),
            None if self.kind == DetectorKind::Lockset => Box::new(
                crate::lockset::LocksetDetector::new(self.n, self.granularity),
            ),
            None => Box::new(crate::vanilla::VanillaDetector::new()),
        }
    }

    /// Build a [`Session`] with the default [`VecSink`] (today's
    /// keep-everything behaviour, available via [`Session::reports`]).
    pub fn session(&self) -> Session {
        self.session_with(Box::new(VecSink::new()))
    }

    /// Build a [`Session`] streaming into `sink`.
    pub fn session_with(&self, sink: Box<dyn ReportSink>) -> Session {
        Session {
            detector: self.build(),
            config: self.clone(),
            sink,
            summary: RaceSummary::default(),
            events: 0,
            journal: None,
        }
    }

    /// One-line JSON encoding of the exact configuration (the shape bench
    /// rows and `repro --config` consume). Hand-formatted, like every JSON
    /// producer in this workspace — no serialisation dependency.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"n\":{},\"granularity\":{}}}",
            self.kind.label(),
            self.n,
            self.granularity.block_bytes(),
        )
    }

    /// Largest process count [`DetectorConfig::from_json`] accepts. A
    /// clock-based detector allocates `n` matrix clocks of `n × n` words at
    /// construction, so this bound admits at most 128³ × 8 B = 16 MiB of
    /// matrix clocks per session — where an unbounded `n` (4096 ⇒ 512 GiB)
    /// aborts the whole process on allocation failure, past any
    /// `catch_unwind`. The paper evaluates at ten processes (§V-A).
    ///
    /// It bounds the clock slabs too. One access to block `b` below the
    /// store's fixed dense bound of 65536 blocks resizes its rank's dense
    /// array to `b + 1` slots ([`crate::ClockStore::history_mut`]), so a
    /// session holds at most `MAX_N × 65536 × size_of::<Option<AreaHistory>>()`
    /// = 128 × 65536 × 96 B = 768 MiB of slab, and only for a stream that
    /// touches the top dense block of every rank; blocks at or above the
    /// bound cost one map entry each.
    pub const MAX_N: usize = 128;

    /// Inverse of [`DetectorConfig::to_json`]. Accepts any JSON object
    /// carrying these three keys at its top level (whitespace-insensitive;
    /// other keys and their values, nested or not, are ignored, which is
    /// how configs written before the sharded pipeline and the dense-prefix
    /// setting were retired — `"shards"`, `"pipeline"`, `"batch"`,
    /// `"dense_blocks"` — still parse, whatever those values are). A key given
    /// twice at the top level is an error naming it. Unknown kinds, malformed numbers and out-of-range values are
    /// reported, not panicked: this is the entry point for bytes from a
    /// socket or a checkpoint, so the parsed config is guaranteed safe to
    /// [`DetectorConfig::build`] and to drive with arbitrary events.
    /// Callers that fill the struct directly are not restricted.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let fields = json::fields(json)?;
        let kind_label = json_value(&fields, "kind")?;
        let kind = DetectorKind::from_label(kind_label)
            .ok_or_else(|| format!("unknown detector kind {kind_label:?}"))?;
        let block_bytes = json_usize(&fields, "granularity")?;
        if !block_bytes.is_power_of_two() {
            return Err(format!("granularity {block_bytes} is not a power of two"));
        }
        let n = json_usize(&fields, "n")?;
        if n == 0 {
            return Err("n must be at least 1 (the process count)".into());
        }
        if n > Self::MAX_N {
            return Err(format!("n {n} out of range 1..={}", Self::MAX_N));
        }
        Ok(DetectorConfig {
            kind,
            n,
            granularity: Granularity::block(block_bytes),
        })
    }
}

/// The value of top-level field `key`; a string comes back without its
/// quotes (escapes as written).
fn json_value<'a>(fields: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    let raw = json::value(fields, key)?;
    Ok(raw
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(raw))
}

/// A usize-valued field.
fn json_usize(fields: &BTreeMap<&str, &str>, key: &str) -> Result<usize, String> {
    json_value(fields, key)?
        .parse()
        .map_err(|e| format!("field {key:?}: {e}"))
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A running detection session: the configured detector, the report sink it
/// streams into, and a bounded [`RaceSummary`] the session maintains
/// regardless of the sink (so even a [`CountingSink`] session can print the
/// §IV-D exit summary).
///
/// Built by [`DetectorConfig::session`] / [`DetectorConfig::session_with`];
/// driven by the backends ([`Session::observe`] per operation plus the sync
/// hooks); ended by [`Session::finish`], which fires
/// [`ReportSink::on_flush`] and hands back the aggregate and the sink.
///
/// Memory: the session itself retains O(distinct classes + areas + process
/// pairs) — what the detector stores is the clock state the paper accounts
/// for, and what the *reports* cost is entirely the sink's policy.
pub struct Session {
    config: DetectorConfig,
    detector: Box<dyn Detector>,
    sink: Box<dyn ReportSink>,
    summary: RaceSummary,
    /// Events applied over the session's whole lifetime (ops + sync
    /// events) — the resume watermark persisted by every checkpoint.
    events: u64,
    /// Replay journal of events since the last checkpoint, each with the
    /// program locks its actor held (empty for sync events). `None` until
    /// the first [`Session::checkpoint`] (or [`Session::enable_journal`]):
    /// sessions that never checkpoint pay nothing for durability.
    journal: Option<Vec<(Event, Vec<LockId>)>>,
}

impl Session {
    /// The configuration this session was built from.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Detector name (report attribution).
    pub fn name(&self) -> &'static str {
        self.detector.name()
    }

    /// Whether the backend must wrap operations in the Algorithm-1/2 area
    /// lock pairs (see [`Detector::requires_locking`]).
    pub fn requires_locking(&self) -> bool {
        self.detector.requires_locking()
    }

    /// Clock components a remote area access ships per direction (see
    /// [`Detector::clock_components_per_area`]).
    pub fn clock_components_per_area(&self) -> usize {
        self.detector.clock_components_per_area()
    }

    /// Bytes of detector clock metadata currently held (§IV-D accounting).
    pub fn clock_memory_bytes(&self) -> usize {
        self.detector.clock_memory_bytes()
    }

    /// Read access to the underlying detector (accounting experiments).
    pub fn detector(&self) -> &dyn Detector {
        &*self.detector
    }

    /// Observe one operation: reports stream into the sink (and the running
    /// summary); returns how many this op triggered. The no-race path costs
    /// exactly what the bare detector costs — the sink is only consulted
    /// when a report exists.
    pub fn observe(&mut self, op: &DsmOp, held_locks: &[LockId]) -> usize {
        // Journal-before-apply: if the detector dies mid-apply, the journal
        // still names the event, so `restore(checkpoint)` + `apply` over the
        // journal applies it exactly once.
        if let Some(journal) = &mut self.journal {
            journal.push((Event::Op(*op), held_locks.to_vec()));
        }
        self.events += 1;
        self.detector.observe_sink(
            op,
            held_locks,
            &mut Tee {
                summary: &mut self.summary,
                sink: &mut *self.sink,
            },
        )
    }

    /// Observe one op and *also* return copies of the new reports (the
    /// per-access API the shmem runtime exposes). Each report reaches the
    /// session sink exactly once — the copies come from a temporary
    /// [`VecSink`], not from re-observing.
    pub fn observe_collect(&mut self, op: &DsmOp, held_locks: &[LockId]) -> Vec<RaceReport> {
        if let Some(journal) = &mut self.journal {
            journal.push((Event::Op(*op), held_locks.to_vec()));
        }
        self.events += 1;
        let mut tmp = VecSink::new();
        self.detector.observe_sink(op, held_locks, &mut tmp);
        let collected = tmp.into_reports();
        self.summary.add_all(&collected);
        for report in &collected {
            self.sink.on_report(report);
        }
        collected
    }

    /// `rank` released program lock `lock` (the release carries its clock).
    pub fn on_release(&mut self, rank: usize, lock: LockId) {
        if let Some(journal) = &mut self.journal {
            journal.push((Event::Release { rank, lock }, Vec::new()));
        }
        self.events += 1;
        self.detector.on_release(rank, lock);
    }

    /// `rank` acquired program lock `lock` (the grant carries the clock).
    pub fn on_acquire(&mut self, rank: usize, lock: LockId) {
        if let Some(journal) = &mut self.journal {
            journal.push((Event::Acquire { rank, lock }, Vec::new()));
        }
        self.events += 1;
        self.detector.on_acquire(rank, lock);
    }

    /// A barrier completed among all ranks.
    pub fn on_barrier(&mut self) {
        if let Some(journal) = &mut self.journal {
            journal.push((Event::Barrier, Vec::new()));
        }
        self.events += 1;
        self.detector.on_barrier();
    }

    /// Drive the session with one event: the one place an [`Event`] maps
    /// onto [`Session::observe`] and the sync hooks, so journalling stays
    /// where those methods put it. `held` is the actor's program locks (see
    /// [`Detector::observe_sink`]); sync events ignore it. Returns the
    /// number of reports the event produced (always 0 for sync events).
    pub fn apply(&mut self, ev: &Event, held: &[LockId]) -> usize {
        match ev {
            Event::Op(op) => self.observe(op, held),
            Event::Barrier => {
                self.on_barrier();
                0
            }
            Event::Acquire { rank, lock } => {
                self.on_acquire(*rank, *lock);
                0
            }
            Event::Release { rank, lock } => {
                self.on_release(*rank, *lock);
                0
            }
        }
    }

    /// Total events (ops, lock transitions, barriers) this session has
    /// absorbed — the logical position in the event stream. Survives
    /// [`Session::checkpoint`] / [`Session::restore`] round trips.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the session is journalling events for crash replay.
    /// Journalling starts at the first [`Session::checkpoint`] or an
    /// explicit [`Session::enable_journal`]; before that the session pays
    /// nothing for durability.
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Events observed since the last checkpoint, each with its actor's held
    /// locks (empty when journalling is off). `restore(checkpoint)` +
    /// [`Session::apply`] over exactly these entries reproduces the
    /// uninterrupted session byte-for-byte. The journal lives in memory
    /// only; it has no byte encoding.
    pub fn journal(&self) -> &[(Event, Vec<LockId>)] {
        self.journal.as_deref().unwrap_or(&[])
    }

    /// Turn on event journalling without taking a checkpoint (used by
    /// harnesses that checkpoint lazily). Idempotent.
    pub fn enable_journal(&mut self) {
        self.journal.get_or_insert_with(Vec::new);
    }

    /// Serialize the session — detector clocks, running summary, sink dedup
    /// state and event count — into a versioned snapshot, and truncate the
    /// journal: replay cost from a snapshot is O(events since it was taken).
    ///
    /// Errors are typed ([`crate::snapshot::SnapshotError::Unsupported`]
    /// when the detector has no snapshot representation — never the case
    /// for a detector [`DetectorConfig::build`] made).
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, crate::snapshot::SnapshotError> {
        let bytes = crate::snapshot::encode_session(
            &self.config,
            self.events,
            &self.summary,
            &*self.sink,
            &*self.detector,
        )?;
        match &mut self.journal {
            Some(journal) => journal.clear(),
            None => self.journal = Some(Vec::new()),
        }
        Ok(bytes)
    }

    /// Rebuild a session from a [`Session::checkpoint`] snapshot. The
    /// restored session journals from the start (it exists to be durable).
    ///
    /// `sink` is the fresh downstream sink; if the snapshot carries sink
    /// dedup state it is restored into it, so replayed events never
    /// re-emit reports the original session already delivered.
    pub fn restore(
        bytes: &[u8],
        mut sink: Box<dyn ReportSink>,
    ) -> Result<Session, crate::snapshot::SnapshotError> {
        let parts = crate::snapshot::decode_session(bytes)?;
        let detector = crate::snapshot::restore_detector(&parts.config, &parts.detector_state)?;
        if let Some(state) = &parts.sink_state {
            if !sink.restore_state(state) {
                return Err(crate::snapshot::SnapshotError::Malformed { what: "sink state" });
            }
        }
        Ok(Session {
            config: parts.config,
            detector,
            sink,
            summary: parts.summary,
            events: parts.events,
            journal: Some(Vec::new()),
        })
    }

    /// The reports the sink retained — the `reports()` convenience of the
    /// façade: populated for [`VecSink`]-backed sessions (the default),
    /// empty for aggregating sinks.
    pub fn reports(&self) -> &[RaceReport] {
        self.sink.reports()
    }

    /// The bounded running aggregate.
    pub fn summary(&self) -> &RaceSummary {
        &self.summary
    }

    /// End the session: fire [`ReportSink::on_flush`] with the final
    /// aggregate, and return the aggregate plus the sink (for extracting
    /// retained reports or counters).
    pub fn finish(mut self) -> (RaceSummary, Box<dyn ReportSink>) {
        self.sink.on_flush(&self.summary);
        (self.summary, self.sink)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use crate::report::RaceClass;
    use dsm::addr::GlobalAddr;

    fn put(op_id: u64, actor: usize, dst_rank: usize, dst_off: usize) -> DsmOp {
        DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(8),
                dst: GlobalAddr::public(dst_rank, dst_off).range(8),
            },
        }
    }

    fn racy_session(config: &DetectorConfig) -> Session {
        let mut s = config.session();
        s.observe(&put(0, 0, 1, 0), &[]);
        s.observe(&put(1, 2, 1, 0), &[]);
        s
    }

    #[test]
    fn default_session_retains_reports_like_the_old_log() {
        let config = DetectorConfig::new(DetectorKind::Dual, 3);
        let s = racy_session(&config);
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.reports()[0].class, RaceClass::WriteWrite);
        assert_eq!(s.summary().total, 1);
    }

    #[test]
    fn counting_sink_retains_nothing() {
        let config = DetectorConfig::new(DetectorKind::Dual, 3);
        let mut s = config.session_with(Box::new(CountingSink::default()));
        s.observe(&put(0, 0, 1, 0), &[]);
        s.observe(&put(1, 2, 1, 0), &[]);
        assert!(s.reports().is_empty(), "counting sink keeps no reports");
        let (summary, _) = s.finish();
        assert_eq!(summary.total, 1);
    }

    #[test]
    fn take_reports_hands_over_what_reports_shows_and_leaves_none() {
        let wide = |op_id, actor: usize| DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(16),
                dst: GlobalAddr::public(1, 0).range(16),
            },
        };
        let config = DetectorConfig::new(DetectorKind::Dual, 3);
        let (tx, _rx) = std::sync::mpsc::channel();
        let sinks: [(Box<dyn ReportSink>, usize); 5] = [
            (Box::new(VecSink::new()), 2),
            (Box::new(DedupSink::new(Box::new(VecSink::new()))), 1),
            (Box::new(CountingSink::default()), 0),
            (Box::new(SummarySink::default()), 0),
            (Box::new(ChannelSink::new(tx)), 0),
        ];
        for (sink, retained) in sinks {
            let mut s = config.session_with(sink);
            s.observe(&wide(0, 0), &[]);
            s.observe(&wide(1, 2), &[]);
            let shown = s.reports().to_vec();
            assert_eq!(shown.len(), retained);
            let (summary, mut sink) = s.finish();
            assert_eq!(summary.total, 2, "two blocks raced, whatever the sink");
            assert_eq!(sink.take_reports(), shown);
            assert!(sink.reports().is_empty(), "taken means gone");
            assert!(sink.take_reports().is_empty());
        }
    }

    #[test]
    fn observe_collect_feeds_sink_exactly_once() {
        let config = DetectorConfig::new(DetectorKind::Dual, 3);
        let mut s = config.session();
        assert!(s.observe_collect(&put(0, 0, 1, 0), &[]).is_empty());
        let collected = s.observe_collect(&put(1, 2, 1, 0), &[]);
        assert_eq!(collected.len(), 1);
        assert_eq!(s.reports(), &collected[..], "no double-report in the sink");
        assert_eq!(s.summary().total, 1);
    }

    #[test]
    fn channel_sink_streams_and_survives_hangup() {
        let (tx, rx) = std::sync::mpsc::channel();
        let config = DetectorConfig::new(DetectorKind::Dual, 3);
        let mut s = config.session_with(Box::new(ChannelSink::new(tx)));
        s.observe(&put(0, 0, 1, 0), &[]);
        s.observe(&put(1, 2, 1, 0), &[]);
        assert_eq!(rx.try_iter().count(), 1);
        drop(rx);
        s.observe(&put(2, 0, 1, 0), &[]); // races again; receiver is gone
        assert_eq!(s.summary().total, 2, "detection is unaffected by hangup");
    }

    #[test]
    fn channel_sink_survives_hangup_between_reports_of_one_observe() {
        // Regression: the receiver hangs up *between* the two reports of a
        // single observe call (a 16-byte put crossing two WORD blocks).
        // The first send lands, the second hits the disconnected channel —
        // no panic, and the miss is accounted in `dropped`.
        struct HangupAfterFirst {
            chan: ChannelSink,
            rx: Option<std::sync::mpsc::Receiver<RaceReport>>,
            forwarded: usize,
        }
        impl ReportSink for HangupAfterFirst {
            fn on_report(&mut self, report: &RaceReport) {
                self.chan.on_report(report);
                self.forwarded += 1;
                if self.forwarded == 1 {
                    drop(self.rx.take());
                }
            }
        }
        let wide = |op_id, actor: usize| DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(16),
                dst: GlobalAddr::public(1, 0).range(16),
            },
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let mut sink = HangupAfterFirst {
            chan: ChannelSink::new(tx),
            rx: Some(rx),
            forwarded: 0,
        };
        let mut det = crate::HbDetector::new(3, crate::Granularity::WORD, crate::HbMode::Dual);
        assert_eq!(det.observe_sink(&wide(0, 0), &[], &mut sink), 0);
        let emitted = det.observe_sink(&wide(1, 2), &[], &mut sink);
        assert_eq!(emitted, 2, "two blocks race → two reports in one call");
        assert_eq!(sink.forwarded, 2, "both reports reached the sink");
        assert_eq!(
            sink.chan.dropped(),
            1,
            "exactly the post-hangup report is counted dropped"
        );
    }

    #[test]
    fn dedup_sink_collapses_block_crossing_races() {
        // A 16-byte put overlaps two WORD blocks → two raw reports for the
        // same access pair; the dedup sink forwards one.
        let wide = |op_id, actor: usize| DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(16),
                dst: GlobalAddr::public(1, 0).range(16),
            },
        };
        let config = DetectorConfig::new(DetectorKind::Dual, 3);
        let mut raw = config.session();
        raw.observe(&wide(0, 0), &[]);
        raw.observe(&wide(1, 2), &[]);
        assert_eq!(raw.reports().len(), 2, "two blocks, two raw reports");

        let mut deduped = config.session_with(Box::new(DedupSink::new(Box::new(VecSink::new()))));
        deduped.observe(&wide(0, 0), &[]);
        deduped.observe(&wide(1, 2), &[]);
        assert_eq!(deduped.reports().len(), 1, "one pair after dedup");
        assert_eq!(
            deduped.summary().total,
            2,
            "the session summary still counts raw reports"
        );
    }

    #[test]
    fn dedup_sink_seen_keys_stay_bounded_with_counted_evictions() {
        // Regression for the unbounded seen-key set: stream far more
        // distinct racing pairs than the capacity and pin the bound.
        const CAP: usize = 16;
        let mut sink = DedupSink::with_capacity(Box::new(CountingSink::default()), CAP);
        let mut det = crate::HbDetector::new(3, crate::Granularity::WORD, crate::HbMode::Dual);
        let mut emitted = 0;
        for i in 0..u64::try_from(6 * CAP).expect("fits") {
            // Alternating unsynchronised writers on a fresh word each round:
            // every report carries a brand-new access pair.
            emitted += det.observe_sink(
                &put(2 * i, 0, 1, 8 * usize::try_from(i).expect("fits")),
                &[],
                &mut sink,
            );
            emitted += det.observe_sink(
                &put(2 * i + 1, 2, 1, 8 * usize::try_from(i).expect("fits")),
                &[],
                &mut sink,
            );
        }
        assert!(emitted >= 6 * CAP, "every round must race");
        assert_eq!(sink.seen_keys(), CAP, "the key set is pinned at the bound");
        assert_eq!(
            sink.evictions(),
            emitted as u64 - CAP as u64,
            "every key beyond the bound was evicted, and counted"
        );
        // A key evicted long ago may legitimately be forwarded again; a key
        // still resident must not be.
        let before = sink.seen_keys();
        sink.on_report(&crate::RaceReport {
            detector: "t",
            class: RaceClass::WriteWrite,
            current: crate::AccessSummary {
                id: 1,
                process: 0,
                kind: crate::AccessKind::Write,
                range: GlobalAddr::public(1, 0).range(8),
                atomic: false,
                count: 0,
                row: std::sync::Arc::new(vclock::VectorClock::zero(3)),
            },
            previous: None,
            area: crate::AreaKey::new(1, 0),
        });
        assert_eq!(sink.seen_keys(), before, "bound holds under re-insertion");
    }

    #[test]
    #[should_panic(expected = "dedup capacity")]
    fn dedup_sink_rejects_zero_capacity() {
        let _ = DedupSink::with_capacity(Box::new(VecSink::new()), 0);
    }

    #[test]
    fn on_flush_delivers_the_final_summary() {
        struct FlushProbe {
            total_at_flush: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        }
        impl ReportSink for FlushProbe {
            fn on_report(&mut self, _report: &RaceReport) {}
            fn on_flush(&mut self, summary: &RaceSummary) {
                self.total_at_flush
                    .store(summary.total, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(usize::MAX));
        let config = DetectorConfig::new(DetectorKind::Dual, 3);
        let mut s = config.session_with(Box::new(FlushProbe {
            total_at_flush: std::sync::Arc::clone(&seen),
        }));
        s.observe(&put(0, 0, 1, 0), &[]);
        s.observe(&put(1, 2, 1, 0), &[]);
        s.finish();
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn every_kind_builds_and_sessions() {
        for kind in DetectorKind::ALL {
            let config = DetectorConfig::new(kind, 4);
            let mut s = config.session();
            s.observe(&put(0, 0, 1, 0), &[]);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn json_round_trips_every_kind() {
        for kind in DetectorKind::ALL {
            let config = DetectorConfig::new(kind, 6).with_granularity(Granularity::CACHE_LINE);
            let json = config.to_json();
            let back =
                DetectorConfig::from_json(&json).unwrap_or_else(|e| panic!("reparse {json}: {e}"));
            assert_eq!(config, back);
        }
    }

    #[test]
    fn json_accepts_whitespace_and_rejects_garbage() {
        let spaced = r#"{ "kind" : "dual-clock", "n" : 4,
                         "granularity" : 8 }"#;
        let c = DetectorConfig::from_json(spaced).expect("whitespace is fine");
        assert_eq!(c.kind, DetectorKind::Dual);
        assert_eq!(c.n, 4);
        assert!(DetectorConfig::from_json("{}").is_err());
        assert!(DetectorConfig::from_json(r#"{"kind":"quantum","n":4,"granularity":8}"#).is_err());
        assert!(
            DetectorConfig::from_json(r#"{"kind":"dual-clock","n":4,"granularity":7}"#).is_err()
        );
    }

    #[test]
    fn json_from_before_the_pipeline_was_retired_parses_to_the_same_value() {
        // The seven-key shape `to_json` wrote while `shards`, `pipeline`
        // and `batch` existed, and the four-key one of the `dense_blocks`
        // era: the extra keys are ignored, so old bench rows, CI literals
        // and checkpoint blobs keep parsing.
        let seven = r#"{"kind":"dual-clock","n":4,"granularity":8,"shards":4,"pipeline":"threaded","dense_blocks":16,"batch":64}"#;
        let four = r#"{"kind":"dual-clock","n":4,"granularity":8,"dense_blocks":16}"#;
        let new = r#"{"kind":"dual-clock","n":4,"granularity":8}"#;
        let parsed = DetectorConfig::from_json(seven).expect("old shape parses");
        assert_eq!(parsed, DetectorConfig::from_json(four).expect("four keys"));
        assert_eq!(parsed, DetectorConfig::from_json(new).expect("new shape"));
        assert_eq!(
            parsed.to_json(),
            new,
            "and re-encodes with exactly three keys"
        );
    }

    #[test]
    fn the_slot_size_in_the_max_dense_blocks_doc_is_current() {
        // `MAX_N` and `clockstore`'s dense bound document the dense slabs'
        // worst case in bytes per slot (the doc `MAX_DENSE_BLOCKS` carried
        // while the bound was a setting, hence the name).
        let slot = std::mem::size_of::<Option<crate::clockstore::AreaHistory>>();
        assert!(
            slot <= 96,
            "dense slab slot grew to {slot} B: update the doc"
        );
    }

    #[test]
    fn session_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }
}
