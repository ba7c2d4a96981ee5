//! Aggregate views over race reports — what a runtime would print at exit
//! (§IV-D: signalled on standard output, execution never aborted).

use std::collections::{BTreeMap, HashMap};

use crate::clockstore::AreaKey;
use crate::json;
use crate::report::{RaceClass, RaceReport, WordHashState};
use crate::Rank;

/// A count per key, hashed a word at a time. Area keys and ranks come from
/// client frames, so the hash keeps [`WordHashState`]'s per-map secret; no
/// output depends on the iteration order — everything printed is sorted
/// first.
pub type Counts<K> = HashMap<K, usize, WordHashState>;

/// Aggregated statistics over a set of reports.
///
/// Keys are the cheap value types ([`RaceClass`], [`AreaKey`], rank pairs),
/// so folding a report in ([`RaceSummary::add`]) is a hashed count and
/// allocates nothing once a key is known — this is on the session hot path
/// for every detected race. The maps are unordered; [`RaceSummary::to_json`]
/// and `Display` sort them, once, when the summary is printed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceSummary {
    /// Count per race class.
    pub by_class: Counts<RaceClass>,
    /// Count per memory area.
    pub by_area: Counts<AreaKey>,
    /// Count per unordered process pair.
    pub by_process_pair: Counts<(Rank, Rank)>,
    /// Total reports summarised.
    pub total: usize,
    /// True when the run that produced this summary degraded: the
    /// environment injected faults the run had to absorb (the engine's
    /// fault plans), events were shed or cut off by the transport, or a
    /// session was recovered after a panic (the detection service). Set by
    /// the backends, never by a detector.
    pub degraded: bool,
}

impl RaceSummary {
    /// Summarise `reports`.
    pub fn from_reports(reports: &[RaceReport]) -> Self {
        let mut s = RaceSummary::default();
        for r in reports {
            s.add(r);
        }
        s
    }

    /// Fold one report into the aggregate. This is the streaming entry
    /// point the [`crate::api`] layer uses: a summary grows with the number
    /// of distinct classes / areas / process pairs, never with the number
    /// of reports, so long-running sessions can aggregate forever in
    /// bounded memory (§IV-D: signalled, never stored fatal-or-forever).
    pub fn add(&mut self, r: &RaceReport) {
        self.add_all(std::slice::from_ref(r));
    }

    /// Fold a run of reports in — the same aggregate as [`RaceSummary::add`]
    /// on each. One operation reports an (area, class) against a whole
    /// antichain at a time, so consecutive reports mostly share both and
    /// each such run costs one `by_class` and one `by_area` update, however
    /// long it is.
    pub fn add_all(&mut self, reports: &[RaceReport]) {
        let mut rest = reports;
        while let Some(first) = rest.first() {
            let same = |r: &&RaceReport| r.class == first.class && r.area == first.area;
            let (run, tail) = rest.split_at(rest.iter().take_while(same).count());
            *self.by_class.entry(first.class).or_insert(0) += run.len();
            *self.by_area.entry(first.area).or_insert(0) += run.len();
            for r in run {
                if let Some(prev) = &r.previous {
                    let pair = (
                        r.current.process.min(prev.process),
                        r.current.process.max(prev.process),
                    );
                    *self.by_process_pair.entry(pair).or_insert(0) += 1;
                }
            }
            rest = tail;
        }
        self.total += reports.len();
    }

    /// Reports in the class.
    pub fn count(&self, class: RaceClass) -> usize {
        self.by_class.get(&class).copied().unwrap_or(0)
    }

    /// Number of true races (excludes read-read).
    pub fn true_races(&self) -> usize {
        self.count(RaceClass::WriteWrite) + self.count(RaceClass::ReadWrite)
    }

    /// The most-reported area, if any; of areas reported equally often,
    /// the largest key.
    pub fn hottest_area(&self) -> Option<(AreaKey, usize)> {
        self.by_area
            .iter()
            .max_by_key(|&(&k, &c)| (c, k))
            .map(|(&k, &c)| (k, c))
    }

    /// One-line canonical JSON encoding — the detection service's wire
    /// currency. Every object is written in key order, so two structurally
    /// equal summaries always serialise to **byte-identical** strings,
    /// whatever order their reports were folded in; the server parity
    /// checks (remote session vs in-process run) compare exactly this.
    /// Hand-formatted like every JSON producer in the workspace.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"total\":{},\"degraded\":{},\"by_class\":{{",
            self.total, self.degraded
        );
        for (i, (class, count)) in sorted(&self.by_class).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{}\":{count}", class.label());
        }
        s.push_str("},\"by_area\":{");
        for (i, (area, count)) in sorted(&self.by_area).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{}:{}\":{count}", area.rank, area.block);
        }
        s.push_str("},\"by_pair\":{");
        for (i, ((a, b), count)) in sorted(&self.by_process_pair).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{a}-{b}\":{count}");
        }
        s.push_str("}}");
        s
    }

    /// Inverse of [`RaceSummary::to_json`]. Malformed input is reported,
    /// never panicked — this sits on the service's untrusted wire path. So
    /// is a summary that contradicts itself: [`RaceSummary::add`] keeps
    /// `total` = Σ `by_class` = Σ `by_area` ≥ Σ `by_pair` (a report has one
    /// class, one area and at most one attributed pair), and a key appears
    /// once per object, the top-level one included.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let fields = json::fields(json)?;
        let mut out = RaceSummary {
            total: json::value(&fields, "total")?
                .parse()
                .map_err(|e| format!("total: {e}"))?,
            degraded: match json::value(&fields, "degraded")? {
                "true" => true,
                "false" => false,
                other => return Err(format!("degraded: expected bool, got {other:?}")),
            },
            ..RaceSummary::default()
        };
        for (key, count) in counts(&fields, "by_class")? {
            let class =
                RaceClass::from_label(key).ok_or_else(|| format!("unknown race class {key:?}"))?;
            insert_once(&mut out.by_class, class, count, "by_class", key)?;
        }
        for (key, count) in counts(&fields, "by_area")? {
            let (rank, block) = key
                .split_once(':')
                .ok_or_else(|| format!("area key {key:?} is not rank:block"))?;
            let rank = rank.parse().map_err(|e| format!("area rank: {e}"))?;
            let block = block.parse().map_err(|e| format!("area block: {e}"))?;
            insert_once(
                &mut out.by_area,
                AreaKey::new(rank, block),
                count,
                "by_area",
                key,
            )?;
        }
        for (key, count) in counts(&fields, "by_pair")? {
            let (a, b) = key
                .split_once('-')
                .ok_or_else(|| format!("pair key {key:?} is not a-b"))?;
            let a: Rank = a.parse().map_err(|e| format!("pair rank: {e}"))?;
            let b: Rank = b.parse().map_err(|e| format!("pair rank: {e}"))?;
            insert_once(&mut out.by_process_pair, (a, b), count, "by_pair", key)?;
        }
        let by_class = sum(&out.by_class, "by_class")?;
        let by_area = sum(&out.by_area, "by_area")?;
        let by_pair = sum(&out.by_process_pair, "by_pair")?;
        if by_class != out.total || by_area != out.total || by_pair > out.total {
            return Err(format!(
                "total {} contradicts the counts: by_class {by_class}, by_area {by_area}, \
                 by_pair {by_pair}",
                out.total
            ));
        }
        Ok(out)
    }
}

/// The entries of `map` in key order.
fn sorted<K: Ord + Copy>(map: &Counts<K>) -> Vec<(K, usize)> {
    let mut entries: Vec<(K, usize)> = map.iter().map(|(&k, &c)| (k, c)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

/// `map[key] = count`, unless the object named `key` before.
fn insert_once<K: Eq + std::hash::Hash>(
    map: &mut Counts<K>,
    key: K,
    count: usize,
    object: &str,
    label: &str,
) -> Result<(), String> {
    match map.insert(key, count) {
        None => Ok(()),
        Some(_) => Err(format!("object {object:?}: duplicate key {label:?}")),
    }
}

/// The sum of an object's counts.
fn sum<K>(map: &Counts<K>, object: &str) -> Result<usize, String> {
    map.values()
        .try_fold(0usize, |acc, &count| acc.checked_add(count))
        .ok_or_else(|| format!("object {object:?}: counts overflow"))
}

/// The `"key":count` entries of the count object `object` among the
/// top-level `fields`.
fn counts<'a>(
    fields: &BTreeMap<&str, &'a str>,
    object: &str,
) -> Result<Vec<(&'a str, usize)>, String> {
    json::fields(json::value(fields, object)?)
        .map_err(|e| format!("object {object:?}: {e}"))?
        .into_iter()
        .map(|(key, count)| {
            count
                .parse()
                .map(|count| (key, count))
                .map_err(|e| format!("object {object:?}: count for {key:?}: {e}"))
        })
        .collect()
}

impl std::fmt::Display for RaceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} race report(s):", self.total)?;
        for (class, count) in sorted(&self.by_class) {
            writeln!(f, "  {:<12} {count}", class.label())?;
        }
        if let Some((area, count)) = self.hottest_area() {
            writeln!(f, "  hottest area: {area} ({count} report(s))")?;
        }
        for ((a, b), count) in sorted(&self.by_process_pair) {
            writeln!(f, "  P{a} × P{b}: {count}")?;
        }
        if self.degraded {
            writeln!(f, "  (degraded run: detection fell back after a fault)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, AccessSummary};
    use dsm::addr::GlobalAddr;
    use vclock::VectorClock;

    fn report(class: RaceClass, area_block: usize, p_cur: Rank, p_prev: Rank) -> RaceReport {
        let acc = |id, process| AccessSummary {
            id,
            process,
            kind: AccessKind::Write,
            range: GlobalAddr::public(0, area_block * 8).range(8),
            atomic: false,
            count: 0,
            row: std::sync::Arc::new(VectorClock::zero(2)),
        };
        RaceReport {
            detector: "t",
            class,
            current: acc(1, p_cur),
            previous: Some(acc(0, p_prev)),
            area: AreaKey::new(0, area_block),
        }
    }

    #[test]
    fn summarises_classes_and_pairs() {
        let reports = vec![
            report(RaceClass::WriteWrite, 0, 0, 1),
            report(RaceClass::ReadWrite, 0, 1, 0),
            report(RaceClass::ReadRead, 1, 0, 2),
        ];
        let s = RaceSummary::from_reports(&reports);
        assert_eq!(s.total, 3);
        assert_eq!(s.count(RaceClass::WriteWrite), 1);
        assert_eq!(s.true_races(), 2);
        assert_eq!(s.by_process_pair[&(0, 1)], 2);
        assert_eq!(s.hottest_area().unwrap().1, 2);
        let text = s.to_string();
        assert!(text.contains("write-write"));
        assert!(text.contains("P0 × P1"));
    }

    #[test]
    fn empty_summary() {
        let s = RaceSummary::from_reports(&[]);
        assert_eq!(s.total, 0);
        assert!(s.hottest_area().is_none());
        assert_eq!(s.true_races(), 0);
    }

    #[test]
    fn json_round_trips_and_is_canonical() {
        let mut s = RaceSummary::from_reports(&[
            report(RaceClass::WriteWrite, 0, 0, 1),
            report(RaceClass::ReadWrite, 3, 2, 1),
            report(RaceClass::ReadRead, 1, 0, 2),
        ]);
        s.degraded = true;
        let json = s.to_json();
        let back = RaceSummary::from_json(&json).expect("round trip");
        assert_eq!(s, back);
        assert_eq!(
            json,
            back.to_json(),
            "canonical: equal summaries serialise byte-identically"
        );

        let empty = RaceSummary::default();
        assert_eq!(
            RaceSummary::from_json(&empty.to_json()).expect("empty round trip"),
            empty
        );
    }

    /// A summary JSON with the given total and object bodies.
    fn json_of(total: &str, by_class: &str, by_area: &str, by_pair: &str) -> String {
        format!(
            "{{\"total\":{total},\"degraded\":false,\"by_class\":{{{by_class}}},\
             \"by_area\":{{{by_area}}},\"by_pair\":{{{by_pair}}}}}"
        )
    }

    #[test]
    fn json_rejects_a_total_that_contradicts_the_counts() {
        let ww = "\"write-write\":2";
        let area = "\"0:3\":2";
        let pair = "\"0-1\":2";
        assert!(RaceSummary::from_json(&json_of("2", ww, area, pair)).is_ok());
        for (what, json) in [
            ("total above by_class", json_of("3", ww, "\"0:3\":3", pair)),
            ("total below by_class", json_of("1", ww, "\"0:3\":1", "")),
            ("total above by_area", json_of("2", ww, "\"0:3\":1", pair)),
            (
                "total below by_area",
                json_of("2", ww, "\"0:3\":2,\"0:4\":1", pair),
            ),
            (
                "by_pair above total",
                json_of("2", ww, area, "\"0-1\":2,\"1-2\":1"),
            ),
            ("counts without a total", json_of("0", ww, area, pair)),
        ] {
            let err = RaceSummary::from_json(&json).expect_err(what);
            assert!(err.contains("contradicts"), "{what}: {err}");
        }
    }

    #[test]
    fn json_rejects_a_key_named_twice() {
        let dup = |err: Result<RaceSummary, String>, what: &str| {
            let err = err.expect_err(what);
            assert!(err.contains("duplicate key"), "{what}: {err}");
        };
        // Each pair of duplicates adds up to a consistent total, so only
        // the duplicate check can reject them.
        dup(
            RaceSummary::from_json(&json_of(
                "2",
                "\"write-write\":1,\"write-write\":1",
                "\"0:3\":2",
                "",
            )),
            "by_class",
        );
        dup(
            RaceSummary::from_json(&json_of(
                "2",
                "\"write-write\":2",
                "\"0:3\":1,\"0:3\":1",
                "",
            )),
            "by_area",
        );
        dup(
            RaceSummary::from_json(&json_of(
                "2",
                "\"write-write\":2",
                "\"0:3\":2",
                "\"0-1\":1,\"0-1\":1",
            )),
            "by_pair",
        );
        // A top-level key named twice: the first occurrence must not win.
        let valid = json_of("2", "\"write-write\":2", "\"0:3\":2", "");
        let open = valid.strip_suffix('}').expect("an object");
        for (what, tail) in [
            ("total", ",\"total\":5}"),
            ("degraded", ",\"degraded\":true}"),
            ("by_class object", ",\"by_class\":{\"write-write\":9}}"),
        ] {
            dup(RaceSummary::from_json(&format!("{open}{tail}")), what);
        }
    }

    #[test]
    fn json_rejects_counts_that_overflow() {
        let max = usize::MAX;
        let err = RaceSummary::from_json(&json_of(
            "2",
            &format!("\"write-write\":{max},\"read-write\":3"),
            "\"0:3\":2",
            "",
        ))
        .expect_err("overflow");
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn json_inputs_that_never_contradicted_themselves_behave_as_before() {
        // The empty summary, and a lockset-style one (unattributed reports:
        // by_pair below total), still parse…
        let empty = RaceSummary::from_json(&json_of("0", "", "", "")).expect("empty");
        assert_eq!(empty, RaceSummary::default());
        let unattributed =
            RaceSummary::from_json(&json_of("2", "\"read-write\":2", "\"1:0\":2", ""))
                .expect("by_pair may stay below total");
        assert_eq!(unattributed.total, 2);
        assert!(unattributed.by_process_pair.is_empty());
        // …and a truncated object still fails on its first missing field.
        assert_eq!(
            RaceSummary::from_json("{\"total\":0}").unwrap_err(),
            "missing field \"degraded\""
        );
    }

    #[test]
    fn json_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{}",
            "{\"total\":x}",
            "{\"total\":1,\"degraded\":maybe,\"by_class\":{},\"by_area\":{},\"by_pair\":{}}",
            "{\"total\":1,\"degraded\":true,\"by_class\":{\"quantum\":1},\"by_area\":{},\"by_pair\":{}}",
            "{\"total\":1,\"degraded\":true,\"by_class\":{},\"by_area\":{\"07\":1},\"by_pair\":{}}",
            "{\"total\":1,\"degraded\":true,\"by_class\":{},\"by_area\":{},\"by_pair\":{\"0:1\":1}}",
            // Not an object, or the fields only inside a nested one.
            "\"total\":0,\"degraded\":false,\"by_class\":{},\"by_area\":{},\"by_pair\":{}",
            "[{\"total\":0,\"degraded\":false,\"by_class\":{},\"by_area\":{},\"by_pair\":{}}",
            "{\"x\":{\"total\":0,\"degraded\":false,\"by_class\":{},\"by_area\":{},\"by_pair\":{}}}",
            // A count object given as a string, a count as a string.
            "{\"total\":0,\"degraded\":false,\"by_class\":\"{}\",\"by_area\":{},\"by_pair\":{}}",
            "{\"total\":1,\"degraded\":false,\"by_class\":{\"write-write\":\"1\"},\"by_area\":{\"0:3\":1},\"by_pair\":{}}",
        ] {
            assert!(RaceSummary::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
