//! Shared scrape parsing: flat-JSON key scans and Prometheus text parsing.
//!
//! The load harness, the access logger, and loopback tests all read values
//! back out of server responses. Before this module each call site carried
//! its own ad-hoc string scan; they now share these tested parsers so a new
//! metric family cannot silently break a `--check` run.
//!
//! Two families of helpers:
//!
//! * [`json_uint`] / [`json_str`] — scans over the workspace's
//!   deterministic flat JSON (unique keys, no escapes in the scanned
//!   values), as emitted by `JsonWriter`. These are *scans*, not a JSON
//!   parser: the first occurrence of `"key":` wins.
//! * [`prom_value`] / [`prom_sum`] / [`prom_histogram`] — line-oriented
//!   parsing of the Prometheus text format rendered by [`crate::prom`],
//!   with label-subset matching so callers can aggregate across label
//!   dimensions they don't care about.

use crate::hist::{HistogramSnapshot, BUCKETS};

/// Scans a flat JSON body for `"key": <unsigned integer>` and returns the
/// integer. Returns `None` when the key is absent or not followed by
/// digits.
///
/// ```
/// use mpds_obs::scrape::json_uint;
/// let body = r#"{"hits":3,"misses":10}"#;
/// assert_eq!(json_uint(body, "misses"), Some(10));
/// assert_eq!(json_uint(body, "entries"), None);
/// ```
pub fn json_uint(body: &str, key: &str) -> Option<u64> {
    let rest = after_key(body, key)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Scans a flat JSON body for `"key": "<string>"` and returns the string
/// slice up to the closing quote. The scanned value must not contain
/// escaped quotes (true for every identifier-like field the workspace
/// emits: stop reasons, dataset names, algorithm labels).
///
/// ```
/// use mpds_obs::scrape::json_str;
/// let body = r#"{"stats":{"stop_reason":"stable","worlds_sampled":64}}"#;
/// assert_eq!(json_str(body, "stop_reason"), Some("stable"));
/// assert_eq!(json_str(body, "worlds_sampled"), None);
/// ```
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(body, key)?;
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Returns the slice immediately after `"key":` (whitespace-tolerant).
fn after_key<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)?;
    Some(body[at + needle.len()..].trim_start())
}

/// One parsed Prometheus sample line: metric name, label pairs, value, and
/// (for histogram buckets rendered with
/// [`crate::prom::PromText::histogram_with_exemplars`]) the attached
/// exemplar.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label key/value pairs in order of appearance.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// The OpenMetrics exemplar attached to this sample, if any.
    pub exemplar: Option<PromExemplar>,
}

/// An OpenMetrics exemplar parsed from a `… # {labels} value` suffix.
#[derive(Clone, Debug, PartialEq)]
pub struct PromExemplar {
    /// Exemplar label pairs in order of appearance (e.g. `trace_id`).
    pub labels: Vec<(String, String)>,
    /// The exemplar's observed value.
    pub value: f64,
}

impl PromExemplar {
    /// Returns the value of exemplar label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The `trace_id` exemplar label parsed back to its integer form, if
    /// present and well-formed (16 lowercase hex digits).
    pub fn trace_id(&self) -> Option<u64> {
        crate::flight::parse_trace_id(self.label("trace_id")?)
    }
}

impl PromSample {
    /// Returns the value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether every `(key, value)` pair in `want` appears in this sample's
    /// labels (subset match).
    pub fn matches(&self, want: &[(&str, &str)]) -> bool {
        want.iter()
            .all(|(k, v)| self.label(k).is_some_and(|have| have == *v))
    }
}

/// Parses every sample line of a Prometheus text body (comments and blank
/// lines are skipped; malformed lines are ignored).
pub fn prom_parse(text: &str) -> Vec<PromSample> {
    text.lines().filter_map(parse_line).collect()
}

fn parse_line(line: &str) -> Option<PromSample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    // Split off an OpenMetrics exemplar suffix (` # {labels} value`) before
    // locating the sample value: the suffix's own value would otherwise win
    // the rsplit. Label *values* could contain " # {" only via escapes,
    // which the renderer never emits for the metric name/label section.
    let (line, exemplar) = match line.split_once(" # {") {
        None => (line, None),
        Some((main, ex)) => (main, parse_exemplar(ex)),
    };
    let (name_labels, value) = line.rsplit_once(' ')?;
    let value = parse_value(value)?;
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels.trim().to_string(), Vec::new()),
        Some((name, rest)) => {
            let rest = rest.strip_suffix('}')?;
            (name.to_string(), parse_labels(rest)?)
        }
    };
    Some(PromSample {
        name,
        labels,
        value,
        exemplar,
    })
}

fn parse_value(value: &str) -> Option<f64> {
    match value {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        v => v.parse().ok(),
    }
}

/// Parses the tail of an exemplar suffix, after the opening `{`:
/// `trace_id="…"} 813`.
fn parse_exemplar(rest: &str) -> Option<PromExemplar> {
    let (labels, value) = rest.split_once("} ")?;
    Some(PromExemplar {
        labels: parse_labels(labels)?,
        value: parse_value(value.trim())?,
    })
}

/// Parses `k1="v1",k2="v2"` respecting backslash escapes inside values.
fn parse_labels(mut rest: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].trim().to_string();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut consumed = None;
        while let Some((i, ch)) = chars.next() {
            match ch {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return None,
                },
                '"' => {
                    consumed = Some(eq + 2 + i + 1);
                    break;
                }
                _ => value.push(ch),
            }
        }
        let end = consumed?;
        labels.push((key, value));
        rest = rest[end..].strip_prefix(',').unwrap_or(&rest[end..]);
    }
    Some(labels)
}

/// Returns the value of the first sample named `name` whose labels contain
/// every pair in `labels`.
///
/// ```
/// use mpds_obs::scrape::prom_value;
/// let text = "m{a=\"x\"} 3\nm{a=\"y\"} 5\n";
/// assert_eq!(prom_value(text, "m", &[("a", "y")]), Some(5.0));
/// ```
pub fn prom_value(text: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    prom_parse(text)
        .into_iter()
        .find(|s| s.name == name && s.matches(labels))
        .map(|s| s.value)
}

/// Sums every sample named `name` whose labels contain every pair in
/// `labels`; `None` when nothing matches. Useful for collapsing a label
/// dimension (e.g. summing a counter across cache sources).
pub fn prom_sum(text: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let mut total = 0.0;
    let mut any = false;
    for s in prom_parse(text) {
        if s.name == name && s.matches(labels) {
            total += s.value;
            any = true;
        }
    }
    any.then_some(total)
}

/// Reconstructs a [`HistogramSnapshot`] from the `_bucket`/`_sum` series of
/// histogram `name`, summing every series whose labels contain `labels`.
///
/// Requires the fixed 64-bucket layout rendered by
/// [`crate::prom::PromText::histogram`] (finite `le` bounds of the form
/// `2^i - 1`); returns `None` if no matching buckets exist or a bound does
/// not fit the layout.
///
/// ```
/// use mpds_obs::{Histogram, PromText};
/// use mpds_obs::scrape::prom_histogram;
/// let h = Histogram::new();
/// for v in [10u64, 20, 4000] {
///     h.record(v);
/// }
/// let mut w = PromText::new();
/// w.histogram("lat_us", &[("src", "MISS")], &h.snapshot());
/// let text = w.finish();
/// let back = prom_histogram(&text, "lat_us", &[]).unwrap();
/// assert_eq!(back, h.snapshot());
/// ```
pub fn prom_histogram(
    text: &str,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSnapshot> {
    let bucket_name = format!("{name}_bucket");
    let sum_name = format!("{name}_sum");
    // Cumulative count per bucket index, summed across matching series.
    let mut cumulative = [0u64; BUCKETS];
    let mut seen = [false; BUCKETS];
    let mut sum = 0u64;
    let mut any = false;
    for s in prom_parse(text) {
        if s.name == sum_name && s.matches(labels) {
            sum += s.value as u64;
        }
        if s.name != bucket_name || !s.matches(labels) {
            continue;
        }
        let le = s.label("le")?;
        let idx = if le == "+Inf" {
            BUCKETS - 1
        } else {
            let bound: u64 = le.parse().ok()?;
            let next = bound.checked_add(1)?;
            if !next.is_power_of_two() {
                return None;
            }
            next.trailing_zeros() as usize
        };
        if idx >= BUCKETS {
            return None;
        }
        cumulative[idx] += s.value as u64;
        seen[idx] = true;
        any = true;
    }
    if !any {
        return None;
    }
    // De-cumulate: bucket i count = cum[i] - cum[i-1]. Every bucket of the
    // fixed layout is rendered, so missing indices mean a foreign layout.
    if seen.iter().any(|&s| !s) {
        return None;
    }
    let mut counts = [0u64; BUCKETS];
    let mut prev = 0u64;
    for i in 0..BUCKETS {
        counts[i] = cumulative[i].checked_sub(prev)?;
        prev = cumulative[i];
    }
    Some(HistogramSnapshot::from_parts(counts, sum))
}

/// Collects the exemplars attached to histogram `name`'s `_bucket` series
/// (label-subset matched), as `(bucket index, exemplar)` pairs in bucket
/// order. Buckets without exemplars are absent.
///
/// ```
/// use mpds_obs::{bucket_index, BucketExemplars, Histogram, PromText};
/// use mpds_obs::scrape::prom_exemplars;
/// let h = Histogram::new();
/// h.record(900);
/// let e = BucketExemplars::new();
/// e.observe(900, 0x2a);
/// let mut w = PromText::new();
/// w.histogram_with_exemplars("lat_us", &[], &h.snapshot(), &e.snapshot());
/// let found = prom_exemplars(&w.finish(), "lat_us", &[]);
/// assert_eq!(found.len(), 1);
/// assert_eq!(found[0].0, bucket_index(900));
/// assert_eq!(found[0].1.trace_id(), Some(0x2a));
/// ```
pub fn prom_exemplars(
    text: &str,
    name: &str,
    labels: &[(&str, &str)],
) -> Vec<(usize, PromExemplar)> {
    let bucket_name = format!("{name}_bucket");
    let mut out = Vec::new();
    for s in prom_parse(text) {
        if s.name != bucket_name || !s.matches(labels) {
            continue;
        }
        let Some(le) = s.label("le").map(str::to_string) else {
            continue;
        };
        let Some(ex) = s.exemplar else {
            continue;
        };
        let idx = if le == "+Inf" {
            BUCKETS - 1
        } else {
            let Some(next) = le.parse::<u64>().ok().and_then(|b| b.checked_add(1)) else {
                continue;
            };
            if !next.is_power_of_two() {
                continue;
            }
            next.trailing_zeros() as usize
        };
        if idx < BUCKETS {
            out.push((idx, ex));
        }
    }
    out.sort_by_key(|(i, _)| *i);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::prom::PromText;

    #[test]
    fn json_uint_scans_first_occurrence() {
        let body = r#"{"cache":{"hits":12,"misses":4},"served":100}"#;
        assert_eq!(json_uint(body, "hits"), Some(12));
        assert_eq!(json_uint(body, "served"), Some(100));
        assert_eq!(json_uint(body, "absent"), None);
        // Key present but value is a string, not digits.
        assert_eq!(json_uint(r#"{"k":"v"}"#, "k"), None);
    }

    #[test]
    fn json_uint_tolerates_space_after_colon() {
        assert_eq!(json_uint(r#"{"k": 7}"#, "k"), Some(7));
    }

    #[test]
    fn json_str_extracts_identifiers() {
        let body = r#"{"stop_reason":"theta_reached","dataset":"karate"}"#;
        assert_eq!(json_str(body, "stop_reason"), Some("theta_reached"));
        assert_eq!(json_str(body, "dataset"), Some("karate"));
        assert_eq!(json_str(body, "missing"), None);
        // Numeric value is not a string.
        assert_eq!(json_str(r#"{"k":5}"#, "k"), None);
    }

    #[test]
    fn prom_lines_parse_names_labels_values() {
        let text = "# HELP m help\n# TYPE m counter\nm 3\nm{a=\"x\",b=\"y\"} 4.5\n";
        let samples = prom_parse(text);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "m");
        assert!(samples[0].labels.is_empty());
        assert_eq!(samples[0].value, 3.0);
        assert_eq!(samples[1].label("b"), Some("y"));
        assert_eq!(samples[1].value, 4.5);
    }

    #[test]
    fn label_escapes_round_trip() {
        let mut w = PromText::new();
        w.sample_u64("m", &[("d", "a\"b\\c\nd")], 1);
        let samples = prom_parse(&w.finish());
        assert_eq!(samples[0].label("d"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn subset_matching_sums_across_series() {
        let text = "m{src=\"HIT\",code=\"200\"} 3\nm{src=\"MISS\",code=\"200\"} 4\n";
        assert_eq!(prom_sum(text, "m", &[("code", "200")]), Some(7.0));
        assert_eq!(prom_sum(text, "m", &[("src", "MISS")]), Some(4.0));
        assert_eq!(prom_sum(text, "m", &[("src", "NONE")]), None);
        assert_eq!(prom_value(text, "m", &[("src", "HIT")]), Some(3.0));
    }

    // Exemplar suffixes round-trip: the bucket value/cumulative counts are
    // untouched (prom_histogram still reconstructs the exact snapshot) and
    // the trace id + observed value come back out bucket-aligned.
    #[test]
    fn exemplar_suffixes_round_trip() {
        use crate::hist::{bucket_index, BucketExemplars};
        let h = Histogram::new();
        for v in [3u64, 900, 900, 70_000] {
            h.record(v);
        }
        let e = BucketExemplars::new();
        e.observe(900, 0x00ab_cdef_0123_4567);
        e.observe(70_000, 0x1);
        let mut w = PromText::new();
        w.histogram_with_exemplars(
            "lat",
            &[("endpoint", "query")],
            &h.snapshot(),
            &e.snapshot(),
        );
        let text = w.finish();

        // The exemplar suffix must not perturb value parsing.
        assert_eq!(
            prom_histogram(&text, "lat", &[("endpoint", "query")]).unwrap(),
            h.snapshot()
        );
        let found = prom_exemplars(&text, "lat", &[("endpoint", "query")]);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, bucket_index(900));
        assert_eq!(found[0].1.trace_id(), Some(0x00ab_cdef_0123_4567));
        assert_eq!(found[0].1.value, 900.0);
        assert_eq!(found[1].0, bucket_index(70_000));
        assert_eq!(found[1].1.trace_id(), Some(0x1));
        // Label-subset mismatch finds nothing.
        assert!(prom_exemplars(&text, "lat", &[("endpoint", "batch")]).is_empty());
    }

    #[test]
    fn histogram_round_trips_and_merges_series() {
        let (hit, miss, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 9, 81, 6000] {
            hit.record(v);
            both.record(v);
        }
        for v in [100u64, 100, 70000] {
            miss.record(v);
            both.record(v);
        }
        let mut w = PromText::new();
        w.histogram("lat", &[("src", "HIT")], &hit.snapshot());
        w.histogram("lat", &[("src", "MISS")], &miss.snapshot());
        let text = w.finish();

        // Single-series extraction.
        assert_eq!(
            prom_histogram(&text, "lat", &[("src", "MISS")]).unwrap(),
            miss.snapshot()
        );
        // Subset match merges both series.
        assert_eq!(prom_histogram(&text, "lat", &[]).unwrap(), both.snapshot());
        // No match.
        assert!(prom_histogram(&text, "lat", &[("src", "COALESCED")]).is_none());
        assert!(prom_histogram(&text, "other", &[]).is_none());
    }
}
