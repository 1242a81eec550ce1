//! Prometheus text exposition (format 0.0.4): a renderer over the live
//! telemetry state and a structural validator for the grammar, used by CI
//! to check `/metrics` output without a real Prometheus binary.
//!
//! Counters and gauges render as their own families; histograms render as
//! Prometheus *summaries* (pre-computed `quantile` series plus `_sum` /
//! `_count`) rather than `_bucket` series — the log-linear grid has ~1k
//! buckets per histogram, and the quantile set (p50/p90/p95/p99) is what
//! the regression tracker and `greuse monitor` consume anyway. Durations
//! are converted from the internal nanoseconds to seconds per Prometheus
//! convention, and dotted metric names to underscores.

use crate::metrics;

/// Quantiles rendered for every histogram family.
pub const QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

/// Rewrites a dotted metric name into a legal Prometheus metric name:
/// `exec.layer_latency` → `exec_layer_latency`. Any character outside
/// `[a-zA-Z0-9_:]` becomes `_`; a leading digit gains a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Renders the full telemetry state — every registered counter, gauge, and
/// histogram plus the collector's own drop counter — as Prometheus text.
pub fn render() -> String {
    let mut out = String::with_capacity(4096);

    out.push_str("# HELP greuse_telemetry_dropped_events Spans dropped on ring overflow.\n");
    out.push_str("# TYPE greuse_telemetry_dropped_events counter\n");
    out.push_str(&format!(
        "greuse_telemetry_dropped_events {}\n",
        crate::dropped_events()
    ));

    // Series of one family (e.g. `guard.fallback{reason=...}`) share one
    // TYPE line and are written together, which the format requires.
    let snap = metrics::snapshot();
    for (fam, series) in families(&snap.counters, |(key, _)| key, "") {
        out.push_str(&format!("# TYPE {fam} counter\n"));
        for (key, value) in series {
            let (_, labels) = metrics::split_key(key);
            out.push_str(&format!("{fam}{} {value}\n", render_labels(&labels, None)));
        }
    }

    for (fam, series) in families(&snap.gauges, |(key, _)| key, "") {
        out.push_str(&format!("# TYPE {fam} gauge\n"));
        for (key, value) in series {
            let (_, labels) = metrics::split_key(key);
            out.push_str(&format!(
                "{fam}{} {}\n",
                render_labels(&labels, None),
                fmt_value(*value)
            ));
        }
    }

    for (fam, snaps) in families(&snap.hists, |s| &s.key, "_seconds") {
        out.push_str(&format!("# TYPE {fam} summary\n"));
        for s in snaps {
            let (_, labels) = metrics::split_key(&s.key);
            for q in QUANTILES {
                out.push_str(&format!(
                    "{fam}{} {}\n",
                    render_labels(&labels, Some(("quantile", format!("{q}")))),
                    s.quantile(q) as f64 / 1e9
                ));
            }
            let base_labels = render_labels(&labels, None);
            out.push_str(&format!(
                "{fam}_sum{base_labels} {}\n",
                s.sum_ns as f64 / 1e9
            ));
            out.push_str(&format!("{fam}_count{base_labels} {}\n", s.count));
        }
    }
    out
}

/// Groups `series` by Prometheus family — the sanitized base of each
/// series' key plus `suffix` — in order of first appearance.
fn families<'a, T>(
    series: &'a [T],
    key: impl Fn(&'a T) -> &'a str,
    suffix: &str,
) -> Vec<(String, Vec<&'a T>)> {
    let mut out: Vec<(String, Vec<&'a T>)> = Vec::new();
    for s in series {
        let (base, _) = metrics::split_key(key(s));
        let fam = format!("{}{suffix}", sanitize_name(base));
        match out.iter_mut().find(|(f, _)| *f == fam) {
            Some((_, v)) => v.push(s),
            None => out.push((fam, vec![s])),
        }
    }
    out
}

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn is_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

/// Parses one `{...}` label block; returns the byte length consumed
/// (including braces) or an error.
fn check_label_block(s: &str) -> Result<usize, String> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes[0], b'{');
    let mut pos = 1;
    loop {
        if pos >= bytes.len() {
            return Err("unterminated label block".into());
        }
        if bytes[pos] == b'}' {
            return Ok(pos + 1);
        }
        // label name
        let start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        if pos >= bytes.len() {
            return Err("label without '='".into());
        }
        if !is_label_name(&s[start..pos]) {
            return Err(format!("bad label name '{}'", &s[start..pos]));
        }
        pos += 1; // '='
        if pos >= bytes.len() || bytes[pos] != b'"' {
            return Err("label value must be quoted".into());
        }
        pos += 1;
        loop {
            match bytes.get(pos) {
                None => return Err("unterminated label value".into()),
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'\\') | Some(b'"') | Some(b'n') => {}
                        _ => return Err("bad escape in label value".into()),
                    }
                    pos += 2;
                }
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(_) => pos += 1,
            }
        }
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {}
            _ => return Err("expected ',' or '}' after label".into()),
        }
    }
}

fn is_sample_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN" | "Nan") || s.parse::<f64>().is_ok()
}

/// Structurally validates Prometheus text-format 0.0.4 output.
///
/// Checks, per line: `# HELP` / `# TYPE` comment shape (TYPE must name a
/// valid metric and one of the five type keywords, at most once per
/// family, before any of its samples), metric-name and label-name
/// character sets, quoted-and-escaped label values, a parseable float
/// value, and an optional integer timestamp. Returns the first violation
/// with its line number.
pub fn validate(text: &str) -> Result<(), String> {
    let mut typed: Vec<&str> = Vec::new();
    let mut sampled: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let err = |msg: String| Err(format!("line {n}: {msg}"));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(body) = rest.strip_prefix("TYPE ") {
                let mut it = body.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("").trim();
                if !is_metric_name(name) {
                    return err(format!("TYPE names invalid metric '{name}'"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return err(format!("unknown metric type '{kind}'"));
                }
                if typed.contains(&name) {
                    return err(format!("duplicate TYPE for '{name}'"));
                }
                if sampled.iter().any(|s| s == name) {
                    return err(format!("TYPE for '{name}' after its samples"));
                }
                typed.push(name);
            } else if let Some(body) = rest.strip_prefix("HELP ") {
                let name = body.split(' ').next().unwrap_or("");
                if !is_metric_name(name) {
                    return err(format!("HELP names invalid metric '{name}'"));
                }
            }
            // Other comments are free-form.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !is_metric_name(name) {
            return err(format!("invalid metric name '{name}'"));
        }
        let mut rest = &line[name_end..];
        if rest.starts_with('{') {
            match check_label_block(rest) {
                Ok(consumed) => rest = &rest[consumed..],
                Err(e) => return err(e),
            }
        }
        let rest = rest.trim_start();
        let mut parts = rest.split_whitespace();
        let Some(value) = parts.next() else {
            return err("missing sample value".into());
        };
        if !is_sample_value(value) {
            return err(format!("unparseable sample value '{value}'"));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return err(format!("bad timestamp '{ts}'"));
            }
        }
        if parts.next().is_some() {
            return err("trailing tokens after timestamp".into());
        }
        // Summary/quantile and _sum/_count series belong to the base family
        // for TYPE-ordering purposes; track the literal name too.
        sampled.push(name.to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("exec.layer_latency"), "exec_layer_latency");
        assert_eq!(sanitize_name("cache.hit"), "cache_hit");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a:b_c9"), "a:b_c9");
    }

    #[test]
    fn validator_accepts_canonical_output() {
        let text = "\
# HELP http_requests_total Total requests.\n\
# TYPE http_requests_total counter\n\
http_requests_total{method=\"post\",code=\"200\"} 1027 1395066363000\n\
http_requests_total{method=\"post\",code=\"400\"} 3\n\
# TYPE rpc_duration_seconds summary\n\
rpc_duration_seconds{quantile=\"0.5\"} 4.13e-05\n\
rpc_duration_seconds_sum 1.7560473e+07\n\
rpc_duration_seconds_count 2693\n\
something_weird{problem=\"division by zero\"} +Inf\n";
        validate(text).unwrap();
    }

    #[test]
    fn validator_rejects_violations() {
        assert!(validate("bad-name 1\n").is_err());
        assert!(validate("m{l=unquoted} 1\n").is_err());
        assert!(validate("m{2l=\"x\"} 1\n").is_err());
        assert!(validate("m{l=\"x\"} notanumber\n").is_err());
        assert!(validate("m 1 badts\n").is_err());
        assert!(validate("m{l=\"x\" 1\n").is_err());
        assert!(validate("# TYPE m frobnicator\nm 1\n").is_err());
        assert!(validate("m 1\n# TYPE m counter\n").is_err());
        assert!(validate("# TYPE m counter\n# TYPE m counter\n").is_err());
        assert!(validate("m{l=\"bad\\q\"} 1\n").is_err());
    }

    /// Pins the serving-layer metric names as they cross the exposition
    /// boundary. `greuse::serve` pins the same literals on its side
    /// (`metric_names_are_pinned`); together the two tests make a rename
    /// fail in both crates. The sample document below is exactly the
    /// shape `greuse monitor --validate` scrapes from a serve process.
    #[test]
    fn serve_metric_families_survive_exposition() {
        let pinned = [
            ("serve.request_latency", "serve_request_latency"),
            ("serve.batch_size", "serve_batch_size"),
            ("serve.queue_depth", "serve_queue_depth"),
            ("serve.shed", "serve_shed"),
            ("serve.deadline_miss", "serve_deadline_miss"),
            ("serve.breaker_state", "serve_breaker_state"),
        ];
        for (dotted, family) in pinned {
            assert_eq!(sanitize_name(dotted), family, "rename breaks scrapers");
        }
        let text = "\
# TYPE serve_shed counter\n\
serve_shed 12\n\
# TYPE serve_deadline_miss counter\n\
serve_deadline_miss 3\n\
# TYPE serve_batch_size gauge\n\
serve_batch_size 4\n\
# TYPE serve_queue_depth gauge\n\
serve_queue_depth 7\n\
# TYPE serve_breaker_state gauge\n\
serve_breaker_state 1\n\
# TYPE serve_request_latency_seconds summary\n\
serve_request_latency_seconds{quantile=\"0.5\"} 0.0021\n\
serve_request_latency_seconds{quantile=\"0.99\"} 0.0087\n\
serve_request_latency_seconds_sum 1.93\n\
serve_request_latency_seconds_count 640\n";
        validate(text).expect("serve exposition must stay grammatical");
    }

    #[test]
    #[cfg(feature = "capture")]
    fn render_is_valid_and_round_trips_labels() {
        // Rendering draws on whatever global state other tests created;
        // we only assert structural validity plus presence of our series.
        let _l = crate::test_lock();
        let h = crate::metrics::hist_labeled(
            "prom.test_latency",
            &[("layer", "conv1"), ("mode", "warm")],
        );
        h.record(1_500_000);
        h.record(2_500_000);
        let g = <crate::metrics::Gauge as crate::metrics::Metric>::lookup("prom.test_gauge");
        // Gauge stores are gated on the active flag; poke the bit directly
        // via the public API only when enabled — here just render.
        let _ = g;
        let text = render();
        validate(&text).expect("rendered output must validate");
        assert!(text.contains("# TYPE prom_test_latency_seconds summary"));
        assert!(text
            .contains("prom_test_latency_seconds{layer=\"conv1\",mode=\"warm\",quantile=\"0.5\"}"));
        assert!(text.contains("prom_test_latency_seconds_count{layer=\"conv1\",mode=\"warm\"} 2"));
        assert!(text.contains("# TYPE prom_test_gauge gauge"));
        assert!(text.contains("greuse_telemetry_dropped_events"));
    }

    /// Two labeled series of one counter family (and of one gauge
    /// family) render under a single TYPE line each, series adjacent.
    #[test]
    #[cfg(feature = "capture")]
    fn labeled_series_of_one_family_share_a_type_line() {
        use crate::metrics::{Counter, Gauge, Metric};
        let _l = crate::test_lock();
        Counter::lookup(r#"prom_test.fallback{reason="low_rt"}"#);
        Gauge::lookup(r#"prom_test.depth{queue="a"}"#);
        Counter::lookup(r#"prom_test.fallback{reason="accuracy_bound"}"#);
        Gauge::lookup(r#"prom_test.depth{queue="b"}"#);
        let text = render();
        validate(&text).expect("labeled series of one family must validate");
        for (fam, kind) in [
            ("prom_test_fallback", "counter"),
            ("prom_test_depth", "gauge"),
        ] {
            let type_line = format!("# TYPE {fam} {kind}");
            assert_eq!(text.matches(&type_line).count(), 1, "{text}");
            let lines: Vec<&str> = text.lines().collect();
            let at = lines.iter().position(|l| *l == type_line).unwrap();
            assert!(lines[at + 1].starts_with(&format!("{fam}{{")), "{text}");
            assert!(lines[at + 2].starts_with(&format!("{fam}{{")), "{text}");
        }
    }
}
