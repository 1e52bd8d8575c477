//! Minimal Prometheus text-format parser.
//!
//! Understands the subset the registry emits — `# HELP` / `# TYPE`
//! comments, samples with optional label sets, and summary-style
//! `_sum` / `_count` suffixes — which is all a scraper of these hubs and
//! the round-trip tests need. Unknown comment lines are skipped;
//! malformed sample lines are errors.

use std::collections::BTreeMap;

/// One sample line: `name{label="value",...} 42`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Sorted `(key, value)` pairs.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: HELP/TYPE metadata plus all samples in order.
#[derive(Debug, Default, Clone)]
pub struct Exposition {
    pub help: BTreeMap<String, String>,
    pub types: BTreeMap<String, String>,
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The first sample matching `name` and all given label pairs
    /// (the sample may carry extra labels beyond those asked for).
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.label(k).is_some_and(|have| have == *v))
        })
    }

    /// Convenience: the value of the first matching sample.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels).map(|s| s.value)
    }

    /// The metric family a sample name belongs to: the name itself if a
    /// TYPE was declared for it, otherwise the name with a summary or
    /// histogram suffix (`_sum`, `_count`, `_bucket`) stripped.
    pub fn family_of(&self, sample_name: &str) -> Option<&str> {
        if self.types.contains_key(sample_name) {
            return self
                .types
                .get_key_value(sample_name)
                .map(|(k, _)| k.as_str());
        }
        for suffix in ["_sum", "_count", "_bucket"] {
            if let Some(base) = sample_name.strip_suffix(suffix) {
                if self.types.contains_key(base) {
                    return self.types.get_key_value(base).map(|(k, _)| k.as_str());
                }
            }
        }
        None
    }

    /// Structural validation used by the round-trip tests: every sample
    /// belongs to a family with declared HELP and TYPE, and no two samples
    /// form a duplicate series (same name and same label set).
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for sample in &self.samples {
            let family = self
                .family_of(&sample.name)
                .ok_or_else(|| format!("sample {} has no TYPE line", sample.name))?;
            if !self.help.contains_key(family) {
                return Err(format!("family {family} has no HELP line"));
            }
            let key = (sample.name.clone(), sample.labels.clone());
            if !seen.insert(key) {
                return Err(format!(
                    "duplicate series {}{:?}",
                    sample.name, sample.labels
                ));
            }
        }
        Ok(())
    }
}

/// Parses a full exposition body.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .map(|(n, h)| (n, h.to_string()))
                .unwrap_or((rest, String::new()));
            out.help.insert(name.to_string(), unescape(&help));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').ok_or_else(|| err("bad TYPE"))?;
            out.types.insert(name.to_string(), kind.to_string());
        } else if line.starts_with('#') {
            continue;
        } else {
            out.samples.push(parse_sample(line).map_err(|m| err(&m))?);
        }
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line.find(['{', ' ']).ok_or("missing value")?;
    let name = &line[..name_end];
    if name.is_empty() || !is_metric_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut labels = Vec::new();
    let rest = if line[name_end..].starts_with('{') {
        let close = line[name_end..]
            .find('}')
            .map(|i| name_end + i)
            .ok_or("unterminated label set")?;
        parse_labels(&line[name_end + 1..close], &mut labels)?;
        &line[close + 1..]
    } else {
        &line[name_end..]
    };
    let value: f64 = rest
        .split_whitespace()
        .next()
        .ok_or("missing value")?
        .parse()
        .map_err(|_| format!("bad value {:?}", rest.trim()))?;
    labels.sort();
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut chars = body.chars().peekable();
    loop {
        // Skip separators and trailing comma/whitespace.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(());
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?} missing quoted value"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut closed = false;
        for c in chars.by_ref() {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                closed = true;
                break;
            } else {
                value.push(c);
            }
        }
        if !closed {
            return Err(format!("label {key:?} has unterminated value"));
        }
        out.push((key.trim().to_string(), value));
    }
}

fn is_metric_name(name: &str) -> bool {
    name.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn unescape(s: &str) -> String {
    s.replace("\\n", "\n").replace("\\\\", "\\")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_samples_with_and_without_labels() {
        let text = "\
# HELP selfserv_x Things.
# TYPE selfserv_x counter
selfserv_x 5
selfserv_x{hub=\"h1\",zone=\"a b\"} 7.5
";
        let exp = parse(text).unwrap();
        assert_eq!(exp.value("selfserv_x", &[]), Some(5.0));
        assert_eq!(exp.value("selfserv_x", &[("hub", "h1")]), Some(7.5));
        assert_eq!(
            exp.find("selfserv_x", &[("hub", "h1")])
                .unwrap()
                .label("zone"),
            Some("a b")
        );
        exp.validate().unwrap();
    }

    #[test]
    fn summary_suffixes_resolve_to_family() {
        let text = "\
# HELP selfserv_lat Latency.
# TYPE selfserv_lat summary
selfserv_lat{quantile=\"0.5\"} 10
selfserv_lat_sum 30
selfserv_lat_count 3
";
        let exp = parse(text).unwrap();
        assert_eq!(exp.family_of("selfserv_lat_sum"), Some("selfserv_lat"));
        exp.validate().unwrap();
    }

    #[test]
    fn validation_catches_problems() {
        let no_type = parse("selfserv_orphan 1\n").unwrap();
        assert!(no_type.validate().unwrap_err().contains("no TYPE"));

        let dup = parse("# HELP d d\n# TYPE d gauge\nd{a=\"1\"} 1\nd{a=\"1\"} 2\n").unwrap();
        assert!(dup.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let text = "# HELP e e\n# TYPE e counter\ne{p=\"a\\\"b\\\\c\\nd\"} 1\n";
        let exp = parse(text).unwrap();
        assert_eq!(exp.samples[0].label("p"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse("not a metric!! 3\n").is_err());
        assert!(parse("x{a=\"unterminated} 3\n").is_err());
        assert!(parse("x notanumber\n").is_err());
    }
}
