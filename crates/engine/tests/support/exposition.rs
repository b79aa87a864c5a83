// The Prometheus text exposition rules a `/metrics` body must keep,
// shared by the engine's and the network front door's tests through
// `include!`. `scripts/check_exposition.py` applies the same rules in CI.

/// Checks `text` against the exposition rules and returns how many
/// families it holds, or the first broken rule:
///
/// * every family has exactly one `# HELP` and one `# TYPE` line;
/// * both come before the family's first sample;
/// * a family's lines are contiguous: once another family starts, it
///   never resumes (a histogram's `_bucket`, `_sum` and `_count`
///   samples belong to their base family);
/// * every sample's value parses as a float.
pub fn check_exposition(text: &str) -> Result<usize, String> {
    use std::collections::{HashMap, HashSet};
    // Per family: HELP lines, the TYPE's kind, samples.
    let mut families: HashMap<String, (u32, Option<String>, u64)> = HashMap::new();
    let mut finished: HashSet<String> = HashSet::new();
    let mut current: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}: {line:?}", i + 1);
        let words: Vec<&str> = line.splitn(4, ' ').collect();
        let preamble = matches!(words[..], ["#", "HELP" | "TYPE", ..]);
        let family = if preamble {
            words.get(2).copied().unwrap_or("")
        } else if line.starts_with('#') {
            continue;
        } else {
            let (series, value) = line.rsplit_once(' ').ok_or_else(|| at("no value".into()))?;
            value.parse::<f64>().map_err(|e| at(format!("value {value:?}: {e}")))?;
            let name = series.split('{').next().unwrap_or("");
            let histogram = |base: &str| {
                families.get(base).is_some_and(|f| f.1.as_deref() == Some("histogram"))
            };
            ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s).filter(|base| histogram(base)))
                .unwrap_or(name)
        }
        .to_string();
        if family.is_empty() {
            return Err(at("no metric name".into()));
        }
        if current.as_deref() != Some(family.as_str()) {
            if finished.contains(&family) {
                return Err(at(format!("family {family} resumes after another family")));
            }
            finished.extend(current.replace(family.clone()));
        }
        let (helps, kind, samples) = families.entry(family.clone()).or_default();
        if !preamble {
            if *helps == 0 || kind.is_none() {
                return Err(at(format!("sample of {family} before its HELP and TYPE")));
            }
            *samples += 1;
        } else if *samples > 0 {
            return Err(at(format!("preamble of {family} after its samples")));
        } else if words[1] == "HELP" {
            *helps += 1;
            if *helps > 1 {
                return Err(at(format!("second HELP for {family}")));
            }
        } else if kind.replace(words.get(3).unwrap_or(&"").to_string()).is_some() {
            return Err(at(format!("second TYPE for {family}")));
        }
    }
    match families.iter().find(|(_, (helps, kind, _))| *helps != 1 || kind.is_none()) {
        Some((name, _)) => Err(format!("family {name} lacks its HELP or TYPE line")),
        None => Ok(families.len()),
    }
}
