//! Anomaly-triggered flight recorder.
//!
//! When a trace's `health` column — the verdict of the loop's classifier
//! ([`diagnostics`](crate::diagnostics)) — enters an anomalous state
//! (`Oscillating` / `Saturated` / `Diverging`), the observability plane
//! snapshots the in-memory trace ring plus the loop's full diagnostics
//! state to a self-contained JSONL bundle on disk — every anomaly ships
//! its own reproduction artifact.
//!
//! Bundle format (one file per anomaly, `flight_<unix_ms>_k<k>_<state>.jsonl`):
//!
//! * line 1 — a header object: `{"kind":"flight_header","k":…,
//!   "state":"…","unix_ms":…,"traces":N,"diagnostics":{…}}` where
//!   `diagnostics` is the [`DiagnosticsSnapshot`] JSON.
//! * lines 2…N+1 — the retained [`ControlTrace`] records, oldest first,
//!   exactly as [`ControlTrace::to_jsonl`] writes them (so every
//!   existing trace tool ingests a bundle tail unchanged).
//!
//! Writes are atomic (temp file + rename), **debounced** (a flapping
//! classifier cannot write a bundle per period) and **bounded** (oldest
//! bundles are deleted beyond a retention limit).

use crate::diagnostics::{DiagnosticsSnapshot, HealthState};
use crate::telemetry::ControlTrace;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Minimum number of control periods between two bundles. A transition
/// closer than this to the previously recorded one is skipped.
const DEBOUNCE_PERIODS: u64 = 20;
/// Maximum bundles kept in the directory; the oldest (by file name, which
/// sorts chronologically) are deleted beyond this.
const MAX_BUNDLES: usize = 8;

/// Writes anomaly bundles. One instance per observability plane; not
/// thread-safe by itself (the plane wraps it in a mutex).
#[derive(Debug)]
pub struct FlightRecorder {
    /// Directory bundles are written into (created on demand).
    dir: PathBuf,
    last_recorded_k: Option<u64>,
    /// The verdict of the last period seen by [`Self::enters_anomaly`].
    last_state: HealthState,
    bundles_written: u64,
    skipped_debounce: u64,
    last_error: Option<String>,
}

impl FlightRecorder {
    /// Creates a recorder writing into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            last_recorded_k: None,
            last_state: HealthState::Healthy,
            bundles_written: 0,
            skipped_debounce: 0,
            last_error: None,
        }
    }

    /// Bundles written so far.
    pub fn bundles_written(&self) -> u64 {
        self.bundles_written
    }

    /// Transitions skipped by the debounce.
    pub fn skipped_debounce(&self) -> u64 {
        self.skipped_debounce
    }

    /// The last I/O error message, if any (recording is best-effort: an
    /// unwritable disk must not take down the control loop).
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// Whether a period judged `state` enters an anomalous state: the
    /// previous period's verdict was a different one.
    pub(crate) fn enters_anomaly(&mut self, state: HealthState) -> bool {
        state != std::mem::replace(&mut self.last_state, state) && state.is_anomalous()
    }

    /// Records a transition into `state` at period `k`: writes one
    /// bundle holding `snapshot`, `traces` and, when given, the latency
    /// truth plane's stage-timing profile (`"profile":{…}` in the header,
    /// so a post-mortem shows *where* in the pipeline the anomaly's
    /// latency lived), unless debounced. Returns the bundle path when one
    /// was written.
    pub fn record_transition(
        &mut self,
        k: u64,
        state: HealthState,
        snapshot: &DiagnosticsSnapshot,
        traces: &[ControlTrace],
        profile: Option<&crate::spans::ProfileSnapshot>,
    ) -> Option<PathBuf> {
        if let Some(last) = self.last_recorded_k {
            if k.saturating_sub(last) < DEBOUNCE_PERIODS {
                self.skipped_debounce += 1;
                return None;
            }
        }
        match self.write_bundle(k, state, snapshot, traces, profile) {
            Ok(path) => {
                self.last_recorded_k = Some(k);
                self.bundles_written += 1;
                self.last_error = None;
                self.enforce_retention();
                Some(path)
            }
            Err(e) => {
                self.last_error = Some(e.to_string());
                None
            }
        }
    }

    fn write_bundle(
        &self,
        k: u64,
        state: HealthState,
        snapshot: &DiagnosticsSnapshot,
        traces: &[ControlTrace],
        profile: Option<&crate::spans::ProfileSnapshot>,
    ) -> std::io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let name = format!("flight_{unix_ms:013}_k{k:08}_{}.jsonl", state.as_str());
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!(".{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            let profile_field = match profile {
                Some(p) => format!(",\"profile\":{}", p.to_json()),
                None => String::new(),
            };
            writeln!(
                f,
                "{{\"kind\":\"flight_header\",\"k\":{k},\"state\":\"{}\",\
                 \"unix_ms\":{unix_ms},\"traces\":{},\"diagnostics\":{}{profile_field}}}",
                state.as_str(),
                traces.len(),
                snapshot.to_json(),
            )?;
            for t in traces {
                writeln!(f, "{}", t.to_jsonl())?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Deletes the oldest bundles beyond the retention limit. File names
    /// start with a zero-padded unix-ms stamp, so lexicographic order is
    /// chronological.
    fn enforce_retention(&self) {
        let mut bundles = list_bundles(&self.dir);
        if bundles.len() <= MAX_BUNDLES {
            return;
        }
        bundles.sort();
        let excess = bundles.len() - MAX_BUNDLES;
        for path in bundles.into_iter().take(excess) {
            let _ = fs::remove_file(path);
        }
    }
}

/// The flight bundles currently present in `dir`, unsorted.
pub fn list_bundles(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight_") && n.ends_with(".jsonl"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{ControllerHealth, DiagnosticsConfig};
    use crate::hook::{Decision, PeriodSnapshot};
    use crate::time::{secs, SimTime};
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "streamshed_flight_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn trace(k: u64) -> ControlTrace {
        let snap = PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered: 100,
            admitted: 90,
            dropped_entry: 10,
            dropped_network: 0,
            completed: 80,
            outstanding: 10,
            queued_tuples: 10,
            queued_load_us: 1000.0,
            measured_cost_us: Some(100.0),
            mean_delay_ms: Some(4000.0),
            cpu_busy_us: 900_000,
        };
        ControlTrace::capture(&snap, &Decision::entry(0.1), None, 100)
    }

    fn snapshot() -> DiagnosticsSnapshot {
        ControllerHealth::new(DiagnosticsConfig::for_target(Duration::from_secs(2))).snapshot()
    }

    #[test]
    fn bundle_written_atomically_with_header_and_traces() {
        let dir = temp_dir("basic");
        let mut fr = FlightRecorder::new(&dir);
        let traces: Vec<_> = (0..5).map(trace).collect();
        let path = fr
            .record_transition(42, HealthState::Saturated, &snapshot(), &traces, None)
            .expect("bundle written");
        assert!(path.exists());
        let body = fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = body.lines().collect();
        assert_eq!(lines.len(), 6, "header + 5 traces");
        assert!(lines[0].contains("\"kind\":\"flight_header\""));
        assert!(lines[0].contains("\"state\":\"saturated\""));
        assert!(lines[0].contains("\"k\":42"));
        assert!(lines[0].contains("\"diagnostics\":{"));
        assert!(lines[1].contains("\"k\":0"));
        // No stray temp files.
        assert!(fs::read_dir(&dir)
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")));
        assert_eq!(fr.bundles_written(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn debounce_skips_nearby_transitions() {
        let dir = temp_dir("debounce");
        let mut fr = FlightRecorder::new(&dir);
        let traces = [trace(0)];
        assert!(fr
            .record_transition(10, HealthState::Oscillating, &snapshot(), &traces, None)
            .is_some());
        // Within the 20-period debounce window: skipped.
        assert!(fr
            .record_transition(25, HealthState::Saturated, &snapshot(), &traces, None)
            .is_none());
        assert_eq!(fr.skipped_debounce(), 1);
        // Beyond it: recorded.
        assert!(fr
            .record_transition(31, HealthState::Saturated, &snapshot(), &traces, None)
            .is_some());
        assert_eq!(fr.bundles_written(), 2);
        assert_eq!(list_bundles(&dir).len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_deletes_oldest_bundles() {
        let dir = temp_dir("retention");
        let mut fr = FlightRecorder::new(&dir);
        let traces = [trace(0)];
        for k in 0..10 {
            assert!(fr
                .record_transition(k * 100, HealthState::Diverging, &snapshot(), &traces, None)
                .is_some());
        }
        let mut left = list_bundles(&dir);
        assert_eq!(left.len(), MAX_BUNDLES);
        left.sort();
        // The survivors are the newest ones (k 200..=900 in the name).
        let names: Vec<_> = left
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().any(|n| n.contains("k00000900")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("k00000200")), "{names:?}");
        assert!(!names.iter().any(|n| n.contains("k00000100")), "{names:?}");
        assert!(!names.iter().any(|n| n.contains("k00000000")), "{names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_records_error_not_panic() {
        let mut fr = FlightRecorder::new("/proc/definitely/not/writable/streamshed");
        let out = fr.record_transition(5, HealthState::Diverging, &snapshot(), &[trace(0)], None);
        assert!(out.is_none());
        assert!(fr.last_error().is_some());
        assert_eq!(fr.bundles_written(), 0);
    }
}
