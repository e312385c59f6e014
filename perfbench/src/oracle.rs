//! The output oracle: golden-model verdicts per simulated cell, plus an
//! FNV-1a digest over every `SystemReport::to_json` (sims) or over the
//! response stream (serve), pinned for the default seed.

use edc_core::SystemReport;
use edc_store::key_hash;
use edc_transient::RunOutcome;

use crate::gen::Expect;

/// The seed used while tuning, and the one every figure in the benchmark
/// doc was taken with.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while tuning: claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_170_327;

/// Digests recorded for [`DEFAULT_SEED`], one per workload. A run on the
/// default seed whose outputs hash differently is incorrect.
pub fn recorded(workload: &str) -> Option<u64> {
    match workload {
        "sim-dense" => Some(0xb3f3_ce57_78ac_9538),
        "sim-sparse" => Some(0x87b6_7cd7_0803_b676),
        "serve-mixed" => Some(0xb8af_f47f_6bec_9401),
        _ => None,
    }
}

/// The digest of a pass's outputs: `key_hash` (FNV-1a) over its lines,
/// each ended by a newline.
pub fn digest<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> u64 {
    let mut text = String::new();
    for line in lines {
        text.push_str(line.as_ref());
        text.push('\n');
    }
    key_hash(&text)
}

/// Holds a run to one digest: the first pass must match the pinned digest,
/// if there is one, and every later pass must hash like the first.
pub struct DigestCheck {
    expected: Option<u64>,
    first: Option<u64>,
}

impl DigestCheck {
    pub fn new(expected: Option<u64>) -> Self {
        Self {
            expected,
            first: None,
        }
    }

    /// Checks one pass's digest, recording a mismatch as a failure.
    pub fn check(&mut self, digest: u64, failures: &mut Vec<String>) {
        match (self.first, self.expected) {
            (Some(first), _) if first != digest => failures.push(format!(
                "pass digest {digest:016x} differs from the run's first pass {first:016x}"
            )),
            (None, Some(want)) if want != digest => failures.push(format!(
                "digest {digest:016x} does not match the recorded {want:016x}"
            )),
            _ => {}
        }
        self.first.get_or_insert(digest);
    }

    /// The run's digest: that of its first pass.
    pub fn first(&self) -> u64 {
        self.first.unwrap_or_default()
    }
}

/// The golden-model verdict for one simulated cell.
pub fn check_cell(expect: Expect, report: &SystemReport) -> Result<(), String> {
    let what = format!("{}/{}", report.strategy, report.workload);
    match (report.outcome, expect) {
        (RunOutcome::Faulted, _) => Err(format!("{what}: machine faulted")),
        (RunOutcome::Completed, Expect::Dnf) => {
            Err(format!("{what}: completed, but must stay DNF"))
        }
        (RunOutcome::DeadlineExpired, Expect::Complete) => {
            Err(format!("{what}: did not finish by its deadline"))
        }
        (RunOutcome::Completed, _) => report
            .verification
            .as_ref()
            .map(|_| ())
            .map_err(|e| format!("{what}: golden-model verification failed: {e}")),
        (RunOutcome::DeadlineExpired, _) => Ok(()),
    }
}
