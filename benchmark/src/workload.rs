//! Workload inputs: the checked-in spec files and the expected observables
//! blessed beside them.

use crate::names::WORKLOADS;
use bcc_core::ExperimentSpec;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One workload: its name and the JSON the program is handed.
///
/// The JSON is the checked-in spec with `seed` replaced, re-serialized, so
/// that parsing it is part of every timed set-up.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name from [`WORKLOADS`].
    pub name: &'static str,
    /// The spec with the run's seed.
    pub spec: ExperimentSpec,
    /// `spec` as the JSON text set-up parses.
    pub json: String,
}

impl Workload {
    /// Loads `<dir>/workloads/<name>.spec.json` and installs `seed`.
    ///
    /// # Errors
    /// An unknown name, an unreadable file, or a spec that does not parse.
    pub fn load(dir: &Path, name: &str, seed: u64) -> Result<Self, String> {
        let name = WORKLOADS
            .iter()
            .copied()
            .find(|w| *w == name)
            .ok_or_else(|| format!("unknown workload `{name}`: expected one of {WORKLOADS:?}"))?;
        let path = spec_path(dir, name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut spec =
            ExperimentSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        spec.seed = seed;
        Self::from_spec(name, spec)
    }

    /// A workload from an already resolved spec.
    ///
    /// # Errors
    /// When the spec does not serialize.
    pub fn from_spec(name: &'static str, spec: ExperimentSpec) -> Result<Self, String> {
        let json = spec.to_json_pretty().map_err(|e| e.to_string())?;
        Ok(Self { name, spec, json })
    }
}

/// `<dir>/workloads/<name>.spec.json`.
#[must_use]
pub fn spec_path(dir: &Path, name: &str) -> PathBuf {
    dir.join("workloads").join(format!("{name}.spec.json"))
}

/// The observables of one workload at one seed, written by `--bless` and
/// compared (to 1e-9 relative) by every later verification run at that
/// seed. Tolerance-based on purpose: a change of reduction order is judged
/// on accuracy, not on a hash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expect {
    /// The seed these values were blessed at.
    pub seed: u64,
    /// Mean messages the master consumed per round.
    pub mean_messages_used: f64,
    /// Mean simulated seconds per round; 0 on the TCP backend, whose
    /// simulated clock is scaled wall time.
    pub sim_s_per_round: f64,
    /// Empirical risk at the final weights; 0 for fixed-point workloads,
    /// which do not train.
    pub final_risk: f64,
}

impl Expect {
    /// `<dir>/workloads/<name>.expect.json`.
    #[must_use]
    pub fn path(dir: &Path, name: &str) -> PathBuf {
        dir.join("workloads").join(format!("{name}.expect.json"))
    }

    /// Reads the blessed values; `Ok(None)` when none were blessed yet.
    ///
    /// # Errors
    /// A file that exists but does not parse.
    pub fn read(dir: &Path, name: &str) -> Result<Option<Self>, String> {
        let path = Self::path(dir, name);
        match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Writes the blessed values.
    ///
    /// # Errors
    /// Any I/O failure, with the path.
    pub fn write(&self, dir: &Path, name: &str) -> Result<(), String> {
        let path = Self::path(dir, name);
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}
