//! The experiment presets.
//!
//! Every registry entry runs at exactly two scales: `Quick` (CI-sized,
//! the default) and `Paper` (what `all_figures --paper` selects). Each
//! figure keeps its knobs in a typed `*Params` struct with `quick()` and
//! `paper()` constructors; an entry's run closure turns the preset into
//! that struct with [`ExperimentParams::pick`].

/// Which preset a registry entry runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentParams {
    /// The CI-sized preset.
    Quick,
    /// The paper-scale preset.
    Paper,
}

impl ExperimentParams {
    /// Builds the value for this preset: `quick()` or `paper()`.
    pub fn pick<T>(self, quick: impl FnOnce() -> T, paper: impl FnOnce() -> T) -> T {
        match self {
            ExperimentParams::Quick => quick(),
            ExperimentParams::Paper => paper(),
        }
    }
}
