//! Runtime configuration — the experiment knobs of Section 6.

use clean_core::{AtomicityMode, CompiledPlan, EpochLayout};
use std::sync::Arc;

/// Configuration of a [`CleanRuntime`](crate::CleanRuntime).
///
/// The defaults correspond to full software-only CLEAN as evaluated in
/// Figure 6: precise WAW/RAW detection with the multi-byte vectorization,
/// plus Kendo deterministic synchronization, with the paper's 23-bit-clock
/// epoch layout. Every Figure 6/8 configuration is expressible:
///
/// | Figure 6 bar            | `detection` | `det_sync` |
/// |-------------------------|-------------|------------|
/// | nondeterministic (base) | `false`     | `false`    |
/// | deterministic sync only | `false`     | `true`     |
/// | race detection only     | `true`      | `false`    |
/// | CLEAN                   | `true`      | `true`     |
///
/// # Examples
///
/// ```
/// use clean_runtime::RuntimeConfig;
/// let cfg = RuntimeConfig::new()
///     .heap_size(1 << 20)
///     .max_threads(8)
///     .detection(true)
///     .det_sync(true);
/// assert_eq!(cfg.max_threads, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RuntimeConfig {
    /// Size of the shared heap in bytes.
    pub heap_size: usize,
    /// Maximum concurrently live threads (bounded by the epoch layout's
    /// tid capacity when detection is on).
    pub max_threads: usize,
    /// Enable precise WAW/RAW race detection (Sections 3.2, 4).
    pub detection: bool,
    /// Enable Kendo deterministic synchronization (Sections 2.4, 3.3).
    pub det_sync: bool,
    /// Enable the Section 4.4 multi-byte vectorization (Figure 8 knob).
    pub vectorized: bool,
    /// Epoch bit layout (Table 1 compares 23-bit and 28-bit clocks).
    pub layout: EpochLayout,
    /// Check-atomicity scheme (lock-free CAS vs per-check locking — the
    /// Section 3.2 locking-overhead ablation).
    pub atomicity: AtomicityMode,
    /// Record a [`clean_core::TraceEvent`] log of the execution for
    /// offline cross-validation against the `clean-baselines` engines.
    /// Serializes every event through one lock — testing only.
    pub record_trace: bool,
    /// Optional compiled static check plan (derive with
    /// `clean-analyze plan` or [`clean_core::PlanObserver`]): per-range
    /// check elision and coalesced filtering.
    pub check_plan: Option<Arc<CompiledPlan>>,
}

impl RuntimeConfig {
    /// Full software-only CLEAN with the paper's defaults.
    pub fn new() -> Self {
        RuntimeConfig {
            heap_size: 1 << 20,
            max_threads: 16,
            detection: true,
            det_sync: true,
            vectorized: true,
            layout: EpochLayout::paper_default(),
            atomicity: AtomicityMode::LockFree,
            record_trace: false,
            check_plan: None,
        }
    }

    /// The nondeterministic baseline: no detection, no deterministic
    /// synchronization (the normalization denominator of Figure 6).
    pub fn baseline() -> Self {
        Self::new().detection(false).det_sync(false)
    }

    /// Sets the shared heap size in bytes.
    pub fn heap_size(mut self, bytes: usize) -> Self {
        self.heap_size = bytes;
        self
    }

    /// Sets the maximum number of live threads.
    pub fn max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    /// Enables or disables race detection.
    pub fn detection(mut self, on: bool) -> Self {
        self.detection = on;
        self
    }

    /// Enables or disables deterministic synchronization.
    pub fn det_sync(mut self, on: bool) -> Self {
        self.det_sync = on;
        self
    }

    /// Enables or disables the multi-byte check vectorization.
    pub fn vectorized(mut self, on: bool) -> Self {
        self.vectorized = on;
        self
    }

    /// Sets the epoch layout.
    pub fn layout(mut self, layout: EpochLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Selects the check-atomicity scheme.
    pub fn atomicity(mut self, mode: AtomicityMode) -> Self {
        self.atomicity = mode;
        self
    }

    /// Enables execution trace recording (testing/cross-validation).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Installs (or clears) a compiled static check plan.
    pub fn check_plan(mut self, plan: Option<Arc<CompiledPlan>>) -> Self {
        self.check_plan = plan;
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_clean() {
        let c = RuntimeConfig::default();
        assert!(c.detection && c.det_sync && c.vectorized);
        assert_eq!(c.layout.clock_bits(), 23);
    }

    #[test]
    fn baseline_disables_both_mechanisms() {
        let c = RuntimeConfig::baseline();
        assert!(!c.detection && !c.det_sync);
    }

    #[test]
    fn builder_chains() {
        let c = RuntimeConfig::new()
            .heap_size(4096)
            .max_threads(4)
            .vectorized(false)
            .layout(EpochLayout::wide_clock());
        assert_eq!(c.heap_size, 4096);
        assert_eq!(c.max_threads, 4);
        assert!(!c.vectorized);
        assert_eq!(c.layout.clock_bits(), 28);
    }
}
