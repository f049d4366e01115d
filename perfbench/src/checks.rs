//! The correctness ledger: every check is one counted operation.

/// Counts checks run and failed, and reports each failure on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; `detail` is only rendered when it failed.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {name}: {}", detail());
        }
    }

    /// Records a check comparing two line lists, reporting the first
    /// differing line on failure.
    pub fn lines_equal(&mut self, name: &str, served: &[String], reference: &[String]) {
        let ok = served == reference;
        self.check(name, ok, || {
            let at = served
                .iter()
                .zip(reference)
                .position(|(a, b)| a != b)
                .unwrap_or(served.len().min(reference.len()));
            format!(
                "{} served vs {} reference lines; first difference at line {at}: {:?} vs {:?}",
                served.len(),
                reference.len(),
                served.get(at),
                reference.get(at)
            )
        });
    }
}
