// Fixture: a mutable-state struct in a digest-participating crate that is
// unreachable from every `fold(&self, f: &mut impl Fold)` must trip the
// `digest-coverage` rule — state the double-run harness cannot see can
// silently diverge between runs.
struct ShadowTracker {
    count: u64,
}

impl ShadowTracker {
    fn bump(&mut self) {
        self.count += 1;
    }

    fn count(&self) -> u64 {
        self.count
    }
}
