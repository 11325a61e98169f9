// Fixture: the rollout controller's old `last_good` bug, in miniature. The fold destructures
// `Self` but hides the field its `&mut self` methods advance behind `..`,
// so rustc never asks whether `last_good` is folded: the `digest-coverage`
// rule rejects the `..` and names the hidden field.
struct MiniRollout {
    version: u64,
    last_good: u64,
}

impl MiniRollout {
    fn promote(&mut self) {
        self.version += 1;
        self.last_good = self.version;
    }

    fn fold(&self, f: &mut impl Fold) {
        // BUG (deliberate): `..` lets last_good drop out of the fold.
        let Self { version, .. } = self;
        f.write_u64(*version);
    }
}
