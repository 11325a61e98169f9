// Fixture: the twin of `dead_export.rs`'s `reset`. Its own file calls it,
// so that call keeps both `reset`s alive; neither can be judged.

pub fn reset() -> u64 {
    23
}

fn caller() -> u64 {
    reset()
}
