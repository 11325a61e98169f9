// Fixture: library code of `canal_net` (the directory names the crate), the
// caller outside `wide_export.rs`'s crate that keeps `called_outside` public.

fn read() -> u64 {
    canal_sim::called_outside().0
}
