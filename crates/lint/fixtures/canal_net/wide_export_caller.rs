// Fixture: library code of `canal_net` (the directory names the crate), the
// caller outside `wide_export.rs`'s crate that keeps `called_outside`,
// `gauge` with `Gauge::shown`, and every field of `Knobs` public.

fn read() -> u64 {
    canal_sim::called_outside().0 + canal_sim::gauge().shown
}

fn knobs() -> canal_sim::Knobs {
    canal_sim::Knobs { width: 41, ..Default::default() }
}
