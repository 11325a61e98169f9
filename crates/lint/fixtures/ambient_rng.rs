// Fixture: ambient (unseeded) randomness and environment reads must trip the
// `ambient-rng` rule — all randomness flows through a seeded SimRng, every
// other input through parameters.
fn roll() -> u64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}

fn flip() -> bool {
    rand::random()
}

fn debug_on() -> bool {
    std::env::var("DEBUG").is_ok() || std::env::var_os("TRACE").is_some()
}
