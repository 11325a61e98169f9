// Fixture: a field that only `fn fold` bodies read must trip the `fold-only`
// rule. rustc counts the fold's read as a use, so such a field moves every
// digest and no behaviour.
struct Ledger {
    // Fires: `record` writes it and only the fold reads it.
    last_amount: u64,
    // Clean: the fold hands it to a `count` leaf, which `Stats` readers see.
    entries: u64,
    // Clean: `balance` reads it as well as the fold.
    total: u64,
}

impl Ledger {
    fn record(&mut self, amount: u64) {
        self.last_amount = amount;
        self.entries += 1;
        self.total += amount;
    }

    fn balance(&self) -> u64 {
        self.total
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { last_amount, entries, total } = self;
        f.write_u64(*last_amount).write_u64(*total).count("entries", *entries);
    }
}
