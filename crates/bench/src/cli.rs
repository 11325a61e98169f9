//! Flag parsing for the `experiments` runner (std-only).

/// Remove the first `flag` from `args`; true if it was there.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|p| args.remove(p)).is_some()
}

/// Remove the first `flag` and the value after it from `args`; `None` if
/// the flag is absent. A missing or unparsable value is a usage error:
/// prints `"{flag} takes {what}"` and exits with status 2.
pub fn take_value<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str, what: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    let value = (pos < args.len()).then(|| args.remove(pos));
    let parsed = value.and_then(|v| v.parse().ok());
    if parsed.is_none() {
        eprintln!("{flag} takes {what}");
        std::process::exit(2);
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_values_are_removed_where_found() {
        let mut a = args(&["fig11", "--seed", "7", "--fast", "--json", "out.json"]);
        assert_eq!(take_value::<u64>(&mut a, "--seed", "a u64"), Some(7));
        assert_eq!(take_value::<String>(&mut a, "--json", "a path"), Some("out.json".into()));
        assert!(take_flag(&mut a, "--fast"));
        assert!(!take_flag(&mut a, "--fast"));
        assert_eq!(take_value::<u64>(&mut a, "--seed", "a u64"), None);
        assert_eq!(a, args(&["fig11"]));
    }
}
