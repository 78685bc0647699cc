//! Minimal `--flag value` argument parsing (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed flags: `--key value` pairs plus bare boolean switches.
///
/// Every [`Flags::get`] and [`Flags::has`] records the key it asked for, so
/// once a subcommand has read all of its flags, [`Flags::finish`] rejects
/// any flag the command line gave that nothing read — a typo such as
/// `--shard-workrs`, or a flag the chosen mode does not take.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
    read: RefCell<BTreeSet<String>>,
}

impl Flags {
    /// Parses everything after the subcommand. Flags look like `--key value`;
    /// a flag followed by another flag (or end of input) is a boolean switch.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut k = 0;
        while k < args.len() {
            let arg = &args[k];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}` (flags start with --)"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            let next_is_value = args
                .get(k + 1)
                .map(|n| !n.starts_with("--"))
                .unwrap_or(false);
            if next_is_value {
                flags.values.insert(key.to_string(), args[k + 1].clone());
                k += 2;
            } else {
                flags.switches.push(key.to_string());
                k += 1;
            }
        }
        Ok(flags)
    }

    /// A numeric or string value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.note(key);
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --{key}")),
        }
    }

    /// `true` if the boolean switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.note(key);
        self.switches.iter().any(|s| s == key)
    }

    /// Call once a subcommand has read every flag it takes: `Err` names
    /// each given flag that no [`Flags::get`]/[`Flags::has`] asked for
    /// (unknown to the command, or unused in the chosen mode), in
    /// alphabetical order.
    pub fn finish(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let unread: BTreeSet<&str> = self
            .values
            .keys()
            .chain(self.switches.iter())
            .map(String::as_str)
            .filter(|key| !read.contains(*key))
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        let named: Vec<String> = unread.iter().map(|key| format!("--{key}")).collect();
        Err(format!(
            "unknown or unused flag{} {}",
            if named.len() == 1 { "" } else { "s" },
            named.join(", ")
        ))
    }

    fn note(&self, key: &str) {
        let mut read = self.read.borrow_mut();
        if !read.contains(key) {
            read.insert(key.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = Flags::parse(&argv("--n 8 --watch --rounds 100")).unwrap();
        assert_eq!(f.get("n", 0u16).unwrap(), 8);
        assert_eq!(f.get("rounds", 0u64).unwrap(), 100);
        assert!(f.has("watch"));
        assert!(!f.has("quiet"));
        assert_eq!(f.get("missing", 42u32).unwrap(), 42);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Flags::parse(&argv("positional")).is_err());
        assert!(Flags::parse(&argv("--")).is_err());
        let f = Flags::parse(&argv("--n eight")).unwrap();
        assert!(f.get("n", 0u16).is_err());
    }

    #[test]
    fn finish_names_every_flag_nothing_read() {
        let f = Flags::parse(&argv("--n 6 --shard-workrs 4 --quiet")).unwrap();
        assert_eq!(f.get("n", 0u16).unwrap(), 6);
        assert_eq!(f.get("shard-workers", 1usize).unwrap(), 1);
        let err = f.finish().unwrap_err();
        assert_eq!(err, "unknown or unused flags --quiet, --shard-workrs");
        // Reading the typo'd key by its own name settles it.
        assert_eq!(f.get("shard-workrs", 0usize).unwrap(), 4);
        assert!(f.has("quiet"));
        assert_eq!(f.finish(), Ok(()));
    }
}
