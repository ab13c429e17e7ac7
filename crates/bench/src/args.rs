//! Minimal flag parsing (no external dependencies): `--key value` pairs
//! plus positional arguments. Every binary in the workspace parses its
//! command line through this module and names the flags it accepts, so
//! a misspelled flag is an error rather than a silently applied default.

use std::collections::HashMap;

/// Parsed command-line arguments: flags and positionals.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// A parse failure with a user-facing message.
#[derive(Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The message itself: what a `main` returning `Result<_, ArgError>`
/// prints after `Error: `.
impl std::fmt::Debug for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw arguments. `--flag value` sets a flag; `--flag` at the
    /// end of input or followed by another flag is a boolean (value
    /// "true"); anything else is positional.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let raw: Vec<String> = raw.into_iter().collect();
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                if name.is_empty() {
                    return Err(ArgError("empty flag name '--'".into()));
                }
                let value = raw.get(i + 1);
                match value {
                    Some(v) if !v.starts_with("--") => {
                        out.flags.insert(name.to_string(), v.clone());
                        i += 2;
                    }
                    _ => {
                        out.flags.insert(name.to_string(), "true".to_string());
                        i += 1;
                    }
                }
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// Reject every flag not in `known` (names without the `--`).
    pub fn expect_only(&self, known: &[&str]) -> Result<(), ArgError> {
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|name| !known.contains(name))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(name) => Err(ArgError(format!(
                "unknown flag --{name}; known flags: --{}",
                known.join(" --")
            ))),
        }
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["cmd", "--size", "100", "file.txt", "--quick"]);
        assert_eq!(a.positional(), &["cmd".to_string(), "file.txt".to_string()]);
        assert_eq!(a.get("size"), Some("100"));
        assert!(a.has("quick"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn get_or_parses_with_default() {
        let a = parse(&["--n", "42"]);
        assert_eq!(a.get_or("n", 0usize).unwrap(), 42);
        assert_eq!(a.get_or("m", 7usize).unwrap(), 7);
        assert!(a.get_or("n", 0.5f64).is_ok());
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = parse(&["--n", "not-a-number"]);
        assert!(a.get_or("n", 0usize).is_err());
    }

    #[test]
    fn flag_before_flag_is_boolean() {
        let a = parse(&["--quick", "--n", "3"]);
        assert!(a.has("quick"));
        assert_eq!(a.get_or("n", 0usize).unwrap(), 3);
    }

    #[test]
    fn expect_only_names_the_unknown_flag() {
        let a = parse(&["--quick", "--workrs", "1"]);
        assert!(a.expect_only(&["quick", "workrs"]).is_ok());
        let err = a.expect_only(&["quick", "workers"]).unwrap_err();
        assert!(err.0.contains("--workrs"), "{err}");
        assert!(parse(&["positional"]).expect_only(&[]).is_ok());
    }

    #[test]
    fn empty_flag_rejected() {
        assert!(Args::parse(["--".to_string()]).is_err());
    }
}
