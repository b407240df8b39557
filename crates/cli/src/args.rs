//! A tiny zero-dependency flag parser.
//!
//! The approved offline dependency set has no CLI crate, and the
//! toolkit's needs are modest: `--key value` pairs, boolean `--flag`s,
//! one positional subcommand and its operands.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ArgError {}

/// Parsed command line: one subcommand plus `--key value` / `--flag`
/// options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    subcommand: Option<String>,
    positionals: Vec<String>,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments (without the program name). Options begin
    /// with `--`; an option followed by another option or nothing is a
    /// boolean flag.
    ///
    /// # Errors
    ///
    /// Rejects more than one positional argument after any subcommand
    /// but `reproduce` (subcommands that take no positional reject the
    /// first one themselves, so the error message stays the same).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let is_value = iter.peek().map(|n| !n.starts_with("--")).unwrap_or(false);
                if is_value {
                    let v = iter.next().expect("peeked");
                    args.values.insert(key.to_string(), v);
                } else {
                    args.flags.push(key.to_string());
                }
            } else if args.subcommand.is_none() {
                args.subcommand = Some(tok);
            } else if args.positionals.is_empty() || args.subcommand() == Some("reproduce") {
                args.positionals.push(tok);
            } else {
                return Err(ArgError(format!("unexpected positional argument {tok:?}")));
            }
        }
        Ok(args)
    }

    /// The subcommand, if any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// The first positional argument after the subcommand, if any
    /// (`natoms trace <file>` takes one, `natoms reproduce` a list of
    /// figure names; every other subcommand rejects it).
    pub fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// Every positional argument after the subcommand, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// `true` if the boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A parsed numeric/typed option with a default.
    ///
    /// # Errors
    ///
    /// Reports the offending key and value on parse failure.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value {v:?} for --{key}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse(&[
            "compile",
            "--benchmark",
            "qaoa",
            "--size",
            "30",
            "--timeline",
        ]);
        assert_eq!(a.subcommand(), Some("compile"));
        assert_eq!(a.get("benchmark"), Some("qaoa"));
        assert_eq!(a.parse_or("size", 0u32).unwrap(), 30);
        assert!(a.flag("timeline"));
        assert!(!a.flag("qasm"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["sweep"]);
        assert_eq!(a.get_or("benchmark", "bv"), "bv");
        assert_eq!(a.parse_or("mid", 3.0f64).unwrap(), 3.0);
    }

    #[test]
    fn negative_numbers_are_values() {
        let a = parse(&["x", "--offset", "-3"]);
        assert_eq!(a.parse_or("offset", 0i32).unwrap(), -3);
    }

    #[test]
    fn one_trailing_positional_is_kept() {
        let a = parse(&["trace", "t.json"]);
        assert_eq!(a.subcommand(), Some("trace"));
        assert_eq!(a.positional(), Some("t.json"));
    }

    #[test]
    fn reproduce_takes_a_list_of_names() {
        let a = parse(&["reproduce", "fig03", "fig04", "--workers", "2", "fig05"]);
        assert_eq!(a.positionals(), ["fig03", "fig04", "fig05"]);
        assert_eq!(a.get("workers"), Some("2"));
        assert!(parse(&["reproduce"]).positionals().is_empty());
    }

    #[test]
    fn stray_positionals_rejected() {
        let err = Args::parse(["a".to_string(), "b".to_string(), "c".to_string()]).unwrap_err();
        assert!(err.to_string().contains("unexpected"));
    }

    #[test]
    fn bad_numeric_value_reports_key() {
        let a = parse(&["x", "--size", "many"]);
        let err = a.parse_or("size", 1u32).unwrap_err();
        assert!(err.to_string().contains("--size"));
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = parse(&["run", "--verbose"]);
        assert!(a.flag("verbose"));
    }
}
