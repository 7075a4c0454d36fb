//! The command-line flag reader shared by the `vfps` and `vfps-router`
//! binaries.

use std::fmt::Display;
use std::str::FromStr;

/// Walks a command line token by token and reads the value that follows
/// a flag. Every error names the flag it is about.
///
/// ```
/// let argv: Vec<String> = ["--seed", "7", "--once"].map(String::from).into();
/// let mut flags = vfps_serve::Flags::new(&argv);
/// let (mut seed, mut once) = (0u64, false);
/// while let Some(flag) = flags.next() {
///     match flag {
///         "--seed" => seed = flags.parse(flag).unwrap(),
///         "--once" => once = true,
///         other => panic!("unknown argument {other}"),
///     }
/// }
/// assert_eq!((seed, once), (7, true));
/// ```
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// A reader over `args` (the command line without the program name).
    #[must_use]
    pub fn new(args: &'a [String]) -> Self {
        Flags { args: args.iter() }
    }

    /// The token after `flag`.
    ///
    /// # Errors
    /// `"<flag> needs a value"` when the command line ends first.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().map(str::to_owned).ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The token after `flag`, parsed as a `T`.
    ///
    /// # Errors
    /// The [`Flags::value`] error, or `"bad <flag> <value>: <reason>"`
    /// when the token does not parse.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.value(flag)?;
        v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| (*t).to_owned()).collect()
    }

    #[test]
    fn errors_name_the_flag() {
        let args = argv(&["--k", "ten", "--seed"]);
        let mut flags = Flags::new(&args);
        assert_eq!(flags.next(), Some("--k"));
        let err = flags.parse::<usize>("--k").unwrap_err();
        assert!(err.starts_with("bad --k \"ten\": "), "{err}");
        assert_eq!(flags.next(), Some("--seed"));
        assert_eq!(flags.value("--seed").unwrap_err(), "--seed needs a value");
        assert_eq!(flags.next(), None);
    }
}
