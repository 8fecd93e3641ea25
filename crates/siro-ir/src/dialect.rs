//! Dialect-qualified version identity.
//!
//! The repo grew up with a single IR family, so "a version" and "a node in
//! the version graph" were the same thing: an [`IrVersion`]. With a second
//! dialect (the stack-machine WIR family in `siro-wir`) that identity is no
//! longer flat — `1.0` means something different in each family. A
//! [`DialectVersion`] is the `(dialect, version)` pair that routers, stores
//! and serve frames use whenever more than one family can be in play.
//!
//! Display is deliberately asymmetric: Siro versions keep printing as bare
//! `13.0` so every pre-dialect artifact — trace span details like
//! `13.0->3.6`, chain persist keys like `c13.0-t3.6-…`, store file names —
//! keeps its exact byte format. WIR versions print as `wir1.0` (no
//! separator, filename-safe). Parsing accepts both that compact form and an
//! explicit `wir:1.0` / `siro:13.0` qualified form.

use std::fmt;
use std::str::FromStr;

use crate::version::IrVersion;

/// An IR family understood by the toolchain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dialect {
    /// The register/SSA family defined by this crate ([`IrVersion`]).
    Siro,
    /// The stack-machine family defined by `siro-wir`.
    Wir,
}

impl Dialect {
    /// Short lowercase name, as used in qualified version strings.
    pub const fn name(self) -> &'static str {
        match self {
            Dialect::Siro => "siro",
            Dialect::Wir => "wir",
        }
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A version qualified by the dialect it belongs to.
///
/// Ordering sorts Siro versions before WIR versions and by `(major, minor)`
/// within a dialect, which keeps router tie-breaking deterministic.
///
/// # Examples
///
/// ```
/// use siro_ir::{Dialect, DialectVersion, IrVersion};
///
/// let s: DialectVersion = IrVersion::V13_0.into();
/// assert_eq!(s.to_string(), "13.0");
/// let w = DialectVersion::wir(1, 0);
/// assert_eq!(w.to_string(), "wir1.0");
/// assert_eq!("wir1.0".parse::<DialectVersion>().unwrap(), w);
/// assert_eq!("wir:1.0".parse::<DialectVersion>().unwrap(), w);
/// assert_eq!("13.0".parse::<DialectVersion>().unwrap(), s);
/// assert_eq!(s.as_siro(), Some(IrVersion::V13_0));
/// assert_eq!(w.as_siro(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DialectVersion {
    /// Which family the version numbers belong to.
    pub dialect: Dialect,
    /// Major component.
    pub major: u16,
    /// Minor component.
    pub minor: u16,
}

impl DialectVersion {
    /// A Siro-family version.
    pub const fn siro(major: u16, minor: u16) -> Self {
        DialectVersion {
            dialect: Dialect::Siro,
            major,
            minor,
        }
    }

    /// A WIR-family version.
    pub const fn wir(major: u16, minor: u16) -> Self {
        DialectVersion {
            dialect: Dialect::Wir,
            major,
            minor,
        }
    }

    /// The [`IrVersion`] this names, if it is a Siro-family version.
    pub fn as_siro(self) -> Option<IrVersion> {
        match self.dialect {
            Dialect::Siro => Some(IrVersion::new(self.major, self.minor)),
            Dialect::Wir => None,
        }
    }
}

impl From<IrVersion> for DialectVersion {
    fn from(v: IrVersion) -> Self {
        DialectVersion::siro(v.major(), v.minor())
    }
}

impl fmt::Display for DialectVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dialect {
            Dialect::Siro => write!(f, "{}.{}", self.major, self.minor),
            Dialect::Wir => write!(f, "wir{}.{}", self.major, self.minor),
        }
    }
}

/// Error parsing a [`DialectVersion`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDialectVersionError(String);

impl fmt::Display for ParseDialectVersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid dialect version `{}`", self.0)
    }
}

impl std::error::Error for ParseDialectVersionError {}

fn parse_numbers(s: &str) -> Option<(u16, u16)> {
    let (major, minor) = s.split_once('.')?;
    Some((major.parse().ok()?, minor.parse().ok()?))
}

impl FromStr for DialectVersion {
    type Err = ParseDialectVersionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDialectVersionError(s.to_string());
        let (dialect, rest) =
            if let Some(rest) = s.strip_prefix("wir:").or_else(|| s.strip_prefix("wir")) {
                (Dialect::Wir, rest)
            } else if let Some(rest) = s.strip_prefix("siro:") {
                (Dialect::Siro, rest)
            } else {
                (Dialect::Siro, s)
            };
        let (major, minor) = parse_numbers(rest).ok_or_else(err)?;
        Ok(DialectVersion {
            dialect,
            major,
            minor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siro_display_is_byte_compatible_with_ir_version() {
        for v in IrVersion::CATALOG {
            let d: DialectVersion = v.into();
            assert_eq!(d.to_string(), v.to_string());
            assert_eq!(d.as_siro(), Some(v));
        }
    }

    #[test]
    fn wir_display_round_trips() {
        for (major, minor) in [(1, 0), (2, 0), (3, 0)] {
            let w = DialectVersion::wir(major, minor);
            assert_eq!(w.to_string().parse::<DialectVersion>().unwrap(), w);
        }
    }

    #[test]
    fn qualified_forms_parse() {
        assert_eq!(
            "siro:13.0".parse::<DialectVersion>().unwrap(),
            DialectVersion::siro(13, 0)
        );
        assert_eq!(
            "wir:2.0".parse::<DialectVersion>().unwrap(),
            DialectVersion::wir(2, 0)
        );
        assert!("wir".parse::<DialectVersion>().is_err());
        assert!("bogus:1.0".parse::<DialectVersion>().is_err());
        assert!("1".parse::<DialectVersion>().is_err());
    }

    #[test]
    fn ordering_groups_by_dialect_then_version() {
        let mut vs = vec![
            DialectVersion::wir(1, 0),
            DialectVersion::siro(13, 0),
            DialectVersion::wir(3, 0),
            DialectVersion::siro(3, 6),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                DialectVersion::siro(3, 6),
                DialectVersion::siro(13, 0),
                DialectVersion::wir(1, 0),
                DialectVersion::wir(3, 0),
            ]
        );
    }
}
