//! A strict reader for the compact record codecs (`p1`, `r1`, `h1` and
//! `farm-core`'s `mc1`).
//!
//! Those records come back from files another process wrote, possibly
//! one that was killed mid-write, so a parser must accept exactly what
//! the encoder writes and nothing else: the tag, then every field once,
//! in the encoder's order, integers in canonical decimal (no sign, no
//! leading zero) and floats as exactly 16 lowercase hex digits of their
//! bit pattern. Every error names the field it stopped at.

/// Reads `tag<sep>key=value<sep>key=value…` one expected field at a time.
pub struct Fields<'a> {
    tag: &'a str,
    parts: std::str::Split<'a, char>,
}

impl<'a> Fields<'a> {
    /// Start reading `s`, which must begin with the field `tag`.
    pub fn new(s: &'a str, sep: char, tag: &'a str) -> Result<Self, String> {
        let mut parts = s.split(sep);
        match parts.next() {
            Some(t) if t == tag => Ok(Fields { tag, parts }),
            _ => Err(format!("not a {tag} record")),
        }
    }

    /// The raw value of the next field, which must be `key`.
    pub fn raw(&mut self, key: &str) -> Result<&'a str, String> {
        let tag = self.tag;
        let part = self
            .parts
            .next()
            .ok_or_else(|| format!("{tag}: missing field {key}"))?;
        part.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| format!("{tag}: expected field {key}, found {:?}", head(part)))
    }

    /// The next field, `key`, as a canonical decimal integer.
    pub fn uint(&mut self, key: &str) -> Result<u64, String> {
        let v = self.raw(key)?;
        parse_uint(v).ok_or_else(|| format!("{}: field {key}: bad integer {:?}", self.tag, head(v)))
    }

    /// The next field, `key`, as an `f64` bit pattern in 16 hex digits.
    pub fn hex_f64(&mut self, key: &str) -> Result<f64, String> {
        let v = self.raw(key)?;
        parse_hex_f64(v)
            .ok_or_else(|| format!("{}: field {key}: bad float bits {:?}", self.tag, head(v)))
    }

    /// Require that every field has been read.
    pub fn end(mut self) -> Result<(), String> {
        match self.parts.next() {
            None => Ok(()),
            Some(extra) => Err(format!("{}: unexpected field {:?}", self.tag, head(extra))),
        }
    }
}

/// A canonical decimal `u64`: ASCII digits only, no leading zero
/// (except `0` itself), no overflow.
pub fn parse_uint(v: &str) -> Option<u64> {
    let canonical =
        !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) && (v == "0" || !v.starts_with('0'));
    canonical.then(|| v.parse().ok()).flatten()
}

/// An `f64` written as its bit pattern in exactly 16 lowercase hex digits.
fn parse_hex_f64(v: &str) -> Option<f64> {
    let canonical = v.len() == 16 && v.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(v, 16).ok().map(f64::from_bits))?
}

/// The first few characters of `s`, for an error message.
fn head(s: &str) -> &str {
    s.char_indices().nth(24).map_or(s, |(i, _)| &s[..i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_and_floats_must_be_canonical() {
        assert_eq!(parse_uint("0"), Some(0));
        assert_eq!(parse_uint("120"), Some(120));
        for bad in ["", "+1", "-1", "01", "1 ", "0x1", "18446744073709551616"] {
            assert_eq!(parse_uint(bad), None, "{bad:?}");
        }
        let one = format!("{:016x}", 1.0f64.to_bits());
        assert_eq!(parse_hex_f64(&one), Some(1.0));
        for bad in [
            "3ff",
            "3FF0000000000000",
            "+3ff000000000000",
            "3ff00000000000000",
        ] {
            assert_eq!(parse_hex_f64(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn fields_come_in_order_exactly_once() {
        let mut f = Fields::new("t1;a=1;b=2", ';', "t1").unwrap();
        assert_eq!(f.uint("a"), Ok(1));
        assert_eq!(f.uint("b"), Ok(2));
        assert!(f.end().is_ok());
        let mut f = Fields::new("t1;b=2;a=1", ';', "t1").unwrap();
        assert!(f.uint("a").unwrap_err().contains("expected field a"));
        let mut f = Fields::new("t1;a=1;a=1", ';', "t1").unwrap();
        f.uint("a").unwrap();
        assert!(f.end().unwrap_err().contains("unexpected field"));
        assert!(Fields::new("t2;a=1", ';', "t1").is_err());
    }
}
