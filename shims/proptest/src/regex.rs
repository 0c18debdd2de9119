//! String generation for the one regex shape the workspace's suites use:
//! `.{m,n}`, between `m` and `n` characters drawn like `.`. Any other
//! pattern is a hard error, so a suite that starts using more fails
//! loudly instead of silently generating the wrong language.

use crate::test_runner::TestRng;
use rand::RngExt;

/// Characters `.` draws from: mostly printable ASCII, with a tail of
/// whitespace/unicode so totality properties see multi-byte input.
fn dot_char(rng: &mut TestRng) -> char {
    const EXOTIC: &[char] = &['\t', '\n', 'é', 'λ', '中', '🦀'];
    if rng.random_range(0usize..8) == 0 {
        EXOTIC[rng.random_range(0..EXOTIC.len())]
    } else {
        char::from(rng.random_range(0x20u32..0x7F) as u8)
    }
}

/// `(m, n)` of a `.{m,n}` pattern with `m ≤ n`.
fn bounds(pattern: &str) -> Option<(usize, usize)> {
    let spec = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (m, n) = spec.split_once(',')?;
    let (m, n) = (m.parse().ok()?, n.parse().ok()?);
    (m <= n).then_some((m, n))
}

/// Generate one string matching `pattern`.
pub fn generate(pattern: &str, rng: &mut TestRng) -> Result<String, String> {
    let (min, max) = bounds(pattern).ok_or_else(|| {
        format!("pattern {pattern:?} unsupported by the offline proptest shim (only `.{{m,n}}`)")
    })?;
    let len = rng.random_range(min..=max);
    Ok((0..len).map(|_| dot_char(rng)).collect())
}

#[cfg(test)]
mod tests {
    use super::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dot_quantified_stays_in_bounds_and_mixes_its_characters() {
        let mut rng = StdRng::seed_from_u64(10);
        let (mut ascii, mut exotic) = (false, false);
        for _ in 0..200 {
            let s = generate(".{0,200}", &mut rng).unwrap();
            assert!(s.chars().count() <= 200);
            ascii |= s.chars().any(|c| c.is_ascii_graphic());
            exotic |= s
                .chars()
                .any(|c| !c.is_ascii() || c.is_ascii_whitespace() && c != ' ');
        }
        assert!(ascii && exotic);
        let s = generate(".{3,3}", &mut rng).unwrap();
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn unsupported_patterns_error() {
        let mut rng = StdRng::seed_from_u64(11);
        for pattern in [
            "(a|b)",
            "[^a]",
            "[a-c]",
            "a",
            ".{3,1}",
            ".{2}",
            ".*",
            ".{0,200}x",
        ] {
            assert!(generate(pattern, &mut rng).is_err(), "{pattern}");
        }
    }
}
