//! Word operations on dense bit rows (`&[u64]`, bit `i` in word `i / 64`).
//!
//! [`crate::graph::Graph`] keeps one such row per event; the
//! well-formedness check, the linearization search and the DOT export
//! work on them a word at a time.

/// Whether bit `i` is set.
pub(crate) fn test(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1 << (i % 64)) != 0
}

/// Sets bit `i`.
pub(crate) fn set(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i`.
pub(crate) fn clear(row: &mut [u64], i: usize) {
    row[i / 64] &= !(1 << (i % 64));
}

/// Whether every bit of `a` is also set in `b` (rows of equal length).
pub(crate) fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// The set bits of `row`, ascending.
pub(crate) fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear_across_words() {
        let mut row = vec![0u64; 3];
        for i in [0, 63, 64, 130] {
            assert!(!test(&row, i));
            set(&mut row, i);
            assert!(test(&row, i));
        }
        assert_eq!(ones(&row).collect::<Vec<_>>(), vec![0, 63, 64, 130]);
        clear(&mut row, 64);
        assert_eq!(ones(&row).collect::<Vec<_>>(), vec![0, 63, 130]);
        assert_eq!(ones(&[]).count(), 0);
    }

    #[test]
    fn subset_is_wordwise_inclusion() {
        let a = [0b0101, 1 << 63];
        let b = [0b1101, 1 << 63 | 1];
        assert!(subset(&a, &b));
        assert!(!subset(&b, &a));
        assert!(subset(&a, &a));
    }
}
