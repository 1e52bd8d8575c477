//! The one byte scan of the text codec: the positions of the bytes a
//! predicate accepts, found 16 bytes at a time.
//!
//! Each chunk's bytes are tested together into a mask — `0xFF` in byte `k`
//! when byte `k` is a hit — by a loop of plain comparisons that LLVM turns
//! into vector compares; `trailing_zeros / 8` of the mask is the next hit.
//! A tail shorter than a chunk is tested byte by byte.
//! Every byte is read once, however many hits a chunk holds, so escaping
//! or decoding costs per hit only the work the hit itself needs.

/// Bytes tested together.
const CHUNK: usize = 16;

/// The mask of the bytes of `chunk` that `hit` accepts: `0xFF` at byte
/// `k` (little-endian) when `hit(chunk[k])`.
#[inline(always)]
fn chunk_mask(chunk: &[u8; CHUNK], hit: &impl Fn(u8) -> bool) -> u128 {
    let mut flags = [0u8; CHUNK];
    for (flag, &b) in flags.iter_mut().zip(chunk) {
        *flag = u8::from(hit(b)).wrapping_neg();
    }
    u128::from_le_bytes(flags)
}

/// The positions, in order, of the bytes of `bytes` that `hit` accepts.
/// `hit` should join plain comparisons with `|`, not `||`, so that a
/// chunk's test stays branch-free.
pub(crate) fn hits<F: Fn(u8) -> bool>(bytes: &[u8], hit: F) -> Hits<'_, F> {
    Hits {
        bytes,
        base: 0,
        next: 0,
        mask: 0,
        hit,
    }
}

/// Iterator returned by [`hits`].
pub(crate) struct Hits<'a, F> {
    bytes: &'a [u8],
    /// Offset of the chunk `mask` was taken from.
    base: usize,
    /// Offset of the first byte not yet tested.
    next: usize,
    /// The current chunk's hits not yet returned.
    mask: u128,
    hit: F,
}

impl<F: Fn(u8) -> bool> Iterator for Hits<'_, F> {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        while self.mask == 0 {
            let rest = self.bytes.get(self.next..)?;
            let Some(chunk) = rest.first_chunk::<CHUNK>() else {
                // Fewer than a chunk's bytes are left (all of most names
                // and attribute values): they are tested one by one.
                let at = self.next + rest.iter().position(|&b| (self.hit)(b))?;
                self.next = at + 1;
                return Some(at);
            };
            self.mask = chunk_mask(chunk, &self.hit);
            self.base = self.next;
            self.next += CHUNK;
        }
        let k = self.mask.trailing_zeros() / 8;
        self.mask &= !(0xFFu128 << (8 * k));
        Some(self.base + k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::hits;

    #[test]
    fn every_hit_at_every_offset_and_length_once_in_order() {
        for len in 0..=48 {
            for at in 0..len {
                for also in [None, Some(0), Some(len - 1), Some((at + 17) % len)] {
                    let mut bytes = vec![b'.'; len];
                    bytes[at] = b'#';
                    if let Some(j) = also {
                        bytes[j] = b'#';
                    }
                    let expected: Vec<usize> = (0..len).filter(|&i| bytes[i] == b'#').collect();
                    let found: Vec<usize> = hits(&bytes, |b| b == b'#').collect();
                    assert_eq!(found, expected, "len {len}, hits at {at} and {also:?}");
                }
            }
            assert_eq!(
                hits(&vec![0u8; len], |b| b == 0).count(),
                len,
                "zeros, len {len}"
            );
        }
    }
}
