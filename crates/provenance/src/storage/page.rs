//! Slotted-page layout: variable-length records inside a fixed-size page.
//!
//! ```text
//! page  := u16:nslots u16:free_end slot* ...gap... data
//! slot  := u16:off u16:len          (off == 0 && len == 0 → dead slot)
//! ```
//!
//! The slot directory grows forward from the header; record data grows
//! backward from the end of the page (`free_end` is the first byte *past*
//! the free gap). Deleting a record tombstones its slot; the data bytes are
//! not reclaimed (heap tables here are append-mostly — see DESIGN.md §15).

/// Fixed page size for the paged storage layer, in bytes.
pub const PAGE_SIZE: usize = 8192;

const HDR: usize = 4;
const SLOT: usize = 4;

fn nslots(page: &[u8]) -> usize {
    u16::from_le_bytes([page[0], page[1]]) as usize
}

fn free_end(page: &[u8]) -> usize {
    u16::from_le_bytes([page[2], page[3]]) as usize
}

fn set_nslots(page: &mut [u8], n: usize) {
    page[..2].copy_from_slice(&(n as u16).to_le_bytes());
}

fn set_free_end(page: &mut [u8], e: usize) {
    page[2..4].copy_from_slice(&(e as u16).to_le_bytes());
}

fn slot(page: &[u8], i: usize) -> (usize, usize) {
    let base = HDR + i * SLOT;
    let off = u16::from_le_bytes([page[base], page[base + 1]]) as usize;
    let len = u16::from_le_bytes([page[base + 2], page[base + 3]]) as usize;
    (off, len)
}

fn set_slot(page: &mut [u8], i: usize, off: usize, len: usize) {
    let base = HDR + i * SLOT;
    page[base..base + 2].copy_from_slice(&(off as u16).to_le_bytes());
    page[base + 2..base + 4].copy_from_slice(&(len as u16).to_le_bytes());
}

/// Initialize an empty slotted page in `page` (must be `PAGE_SIZE` bytes).
pub fn init(page: &mut [u8]) {
    debug_assert_eq!(page.len(), PAGE_SIZE);
    set_nslots(page, 0);
    set_free_end(page, PAGE_SIZE);
}

/// Free bytes available for one more record of length `len` (slot included).
fn fits(page: &[u8], len: usize) -> bool {
    let used_front = HDR + nslots(page) * SLOT;
    free_end(page) >= used_front + SLOT + len
}

/// Append a record; returns its slot number, or `None` when it doesn't fit.
pub fn insert(page: &mut [u8], bytes: &[u8]) -> Option<u16> {
    if bytes.len() >= u16::MAX as usize || !fits(page, bytes.len()) {
        return None;
    }
    let n = nslots(page);
    let off = free_end(page) - bytes.len();
    page[off..off + bytes.len()].copy_from_slice(bytes);
    set_slot(page, n, off, bytes.len());
    set_nslots(page, n + 1);
    set_free_end(page, off);
    Some(n as u16)
}

/// Read the record in `slot_no` (`None` for dead or out-of-range slots).
pub fn get(page: &[u8], slot_no: u16) -> Option<&[u8]> {
    let i = slot_no as usize;
    if i >= nslots(page) {
        return None;
    }
    let (off, len) = slot(page, i);
    if off == 0 && len == 0 {
        return None; // tombstone
    }
    Some(&page[off..off + len])
}

/// Overwrite the record in place if the new bytes fit in its current slot
/// allocation; returns false when they don't (caller must relocate).
pub fn update_in_place(page: &mut [u8], slot_no: u16, bytes: &[u8]) -> bool {
    let i = slot_no as usize;
    if i >= nslots(page) {
        return false;
    }
    let (off, len) = slot(page, i);
    if (off == 0 && len == 0) || bytes.len() > len {
        return false;
    }
    page[off..off + bytes.len()].copy_from_slice(bytes);
    set_slot(page, i, off, bytes.len());
    true
}

/// Tombstone a slot. The record bytes are not reclaimed.
pub fn delete(page: &mut [u8], slot_no: u16) {
    let i = slot_no as usize;
    if i < nslots(page) {
        set_slot(page, i, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        init(&mut p);
        p
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = page();
        let a = insert(&mut p, b"hello").unwrap();
        let b = insert(&mut p, b"").unwrap();
        let c = insert(&mut p, &[7u8; 100]).unwrap();
        assert_eq!(get(&p, a), Some(&b"hello"[..]));
        assert_eq!(get(&p, b), Some(&b""[..]));
        assert_eq!(get(&p, c), Some(&[7u8; 100][..]));
        assert_eq!(get(&p, 99), None);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = page();
        let rec = [1u8; 128];
        let mut n = 0;
        while insert(&mut p, &rec).is_some() {
            n += 1;
        }
        // 8192 / (128 + 4) ≈ 62 records fit
        assert!(n >= 60, "only {n} records fit");
        assert!(!fits(&p, 128));
        // fits() and insert() agree on whatever space remains
        let tiny_fits = fits(&p, 1);
        assert_eq!(insert(&mut p, &[9u8]).is_some(), tiny_fits);
    }

    #[test]
    fn delete_tombstones() {
        let mut p = page();
        let a = insert(&mut p, b"abc").unwrap();
        let b = insert(&mut p, b"def").unwrap();
        delete(&mut p, a);
        assert_eq!(get(&p, a), None);
        assert_eq!(get(&p, b), Some(&b"def"[..]));
    }

    #[test]
    fn update_in_place_respects_capacity() {
        let mut p = page();
        let a = insert(&mut p, b"12345").unwrap();
        assert!(update_in_place(&mut p, a, b"abc"));
        assert_eq!(get(&p, a), Some(&b"abc"[..]));
        assert!(!update_in_place(&mut p, a, b"123456"), "larger than slot");
        assert_eq!(get(&p, a), Some(&b"abc"[..]));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = page();
        assert!(insert(&mut p, &vec![0u8; PAGE_SIZE]).is_none());
    }
}
