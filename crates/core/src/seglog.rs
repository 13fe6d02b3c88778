//! The segmented append-only log shared by the checker engine's symbol
//! tables (via [`crate::intern::Interner`]) and the `xability-store`
//! crate's event segments.
//!
//! An [`AppendLog`] grows in fixed-capacity segments. Old segments are
//! never moved or reallocated — appending allocates a fresh segment when
//! the open one fills, so a multi-million-entry log never pays the
//! reallocate-and-copy of a growing `Vec`. Segments are reference
//! counted, which makes a [`LogView`] — an immutable snapshot of the
//! first `len` entries — a handful of `Arc` clones.
//!
//! Snapshots and appends coexist without locks or interior mutability:
//! the only shared-but-still-growing segment is the open tail, and an
//! append that finds its tail aliased by a snapshot copies that one
//! segment (at most `segment_capacity` entries) once and continues in the
//! private copy. Amortized append stays O(1); a snapshot costs
//! O(#segments) pointer clones. Because a [`LogView`] owns `Arc`s to its
//! segments and never observes later appends, a view handed to another
//! thread keeps reading a stable prefix while the owner keeps appending —
//! the snapshot-while-appending guarantee the store relies on.

use std::sync::Arc;

/// An append-only log of `T`s stored in fixed-capacity segments.
#[derive(Debug, Clone)]
pub struct AppendLog<T> {
    segments: Vec<Arc<Vec<T>>>,
    len: usize,
    segment_capacity: usize,
}

impl<T: Clone> AppendLog<T> {
    /// An empty log with the given segment capacity (entries per segment).
    ///
    /// # Panics
    ///
    /// Panics if `segment_capacity` is zero.
    pub fn new(segment_capacity: usize) -> Self {
        assert!(segment_capacity > 0, "segment capacity must be positive");
        AppendLog {
            segments: Vec::new(),
            len: 0,
            segment_capacity,
        }
    }

    /// The number of entries appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entry has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one entry. Amortized O(1); never moves a closed segment.
    pub fn push(&mut self, item: T) {
        let cap = self.segment_capacity;
        let needs_segment = self.segments.last().map_or(true, |seg| seg.len() == cap);
        if needs_segment {
            self.segments.push(Arc::new(Vec::with_capacity(cap)));
        }
        let tail = self.segments.last_mut().expect("just ensured");
        if let Some(vec) = Arc::get_mut(tail) {
            vec.push(item);
        } else {
            // A snapshot still references the open tail: copy it once
            // (bounded by the segment capacity) and append privately.
            let mut copy = Vec::with_capacity(cap);
            copy.extend(tail.iter().cloned());
            copy.push(item);
            *tail = Arc::new(copy);
        }
        self.len += 1;
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        assert!(index < self.len, "AppendLog index {index} out of bounds");
        &self.segments[index / self.segment_capacity][index % self.segment_capacity]
    }

    /// An immutable snapshot of the current contents: O(#segments) `Arc`
    /// clones, no entry is copied.
    pub fn snapshot(&self) -> LogView<T> {
        LogView {
            segments: self.segments.clone(),
            len: self.len,
            segment_capacity: self.segment_capacity,
        }
    }

    /// Heap bytes held by the segments (capacity-based, excluding any
    /// per-entry heap allocations behind `T`).
    pub fn segment_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|seg| seg.capacity() * std::mem::size_of::<T>())
            .sum()
    }
}

/// An immutable snapshot of the first `len` entries of an [`AppendLog`].
///
/// Cloning is O(#segments); the entries themselves are shared with the
/// live log (and with every other view).
#[derive(Debug, Clone)]
pub struct LogView<T> {
    segments: Vec<Arc<Vec<T>>>,
    len: usize,
    segment_capacity: usize,
}

impl<T> LogView<T> {
    /// The number of entries in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> &T {
        assert!(index < self.len, "LogView index {index} out of bounds");
        &self.segments[index / self.segment_capacity][index % self.segment_capacity]
    }

    /// Iterates the snapshot's entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_across_segments() {
        let mut log = AppendLog::new(4);
        for i in 0..11usize {
            log.push(i);
        }
        assert_eq!(log.len(), 11);
        assert!(!log.is_empty());
        for i in 0..11usize {
            assert_eq!(*log.get(i), i);
        }
    }

    #[test]
    fn snapshot_is_immutable_under_later_appends() {
        let mut log = AppendLog::new(4);
        for i in 0..6usize {
            log.push(i);
        }
        let snap = log.snapshot();
        for i in 6..20usize {
            log.push(i);
        }
        assert_eq!(snap.len(), 6);
        assert_eq!(
            snap.iter().copied().collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        // The live log has everything.
        assert_eq!(*log.get(19), 19);
    }

    #[test]
    fn aliased_open_segment_is_copied_once_on_append() {
        let mut log = AppendLog::new(8);
        log.push(1u32);
        let snap = log.snapshot(); // aliases the open segment
        log.push(2); // forces the copy-on-write
        log.push(3); // appends privately, no further copy observable
        assert_eq!(snap.len(), 1);
        assert_eq!(*snap.get(0), 1);
        assert_eq!(
            (0..log.len()).map(|i| *log.get(i)).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_get_respects_snapshot_length() {
        let mut log = AppendLog::new(4);
        log.push(1u32);
        log.push(2);
        let snap = log.snapshot();
        log.push(3);
        // Index 2 exists in the live log but not in the snapshot.
        let _ = snap.get(2);
    }

    #[test]
    fn segment_bytes_counts_capacity() {
        let mut log: AppendLog<u64> = AppendLog::new(4);
        log.push(1);
        assert_eq!(log.segment_bytes(), 4 * 8);
    }

    #[test]
    fn snapshot_reads_concurrently_with_appends() {
        // The snapshot-while-appending guarantee, cross-thread: a view
        // handed to another thread keeps reading its stable prefix while
        // the owner appends past it.
        let mut log = AppendLog::new(16);
        for i in 0..40u64 {
            log.push(i);
        }
        let snap = log.snapshot();
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || (0..snap.len()).map(|i| *snap.get(i)).sum::<u64>());
            for i in 40..400u64 {
                log.push(i);
            }
            assert_eq!(reader.join().expect("reader thread"), (0..40).sum::<u64>());
        });
        assert_eq!(log.len(), 400);
    }
}
