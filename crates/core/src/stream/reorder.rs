//! The bounded-lookahead reorder stage and its pass-2 replay.
//!
//! A windowed run cannot apply a global ordering — the whole set is
//! never resident. [`ReorderStage`] sits between the windowed reader
//! and the analyzer and holds a **ring** of up to `band` windows of
//! cubes; each time the pipeline asks for the next window, the ring is
//! topped up from the reader, re-ordered by a
//! [`BandedOrdering`](crate::ordering::BandedOrdering) (seeded with the
//! last *forwarded* cube and the analyzer's warm lower bound), and the
//! best prefix is frozen out. The permutation actually forwarded is
//! recorded so the second pass can replay it.
//!
//! Two properties matter:
//!
//! * **Bounded displacement.** A cube is only forwarded after it is
//!   read, and the stage reads just enough to keep the ring full, so
//!   output position `p` always names an original index `< p + ring
//!   capacity`. That bound is what makes the pass-2
//!   [`ReplayStream`] resident set small: it re-reads the input in
//!   arrival order and buffers at most a ring's worth of cubes while
//!   emitting in recorded order.
//! * **Whole-set exactness.** If the ring swallows the entire input
//!   before the first window is frozen (band × window ≥ cubes), the
//!   banded orderings delegate to their global counterparts and the
//!   ring is never re-ordered after EOF — the recorded permutation is
//!   *exactly* the monolithic ordering, so the emitted bytes match the
//!   monolithic ordered run.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Read;

use dpfill_cubes::format::PatternStream;
use dpfill_cubes::packed::{PackedBits, PackedCubeSet};
use dpfill_cubes::CubeSet;

use crate::ordering::{BandContext, BandedMethod, OrderingError};

use super::budget::bytes_per_cube;
use super::{contain, StreamError, ZeroFillPeak};

/// A banded streaming ordering: which method, and how many windows the
/// ring holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BandedOrder {
    /// The in-ring ordering.
    pub method: BandedMethod,
    /// Ring size in windows (≥ 1); the ring holds `band × window`
    /// cubes. Wider bands see further ahead (better orderings, more
    /// resident memory).
    pub band: usize,
}

impl BandedOrder {
    /// A banded order with the default two-window lookahead.
    pub fn new(method: BandedMethod) -> BandedOrder {
        BandedOrder { method, band: 2 }
    }

    /// Sets the band width (floored at one window).
    pub fn with_band(method: BandedMethod, band: usize) -> BandedOrder {
        BandedOrder {
            method,
            band: band.max(1),
        }
    }
}

/// The bounded-lookahead reorder stage (see the [module docs](self)).
pub(crate) struct ReorderStage<R: Read> {
    stream: PatternStream<R>,
    order: BandedOrder,
    /// Read-but-not-forwarded cubes, in the last planned order (new
    /// arrivals appended in arrival order until the next re-order).
    ring: VecDeque<(u32, PackedBits)>,
    /// The last cube forwarded downstream — the frozen tail the banded
    /// orderings chain against.
    tail: Option<PackedBits>,
    /// Output position → original cube index, recorded as windows are
    /// frozen out.
    perm: Vec<u32>,
    read: usize,
    eof: bool,
    /// New cubes arrived since the last re-order.
    dirty: bool,
    width: Option<usize>,
    peak_ring: usize,
    /// The as-given 0-fill peak, taken as cubes arrive, when tracked.
    pub(super) zero_peak: Option<ZeroFillPeak>,
}

impl<R: Read> ReorderStage<R> {
    pub fn new(stream: PatternStream<R>, order: BandedOrder) -> ReorderStage<R> {
        ReorderStage {
            stream,
            order,
            ring: VecDeque::new(),
            tail: None,
            perm: Vec::new(),
            read: 0,
            eof: false,
            dirty: false,
            width: None,
            peak_ring: 0,
            zero_peak: None,
        }
    }

    /// Reads one cube into the ring (without forwarding anything) so
    /// the caller can resolve a width-dependent window size first.
    /// Returns `None` on an empty input.
    pub fn peek_width(&mut self) -> Result<Option<usize>, StreamError> {
        if self.width.is_none() {
            self.fill_ring(1)?;
        }
        Ok(self.width)
    }

    /// Tops the ring up to `capacity` cubes from the reader.
    fn fill_ring(&mut self, capacity: usize) -> Result<(), StreamError> {
        while !self.eof && self.ring.len() < capacity {
            match self.stream.next_window(capacity - self.ring.len())? {
                Some(set) => {
                    self.width.get_or_insert(set.width());
                    if let Some(z) = &mut self.zero_peak {
                        z.observe(set.as_packed().cubes());
                    }
                    for cube in set.as_packed().cubes() {
                        self.ring.push_back((self.read as u32, cube.clone()));
                        self.read += 1;
                    }
                    self.dirty = true;
                }
                None => self.eof = true,
            }
        }
        self.peak_ring = self.peak_ring.max(self.ring.len());
        Ok(())
    }

    /// Re-orders the ring in place with the banded ordering, chaining
    /// against the frozen tail and the caller's warm lower bound.
    fn order_ring(&mut self, warm_lb: u64, win_idx: usize) -> Result<(), StreamError> {
        let n = self.ring.len();
        if n <= 1 {
            return Ok(());
        }
        let width = self.width.unwrap_or(0);
        let mut set = PackedCubeSet::new(width);
        for (_, cube) in &self.ring {
            set.push(cube.clone());
        }
        let set = CubeSet::from_packed(set);
        let ctx = BandContext {
            tail: self.tail.as_ref(),
            warm_lb,
        };
        // The banded search fans candidate evaluations out over the
        // pool; contain a worker panic here exactly like the analyzer
        // and fill workers do, attributed to the resident output span.
        let method = self.order.method;
        let resident = self.perm.len()..self.perm.len() + n;
        let order = contain(win_idx, resident, || method.order_band(&set, ctx))??;
        let mut slots: Vec<Option<(u32, PackedBits)>> = self.ring.drain(..).map(Some).collect();
        for &p in &order {
            if let Some(entry) = slots.get_mut(p).and_then(Option::take) {
                self.ring.push_back(entry);
            }
        }
        if self.ring.len() != n {
            // A non-permutation would silently drop or duplicate cubes.
            return Err(StreamError::Order(OrderingError::MalformedSchedule {
                len: order.len(),
                expected: n,
            }));
        }
        Ok(())
    }

    /// Freezes out the next window of up to `window` cubes in banded
    /// order. `warm_lb` is the frozen prefix's certified lower bound
    /// (0 when no analyzer runs); `win_idx` attributes contained panics.
    pub fn next_window(
        &mut self,
        window: usize,
        warm_lb: u64,
        win_idx: usize,
    ) -> Result<Option<CubeSet>, StreamError> {
        let window = window.max(1);
        let capacity = window.saturating_mul(self.order.band.max(1));
        let _span = minitrace::span_with(
            "stream.window.reorder",
            &[("window", win_idx.into()), ("capacity", capacity.into())],
        );
        self.fill_ring(capacity)?;
        if self.ring.is_empty() {
            return Ok(None);
        }
        if self.dirty {
            // EOF with no new arrivals never re-orders: once the whole
            // tail of the input is resident and ordered, the plan is
            // final (this is what makes band ≥ set exactly monolithic).
            self.order_ring(warm_lb, win_idx)?;
            self.dirty = false;
        }
        let take = window.min(self.ring.len());
        let mut set = PackedCubeSet::new(self.width.unwrap_or(0));
        for _ in 0..take {
            if let Some((idx, cube)) = self.ring.pop_front() {
                self.perm.push(idx);
                self.tail = Some(cube.clone());
                set.push(cube);
            }
        }
        Ok(Some(CubeSet::from_packed(set)))
    }

    /// Original cubes read from the underlying stream.
    pub fn cubes_read(&self) -> usize {
        self.read
    }

    /// High-water mark of resident ring cubes over the whole run.
    pub fn peak_resident_cubes(&self) -> usize {
        self.peak_ring
    }

    /// Bytes the stage holds: ring planes, the frozen tail, and the
    /// recorded permutation — all charged against the memory budget.
    pub fn resident_bytes(&self) -> u64 {
        let width = self.width.unwrap_or(0);
        let cubes = self.ring.len() as u64 + u64::from(self.tail.is_some());
        cubes * bytes_per_cube(width) + self.perm.len() as u64 * 4
    }

    /// The recorded output-position → original-index permutation.
    pub fn into_perm(self) -> Vec<u32> {
        self.perm
    }
}

/// Pass-2 replay of a recorded permutation over a fresh read of the
/// input: cubes are re-read in arrival order into a bounded buffer and
/// emitted in recorded order. Verifies the source against pass 1 —
/// width changes, missing cubes and extra cubes all surface as
/// [`StreamError::SourceChanged`].
pub(crate) struct ReplayStream<R: Read> {
    stream: PatternStream<R>,
    perm: Vec<u32>,
    /// Next output position to emit.
    pos: usize,
    /// Read-ahead buffer: original index → cube. Bounded by the ring
    /// capacity of the recording stage (the displacement bound).
    pending: HashMap<u32, PackedBits>,
    next_read: usize,
    /// `(cubes, width)` pass 1 saw.
    expected: (usize, usize),
    probed: bool,
    peak_pending: usize,
}

impl<R: Read> ReplayStream<R> {
    pub fn new(
        stream: PatternStream<R>,
        perm: Vec<u32>,
        expected: (usize, usize),
    ) -> ReplayStream<R> {
        ReplayStream {
            stream,
            perm,
            pos: 0,
            pending: HashMap::new(),
            next_read: 0,
            expected,
            probed: false,
            peak_pending: 0,
        }
    }

    fn source_changed(&self, found_width: usize) -> StreamError {
        StreamError::SourceChanged {
            expected: self.expected,
            found: (self.stream.cubes_read(), found_width),
        }
    }

    /// Reads forward until original index `idx` is buffered (or proves
    /// the source shrank).
    fn read_to(&mut self, idx: u32) -> Result<(), StreamError> {
        let (_, w1) = self.expected;
        while self.next_read <= idx as usize {
            let need = idx as usize + 1 - self.next_read;
            let Some(set) = self.stream.next_window(need)? else {
                // Source shrank: pass 1 saw this cube, pass 2 hit EOF.
                return Err(self.source_changed(w1));
            };
            if set.width() != w1 {
                return Err(self.source_changed(set.width()));
            }
            for cube in set.as_packed().cubes() {
                self.pending.insert(self.next_read as u32, cube.clone());
                self.next_read += 1;
            }
        }
        self.peak_pending = self.peak_pending.max(self.pending.len());
        Ok(())
    }

    /// Emits the next window of up to `max` cubes in recorded order.
    pub fn next_window(&mut self, max: usize) -> Result<Option<CubeSet>, StreamError> {
        let (_, w1) = self.expected;
        if self.pos == self.perm.len() {
            if !self.probed {
                self.probed = true;
                // Source grew: pass 2 has cubes pass 1 never saw.
                if self.stream.next_window(1)?.is_some() {
                    return Err(self.source_changed(self.stream.width().unwrap_or(w1)));
                }
            }
            return Ok(None);
        }
        let take = max.max(1).min(self.perm.len() - self.pos);
        let mut set = PackedCubeSet::new(w1);
        for _ in 0..take {
            let idx = self.perm[self.pos];
            self.read_to(idx)?;
            let Some(cube) = self.pending.remove(&idx) else {
                // Unreachable for a recorded permutation (each index is
                // consumed exactly once); fail closed rather than panic.
                return Err(self.source_changed(w1));
            };
            set.push(cube);
            self.pos += 1;
        }
        Ok(Some(CubeSet::from_packed(set)))
    }

    /// Original cubes read from the underlying stream.
    pub fn cubes_read(&self) -> usize {
        self.stream.cubes_read()
    }

    /// High-water mark of cubes buffered ahead of the emit cursor.
    pub fn peak_resident_cubes(&self) -> usize {
        self.peak_pending
    }

    /// Bytes the replay holds: the read-ahead buffer plus the recorded
    /// permutation.
    pub fn resident_bytes(&self) -> u64 {
        let (_, w1) = self.expected;
        self.pending.len() as u64 * bytes_per_cube(w1) + self.perm.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(text: &str, method: BandedMethod, band: usize) -> ReorderStage<&[u8]> {
        ReorderStage::new(
            PatternStream::new(text.as_bytes()),
            BandedOrder::with_band(method, band),
        )
    }

    fn drain(stage: &mut ReorderStage<&[u8]>, window: usize) -> Vec<u32> {
        let mut win = 0;
        while let Some(set) = stage.next_window(window, 0, win).unwrap() {
            assert!(set.len() <= window);
            win += 1;
        }
        stage.perm.clone()
    }

    const TEXT: &str = "0011\nXXXX\n0X1X\n1100\nX10X\n0XX0\nXXX1\n1X0X\n";

    #[test]
    fn records_a_permutation_of_the_input() {
        for method in [BandedMethod::Interleave, BandedMethod::XStat] {
            for band in [1, 2, 4] {
                let mut s = stage(TEXT, method, band);
                let perm = drain(&mut s, 2);
                let mut sorted: Vec<u32> = perm.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..8u32).collect::<Vec<_>>(),
                    "{} band {band}: {perm:?}",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn band_covering_the_whole_set_reproduces_the_global_ordering() {
        use crate::ordering::OrderingMethod;
        let cubes = dpfill_cubes::format::parse_patterns(TEXT).unwrap();
        for (method, global) in [
            (BandedMethod::Interleave, OrderingMethod::Interleaved),
            (BandedMethod::XStat, OrderingMethod::XStat),
        ] {
            let mut s = stage(TEXT, method, 4); // 4 windows × 2 = whole set
            let perm = drain(&mut s, 2);
            let expect: Vec<u32> = global
                .order(&cubes)
                .unwrap()
                .into_iter()
                .map(|i| i as u32)
                .collect();
            assert_eq!(perm, expect, "{}", method.label());
        }
    }

    #[test]
    fn displacement_stays_inside_the_ring() {
        for band in [1, 2, 4] {
            let window = 2;
            let mut s = stage(TEXT, BandedMethod::XStat, band);
            let perm = drain(&mut s, window);
            for (p, &idx) in perm.iter().enumerate() {
                assert!(
                    (idx as usize) < p + band * window,
                    "band {band}: output {p} pulled original {idx}"
                );
            }
            assert!(s.peak_resident_cubes() <= band * window);
        }
    }

    #[test]
    fn replay_reproduces_the_recorded_order_with_bounded_buffer() {
        let cubes = dpfill_cubes::format::parse_patterns(TEXT).unwrap();
        let mut s = stage(TEXT, BandedMethod::Interleave, 2);
        let mut ordered = Vec::new();
        let mut win = 0;
        while let Some(set) = s.next_window(3, 0, win).unwrap() {
            ordered.extend(set.as_packed().cubes().iter().cloned());
            win += 1;
        }
        let perm = s.into_perm();
        let mut replay = ReplayStream::new(
            PatternStream::new(TEXT.as_bytes()),
            perm,
            (cubes.len(), cubes.width()),
        );
        let mut replayed = Vec::new();
        while let Some(set) = replay.next_window(3).unwrap() {
            replayed.extend(set.as_packed().cubes().iter().cloned());
        }
        assert_eq!(ordered, replayed);
        assert!(replay.peak_pending <= 2 * 3);
        assert_eq!(replay.cubes_read(), cubes.len());
    }

    #[test]
    fn replay_detects_shrunk_and_grown_sources() {
        let perm: Vec<u32> = vec![2, 0, 1];
        // Shrunk: pass 1 saw 3 cubes, the file now has 2.
        let mut shrunk = ReplayStream::new(
            PatternStream::new("0X\n1X\n".as_bytes()),
            perm.clone(),
            (3, 2),
        );
        let err = shrunk.next_window(3).unwrap_err();
        assert!(matches!(err, StreamError::SourceChanged { .. }), "{err}");
        // Grown: the file now has an extra cube.
        let mut grown = ReplayStream::new(
            PatternStream::new("0X\n1X\nX1\nXX\n".as_bytes()),
            perm,
            (3, 2),
        );
        assert!(grown.next_window(3).unwrap().is_some());
        let err = grown.next_window(3).unwrap_err();
        assert!(matches!(err, StreamError::SourceChanged { .. }), "{err}");
    }

    #[test]
    fn empty_input_peeks_to_none() {
        let mut s = stage("# nothing\n", BandedMethod::XStat, 2);
        assert_eq!(s.peek_width().unwrap(), None);
        assert!(s.next_window(4, 0, 0).unwrap().is_none());
    }
}
