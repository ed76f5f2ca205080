//! Deterministic fault injection for I/O streams.
//!
//! The chaos suite needs to ask precise questions — "what happens when
//! byte 4097 of the input is corrupted?", "does the writer survive an
//! `EINTR` on its third `write`?", "is the spool cleaned up when the
//! consumer vanishes mid-pass-2?" — and get the *same* answer on every
//! run. So faults here are scheduled, not random: a [`FaultPlan`] pins
//! each fault either to an operation index (the N-th `read`/`write`
//! call) or to an absolute byte offset in the stream, and
//! [`FaultyReader`]/[`FaultyWriter`] replay the plan exactly.
//!
//! Two fault families:
//!
//! * **By-op** ([`OpFault`]): transient or terminal conditions tied to
//!   call counts — `EINTR`, short reads/writes, hard failures of any
//!   [`io::ErrorKind`]. These exercise retry loops.
//! * **By-byte** ([`ByteFault`]): content damage tied to stream
//!   position — bit corruption, silent truncation, or a typed cut
//!   (e.g. `BrokenPipe` exactly at byte B). These exercise parser
//!   diagnostics ("which line?") and end-of-stream validation.
//!
//! For differential chaos testing there is [`FaultPlan::benign_noise`]:
//! a seeded schedule of *recoverable-only* faults (interrupts + short
//! ops) under which a hardened pipeline must produce byte-identical
//! output to a fault-free run.

use std::io::{self, Read, Write};

/// A fault tied to the N-th I/O call on the wrapped stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFault {
    /// Return `ErrorKind::Interrupted` (as a signal landing mid-call
    /// would). Recoverable: a retry loop must absorb it.
    Interrupt,
    /// Serve at most this many bytes on a read, or accept at most this
    /// many on a write (minimum 1 — a zero-length result means EOF /
    /// `WriteZero`, which is a different fault). Recoverable.
    Short(usize),
    /// Fail hard with this `ErrorKind`. Terminal for most kinds.
    Fail(io::ErrorKind),
}

/// A fault tied to an absolute byte offset in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteFault {
    /// XOR the byte at this offset with the mask (mask != 0 flips
    /// content without changing length — the parser must name the
    /// damaged line).
    Corrupt(u8),
    /// End the stream silently at this offset: reads report EOF,
    /// writes report success but drop the tail. Models truncation.
    Truncate,
    /// Fail with this `ErrorKind` once the stream reaches this offset.
    /// `BrokenPipe` here models a consumer dying mid-stream.
    Cut(io::ErrorKind),
}

/// A deterministic schedule of faults, shared by reader and writer
/// wrappers. Build one with the `on_op`/`at_byte` builders, or call
/// [`FaultPlan::benign_noise`] for a seeded recoverable-only schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    by_op: Vec<(u64, OpFault)>,
    by_byte: Vec<(u64, ByteFault)>,
}

impl FaultPlan {
    /// An empty plan: the wrappers become transparent.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `fault` on the `op`-th (0-based) read/write call.
    #[must_use]
    pub fn on_op(mut self, op: u64, fault: OpFault) -> FaultPlan {
        self.by_op.push((op, fault));
        self
    }

    /// Schedules `fault` at absolute byte offset `byte` of the stream.
    #[must_use]
    pub fn at_byte(mut self, byte: u64, fault: ByteFault) -> FaultPlan {
        self.by_byte.push((byte, fault));
        self
    }

    /// A seeded schedule of *recoverable-only* noise: interrupts and
    /// short ops scattered over the first `ops` calls. A hardened
    /// pipeline must produce byte-identical output under any such plan.
    /// The generator is a fixed xorshift so (seed, ops) is reproducible
    /// everywhere.
    #[must_use]
    pub fn benign_noise(seed: u64, ops: u64) -> FaultPlan {
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64* — tiny, dependency-free, stable.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut plan = FaultPlan::new();
        for op in 0..ops {
            match next() % 4 {
                0 => plan = plan.on_op(op, OpFault::Interrupt),
                1 => plan = plan.on_op(op, OpFault::Short(1 + (next() % 3) as usize)),
                _ => {}
            }
        }
        plan
    }

    fn op_fault(&self, op: u64) -> Option<OpFault> {
        self.by_op.iter().find(|(at, _)| *at == op).map(|(_, f)| *f)
    }

    /// The first by-byte fault with offset in `[pos, pos + len)`.
    fn byte_fault(&self, pos: u64, len: usize) -> Option<(u64, ByteFault)> {
        self.by_byte
            .iter()
            .filter(|(at, _)| *at >= pos && *at < pos + len as u64)
            .min_by_key(|(at, _)| *at)
            .map(|(at, f)| (*at, *f))
    }
}

/// Counters reported by the wrappers so tests can assert the plan was
/// actually exercised (a fault scheduled past EOF never fires).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// `Interrupt` faults injected.
    pub interrupts: u64,
    /// `Short` faults injected.
    pub shorts: u64,
    /// Hard failures (`Fail`/`Cut`) injected.
    pub failures: u64,
    /// Bytes corrupted.
    pub corruptions: u64,
    /// Truncations applied.
    pub truncations: u64,
}

/// A `Read` replaying a [`FaultPlan`] over an inner reader.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    plan: FaultPlan,
    op: u64,
    pos: u64,
    truncated: bool,
    log: FaultLog,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> FaultyReader<R> {
        FaultyReader {
            inner,
            plan,
            op: 0,
            pos: 0,
            truncated: false,
            log: FaultLog::default(),
        }
    }

    /// Faults injected so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.truncated || buf.is_empty() {
            return Ok(0);
        }
        let op = self.op;
        self.op += 1;
        let mut limit = buf.len();
        match self.plan.op_fault(op) {
            Some(OpFault::Interrupt) => {
                self.log.interrupts += 1;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
            }
            Some(OpFault::Fail(kind)) => {
                self.log.failures += 1;
                return Err(io::Error::new(kind, "injected read failure"));
            }
            Some(OpFault::Short(n)) => {
                self.log.shorts += 1;
                limit = limit.min(n.max(1));
            }
            None => {}
        }
        // Clip the read so at most one by-byte fault region is touched,
        // keeping offsets exact.
        if let Some((at, fault)) = self.plan.byte_fault(self.pos, limit) {
            match fault {
                ByteFault::Truncate if at == self.pos => {
                    self.log.truncations += 1;
                    self.truncated = true;
                    return Ok(0);
                }
                ByteFault::Cut(kind) if at == self.pos => {
                    self.log.failures += 1;
                    return Err(io::Error::new(kind, "injected stream cut"));
                }
                ByteFault::Corrupt(mask) => {
                    // Read up to and including the corrupted byte.
                    limit = limit.min((at - self.pos + 1) as usize);
                    let n = self.inner.read(&mut buf[..limit])?;
                    if self.pos + (n as u64) > at {
                        let idx = (at - self.pos) as usize;
                        buf[idx] ^= mask;
                        self.log.corruptions += 1;
                        // Consume the fault so a seek-free replay of the
                        // same offset is not corrupted twice.
                        self.plan
                            .by_byte
                            .retain(|(b, f)| !(*b == at && matches!(f, ByteFault::Corrupt(_))));
                    }
                    self.pos += n as u64;
                    return Ok(n);
                }
                // Truncate/Cut further inside the buffer: serve the
                // clean prefix now, fire the fault on the next call.
                ByteFault::Truncate | ByteFault::Cut(_) => {
                    limit = limit.min((at - self.pos) as usize);
                }
            }
        }
        let n = self.inner.read(&mut buf[..limit])?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// A `Write` replaying a [`FaultPlan`] over an inner writer.
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    plan: FaultPlan,
    op: u64,
    pos: u64,
    truncated: bool,
    log: FaultLog,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            plan,
            op: 0,
            pos: 0,
            truncated: false,
            log: FaultLog::default(),
        }
    }

    /// Faults injected so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }

    /// Returns the wrapped writer (for inspecting captured output).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.truncated {
            // Silent data loss: pretend success, drop the bytes.
            self.pos += buf.len() as u64;
            return Ok(buf.len());
        }
        let op = self.op;
        self.op += 1;
        let mut limit = buf.len();
        match self.plan.op_fault(op) {
            Some(OpFault::Interrupt) => {
                self.log.interrupts += 1;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
            }
            Some(OpFault::Fail(kind)) => {
                self.log.failures += 1;
                return Err(io::Error::new(kind, "injected write failure"));
            }
            Some(OpFault::Short(n)) => {
                self.log.shorts += 1;
                limit = limit.min(n.max(1));
            }
            None => {}
        }
        let mut corrupt: Option<(u64, u8)> = None;
        if let Some((at, fault)) = self.plan.byte_fault(self.pos, limit) {
            match fault {
                ByteFault::Truncate if at == self.pos => {
                    self.log.truncations += 1;
                    self.truncated = true;
                    self.pos += buf.len() as u64;
                    return Ok(buf.len());
                }
                ByteFault::Cut(kind) if at == self.pos => {
                    self.log.failures += 1;
                    return Err(io::Error::new(kind, "injected stream cut"));
                }
                ByteFault::Corrupt(mask) => {
                    limit = limit.min((at - self.pos + 1) as usize);
                    corrupt = Some((at, mask));
                }
                ByteFault::Truncate | ByteFault::Cut(_) => {
                    limit = limit.min((at - self.pos) as usize);
                }
            }
        }
        let n = if let Some((at, mask)) = corrupt {
            let mut damaged = buf[..limit].to_vec();
            let idx = (at - self.pos) as usize;
            if idx < damaged.len() {
                damaged[idx] ^= mask;
            }
            let n = self.inner.write(&damaged)?;
            if self.pos + (n as u64) > at {
                self.log.corruptions += 1;
                self.plan
                    .by_byte
                    .retain(|(b, f)| !(*b == at && matches!(f, ByteFault::Corrupt(_))));
            }
            n
        } else {
            self.inner.write(&buf[..limit])?
        };
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.truncated {
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::retry::{self, RetryReader};
    use std::io::{BufRead, BufReader};

    const DATA: &[u8] = b"0X1X\n1XX0\nXXXX\n10X1\n";

    fn read_all<R: Read>(mut r: R) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        r.read_to_end(&mut out)?;
        Ok(out)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let r = FaultyReader::new(DATA, FaultPlan::new());
        assert_eq!(read_all(r).unwrap(), DATA);
        let mut w = FaultyWriter::new(Vec::new(), FaultPlan::new());
        w.write_all(DATA).unwrap();
        assert_eq!(w.into_inner(), DATA);
    }

    #[test]
    fn interrupt_faults_surface_as_eintr_and_count() {
        let plan = FaultPlan::new().on_op(0, OpFault::Interrupt);
        let mut r = FaultyReader::new(DATA, plan);
        let mut buf = [0u8; 8];
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert!(r.read(&mut buf).unwrap() > 0);
        assert_eq!(r.log().interrupts, 1);
    }

    #[test]
    fn short_reads_clip_but_lose_nothing() {
        let plan = FaultPlan::new()
            .on_op(0, OpFault::Short(1))
            .on_op(1, OpFault::Short(2));
        let mut r = FaultyReader::new(DATA, plan);
        let mut buf = [0u8; 64];
        assert_eq!(r.read(&mut buf).unwrap(), 1);
        assert_eq!(r.read(&mut buf[1..]).unwrap(), 2);
        let rest = read_all(&mut r).unwrap();
        let mut whole = buf[..3].to_vec();
        whole.extend_from_slice(&rest);
        assert_eq!(whole, DATA);
        assert_eq!(r.log().shorts, 2);
    }

    #[test]
    fn corruption_flips_exactly_one_byte_at_the_offset() {
        // Offset 5 is the '1' starting line 2 — flipping bit 3 ('1' ^
        // 0x08 = '9') must damage only that byte.
        let plan = FaultPlan::new().at_byte(5, ByteFault::Corrupt(0x08));
        let mut r = FaultyReader::new(DATA, plan);
        let got = read_all(&mut r).unwrap();
        let mut want = DATA.to_vec();
        want[5] ^= 0x08;
        assert_eq!(got, want);
        assert_eq!(r.log().corruptions, 1);
    }

    #[test]
    fn truncation_ends_the_stream_exactly_at_the_offset() {
        let plan = FaultPlan::new().at_byte(7, ByteFault::Truncate);
        let mut r = FaultyReader::new(DATA, plan);
        let got = read_all(&mut r).unwrap();
        assert_eq!(got, &DATA[..7]);
        assert_eq!(r.log().truncations, 1);
    }

    #[test]
    fn cut_fails_with_the_requested_kind_after_the_clean_prefix() {
        let plan = FaultPlan::new().at_byte(10, ByteFault::Cut(io::ErrorKind::BrokenPipe));
        let mut r = FaultyReader::new(DATA, plan);
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        let err = loop {
            match r.read(&mut buf) {
                Ok(0) => panic!("expected a cut, got EOF"),
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(got, &DATA[..10]);
    }

    #[test]
    fn faulty_reader_lines_are_damaged_at_the_predicted_line() {
        // Corrupt a byte inside line 3 (offsets 10..14): the damaged
        // character must appear on that BufRead line and nowhere else.
        let plan = FaultPlan::new().at_byte(11, ByteFault::Corrupt(0x04));
        let reader = BufReader::new(FaultyReader::new(DATA, plan));
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines[0], "0X1X");
        assert_eq!(lines[1], "1XX0");
        assert_ne!(lines[2], "XXXX");
        assert_eq!(lines[3], "10X1");
    }

    #[test]
    fn writer_cut_models_a_dying_consumer() {
        let plan = FaultPlan::new().at_byte(6, ByteFault::Cut(io::ErrorKind::BrokenPipe));
        let mut w = FaultyWriter::new(Vec::new(), plan);
        w.write_all(&DATA[..5]).unwrap();
        w.write_all(&DATA[5..6]).unwrap();
        let err = w.write_all(&DATA[6..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(w.log().failures, 1);
        assert_eq!(w.into_inner(), &DATA[..6]);
    }

    #[test]
    fn writer_short_and_interrupt_are_recoverable_via_retry() {
        let plan = FaultPlan::new()
            .on_op(0, OpFault::Interrupt)
            .on_op(1, OpFault::Short(2))
            .on_op(2, OpFault::Interrupt);
        let mut w = FaultyWriter::new(Vec::new(), plan);
        retry::write_all(&mut w, DATA).unwrap();
        assert_eq!(w.log().interrupts, 2);
        assert_eq!(w.log().shorts, 1);
        assert_eq!(w.into_inner(), DATA);
    }

    #[test]
    fn benign_noise_is_recoverable_and_reproducible() {
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let plan = FaultPlan::benign_noise(seed, 64);
            let again = FaultPlan::benign_noise(seed, 64);
            assert_eq!(plan.by_op, again.by_op, "seed {seed} not reproducible");
            // Reading through RetryReader must recover everything.
            let r = RetryReader::new(FaultyReader::new(DATA, plan.clone()));
            assert_eq!(read_all(r).unwrap(), DATA, "seed {seed} read drifted");
            // Writing through retry::write_all must recover everything.
            let mut w = FaultyWriter::new(Vec::new(), plan);
            retry::write_all(&mut w, DATA).unwrap();
            assert_eq!(w.into_inner(), DATA, "seed {seed} write drifted");
        }
    }
}
